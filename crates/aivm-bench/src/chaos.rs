//! Crash/recover and degradation chaos harness (`repro chaos`).
//!
//! The durability claim of `aivm-serve` is exact: a runtime recovered
//! from WAL + checkpoint must be indistinguishable from one that never
//! crashed — same view contents, same pending counts, same trace, same
//! accumulated cost. This module *proves* that claim per seed, the way
//! deterministic simulation testing does:
//!
//! 1. **Reference pass** — a seeded, deterministic op script (DML from
//!    the TPC-R update streams, scheduler ticks, fresh reads) runs on an
//!    engine-backed runtime with an in-memory WAL attached, snapshotting
//!    checksums/pending/cost at every op boundary and taking periodic
//!    checkpoints.
//! 2. **Crash cycles** — for (a sample of) every op boundary, the run
//!    is "killed" by truncating the WAL image to that boundary's byte
//!    length, recovered from the latest covering checkpoint (and once
//!    from genesis), and compared field-by-field against the reference
//!    snapshot; `aivm-sim`'s replay machinery independently re-prices
//!    the recovered schedule as a third opinion. A few cuts land *mid
//!    record* to exercise torn-tail handling.
//! 3. **Continuation cycles** — a recovered runtime resumes its WAL and
//!    plays the remaining ops; it must land byte-for-byte on the
//!    reference's final WAL image and final state.
//! 4. **Degradation cycles** — a seeded [`FaultPlan`] (policy panics,
//!    flush errors) runs the same script; the runtime must demote
//!    instead of dying, keep (almost) every tick within budget, and
//!    still serve an in-budget fresh read at the end. A separate pass
//!    with only a cost overrun injected checks that sustained drift
//!    triggers recalibration.
//!
//! Everything derives from the seed, so any reported failure reproduces
//! bit-for-bit from its seed alone.

use crate::proxy::{FaultPlanNet, FaultProxy};
use crate::serve::{ServeExperiment, ServeOptions};
use aivm_client::{Client, ClientConfig};
use aivm_core::{CostFn, Counts};
use aivm_engine::{Database, EngineError, Modification, WRow};
use aivm_net::{NetServer, NetServerConfig, Replica, ReplicaConfig, Request, Response};
use aivm_serve::{
    decode_segment, read_wal, Checkpoint, FaultPlan, MaintenanceRuntime, MemWal, MetricsSnapshot,
    ReadMode, ServeServer, ServerConfig, Trace, WalRecord, WalStorage, WalTail, WalWriter,
};
use aivm_shard::{
    FailoverConfig, FailoverMonitor, MergeSpec, Partitioner, Promoter, ReplicaStatus, ShardRouter,
};
use aivm_sim::replay::{verify_recovery_prefix, ReplayStep};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Options of a chaos run.
#[derive(Clone, Debug)]
pub struct ChaosOptions {
    /// Number of independent seeds to run.
    pub seeds: u64,
    /// Ops per seed (DML + ticks + reads drawn from the script RNG).
    pub events: usize,
    /// Ops between checkpoints in the reference pass.
    pub checkpoint_every: usize,
    /// At most this many crash/recover cycles per seed; boundaries are
    /// sampled evenly when the script produces more.
    pub max_kills: usize,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            seeds: 4,
            events: 400,
            checkpoint_every: 64,
            max_kills: 200,
        }
    }
}

/// Aggregated outcome of a chaos run; `failures` is empty on success.
#[derive(Debug, Default)]
pub struct ChaosReport {
    /// Per-seed result rows.
    pub seeds: Vec<SeedReport>,
    /// Human-readable descriptions of every divergence found.
    pub failures: Vec<String>,
}

/// Outcome of one seed's cycles.
#[derive(Debug)]
pub struct SeedReport {
    /// The seed.
    pub seed: u64,
    /// Ops the script produced.
    pub ops: usize,
    /// WAL records the reference pass logged.
    pub wal_records: u64,
    /// Crash/recover cycles executed (boundary + torn cuts).
    pub crash_cycles: usize,
    /// Recover-then-resume cycles executed.
    pub continuation_cycles: usize,
    /// Policy demotions observed across the degradation cycles.
    pub demotions: u64,
    /// Constraint violations observed across the degradation cycles.
    pub violations: u64,
    /// Whether every cycle of this seed matched the reference.
    pub ok: bool,
}

impl ChaosReport {
    /// True when no cycle diverged.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// One scripted operation against the runtime.
enum Op {
    Dml(usize, Modification),
    Tick,
    FreshRead,
}

/// Everything the crash cycles compare against, captured at one op
/// boundary of the reference pass.
struct Boundary {
    records: u64,
    bytes: usize,
    view: u64,
    db: u64,
    pending: Vec<u64>,
    steps: usize,
    cost: f64,
}

/// The reference pass's artifacts.
struct Reference {
    bytes: Vec<u8>,
    boundaries: Vec<Boundary>,
    checkpoints: Vec<Checkpoint>,
    steps: Vec<ReplayStep>,
    actions: Vec<Counts>,
    trace: Trace,
}

/// Draws a deterministic op script from the experiment's pre-generated
/// update streams: ~40% partsupp DML, ~40% supplier DML, ~16% ticks,
/// ~4% fresh reads, ending early if a stream runs dry.
fn script(exp: &ServeExperiment, seed: u64, events: usize) -> Vec<Op> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5c217);
    let mut ps = exp.ps_stream.iter().cloned();
    let mut supp = exp.supp_stream.iter().cloned();
    let mut ops = Vec::with_capacity(events);
    while ops.len() < events {
        let r = rng.gen_range(0u32..100);
        let op = if r < 40 {
            match ps.next() {
                Some(m) => Op::Dml(exp.ps_pos, m),
                None => break,
            }
        } else if r < 80 {
            match supp.next() {
                Some(m) => Op::Dml(exp.supp_pos, m),
                None => break,
            }
        } else if r < 96 {
            Op::Tick
        } else {
            Op::FreshRead
        };
        ops.push(op);
    }
    ops
}

fn apply_op(rt: &mut MaintenanceRuntime, op: &Op) -> Result<(), EngineError> {
    match op {
        Op::Dml(pos, m) => rt.ingest_dml(*pos, m.clone()),
        Op::Tick => rt.tick().map(|_| ()),
        Op::FreshRead => rt.read(ReadMode::Fresh).map(|_| ()),
    }
}

fn boundary_of(rt: &MaintenanceRuntime, wal: &MemWal) -> Boundary {
    Boundary {
        records: rt.wal_records(),
        bytes: wal.bytes().len(),
        view: rt.view_checksum().expect("engine backend"),
        db: rt.db_checksum().expect("engine backend"),
        pending: rt.pending().iter().collect(),
        steps: rt.trace().map(|t| t.steps.len()).unwrap_or(0),
        cost: rt.metrics().total_flush_cost,
    }
}

fn trace_as_replay(trace: &Trace) -> (Vec<ReplayStep>, Vec<Counts>) {
    let steps = trace
        .steps
        .iter()
        .map(|s| ReplayStep {
            arrivals: s.arrivals.clone(),
            forced: s.forced,
        })
        .collect();
    (steps, trace.actions())
}

/// Runs the script once with a WAL attached, recording a [`Boundary`]
/// after every op and a [`Checkpoint`] every `checkpoint_every` ops.
fn reference_run(
    exp: &ServeExperiment,
    ops: &[Op],
    checkpoint_every: usize,
) -> Result<Reference, EngineError> {
    let mut rt = exp.runtime(exp.policy("online").expect("known policy"))?;
    let mem = MemWal::new();
    rt.attach_wal(WalWriter::create(Box::new(mem.clone()), 4)?);
    let mut boundaries = vec![boundary_of(&rt, &mem)];
    let mut checkpoints = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        apply_op(&mut rt, op)?;
        boundaries.push(boundary_of(&rt, &mem));
        if (i + 1) % checkpoint_every == 0 {
            checkpoints.push(rt.checkpoint());
        }
    }
    rt.sync_wal()?;
    let trace = rt.into_trace().expect("tracing on");
    let (steps, actions) = trace_as_replay(&trace);
    Ok(Reference {
        bytes: mem.bytes(),
        boundaries,
        checkpoints,
        steps,
        actions,
        trace,
    })
}

/// Recovers from the first `len` bytes of the reference WAL, using the
/// latest checkpoint covering at most `max_records` log records (or
/// genesis when none does / `force_genesis`).
fn recover_prefix(
    exp: &ServeExperiment,
    reference: &Reference,
    len: usize,
    max_records: u64,
    force_genesis: bool,
) -> Result<MaintenanceRuntime, EngineError> {
    let ck = if force_genesis {
        None
    } else {
        reference
            .checkpoints
            .iter()
            .rfind(|c| c.wal_records <= max_records)
    };
    MaintenanceRuntime::recover(
        exp.config(),
        exp.policy("online").expect("known policy"),
        &reference.bytes[..len],
        ck,
        exp.genesis_db(),
        &|db| exp.make_view(db),
    )
}

/// Compares a recovered runtime against one reference boundary; `None`
/// skips the boundary fields (used for mid-record cuts, which land
/// between boundaries) and checks only trace-prefix consistency and the
/// independent re-pricing.
fn check_recovered(
    exp: &ServeExperiment,
    reference: &Reference,
    rt: &MaintenanceRuntime,
    expect: Option<&Boundary>,
    label: &str,
) -> Result<(), String> {
    let trace = rt.trace().ok_or_else(|| format!("{label}: no trace"))?;
    let (steps, actions) = trace_as_replay(trace);
    let outcome = verify_recovery_prefix(
        &exp.costs,
        exp.budget,
        &reference.steps,
        &reference.actions,
        &steps,
        &actions,
    )
    .map_err(|e| format!("{label}: {e}"))?;
    let m = rt.metrics();
    if (outcome.total_cost - m.total_flush_cost).abs() > 1e-6 {
        return Err(format!(
            "{label}: sim re-priced cost {} != recovered runtime cost {}",
            outcome.total_cost, m.total_flush_cost
        ));
    }
    if m.recoveries != 1 {
        return Err(format!("{label}: recoveries = {}", m.recoveries));
    }
    let Some(b) = expect else { return Ok(()) };
    let mut mismatches = Vec::new();
    if rt.view_checksum() != Some(b.view) {
        mismatches.push(format!(
            "view checksum {:?} != {}",
            rt.view_checksum(),
            b.view
        ));
    }
    if rt.db_checksum() != Some(b.db) {
        mismatches.push(format!("db checksum {:?} != {}", rt.db_checksum(), b.db));
    }
    let pending: Vec<u64> = rt.pending().iter().collect();
    if pending != b.pending {
        mismatches.push(format!("pending {pending:?} != {:?}", b.pending));
    }
    if steps.len() != b.steps {
        mismatches.push(format!(
            "trace has {} steps, expected {}",
            steps.len(),
            b.steps
        ));
    }
    if (m.total_flush_cost - b.cost).abs() > 1e-6 {
        mismatches.push(format!("cost {} != {}", m.total_flush_cost, b.cost));
    }
    if mismatches.is_empty() {
        Ok(())
    } else {
        Err(format!("{label}: {}", mismatches.join("; ")))
    }
}

/// Kills the reference run at sampled op boundaries (and a few torn
/// mid-record cuts) and verifies each recovery.
fn crash_cycles(
    exp: &ServeExperiment,
    reference: &Reference,
    seed: u64,
    max_kills: usize,
    failures: &mut Vec<String>,
) -> usize {
    let n = reference.boundaries.len();
    let stride = n.div_ceil(max_kills.max(1)).max(1);
    let mut cycles = 0;
    for (idx, b) in reference.boundaries.iter().enumerate().step_by(stride) {
        let label = format!("seed {seed} kill at op {idx} ({} records)", b.records);
        // Recovering boundary 0 from an empty-but-for-the-header log
        // exercises the genesis path; every checkpointed boundary also
        // runs once ignoring checkpoints to cross-check full replay.
        for force_genesis in [false, true] {
            if force_genesis && idx != 0 && !idx.is_multiple_of(97) {
                continue;
            }
            let label = if force_genesis {
                format!("{label} [genesis]")
            } else {
                label.clone()
            };
            cycles += 1;
            match recover_prefix(exp, reference, b.bytes, b.records, force_genesis) {
                Ok(rt) => {
                    if let Err(e) = check_recovered(exp, reference, &rt, Some(b), &label) {
                        failures.push(e);
                    }
                }
                Err(e) => failures.push(format!("{label}: recovery failed: {e}")),
            }
        }
    }
    // Torn cuts: a few kills land mid-record; recovery must tolerate
    // the torn tail and come up at the last durable record, which is a
    // valid (if boundary-less) state — checked via trace-prefix and
    // re-pricing only.
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x7042);
    for _ in 0..3 {
        let idx = rng.gen_range(1..n);
        let b = &reference.boundaries[idx];
        let prev = &reference.boundaries[idx - 1];
        if b.bytes <= prev.bytes + 3 {
            continue;
        }
        let cut = b.bytes - 3;
        let label = format!("seed {seed} torn cut at byte {cut} (op {idx})");
        cycles += 1;
        let durable = match read_wal(&reference.bytes[..cut]) {
            Ok(o) => o.records.len() as u64,
            Err(e) => {
                failures.push(format!("{label}: torn read failed: {e}"));
                continue;
            }
        };
        match recover_prefix(exp, reference, cut, durable, false) {
            Ok(rt) => {
                if let Err(e) = check_recovered(exp, reference, &rt, None, &label) {
                    failures.push(e);
                }
            }
            Err(e) => failures.push(format!("{label}: recovery failed: {e}")),
        }
    }
    cycles
}

/// Recovers at sampled boundaries, resumes the WAL, and plays the rest
/// of the script: the continuation must land exactly on the reference's
/// final state *and* final WAL image.
fn continuation_cycles(
    exp: &ServeExperiment,
    reference: &Reference,
    ops: &[Op],
    seed: u64,
    failures: &mut Vec<String>,
) -> usize {
    let n = reference.boundaries.len();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xc017);
    let mut cycles = 0;
    for _ in 0..2 {
        let idx = rng.gen_range(0..n);
        let b = &reference.boundaries[idx];
        let label = format!("seed {seed} continuation from op {idx}");
        cycles += 1;
        let mut rt = match recover_prefix(exp, reference, b.bytes, b.records, false) {
            Ok(rt) => rt,
            Err(e) => {
                failures.push(format!("{label}: recovery failed: {e}"));
                continue;
            }
        };
        let mut cont = MemWal::new();
        if let Err(e) = cont.append(&reference.bytes[..b.bytes]) {
            failures.push(format!("{label}: wal seed failed: {e}"));
            continue;
        }
        rt.attach_wal(WalWriter::resume(Box::new(cont.clone()), b.records, 4));
        let mut failed = false;
        for op in &ops[idx..] {
            if let Err(e) = apply_op(&mut rt, op) {
                failures.push(format!("{label}: replayed op failed: {e}"));
                failed = true;
                break;
            }
        }
        if failed {
            continue;
        }
        if let Err(e) = rt.sync_wal() {
            failures.push(format!("{label}: final sync failed: {e}"));
            continue;
        }
        let last = reference.boundaries.last().expect("nonempty boundaries");
        if let Err(e) = check_recovered(exp, reference, &rt, Some(last), &label) {
            failures.push(e);
        }
        if cont.bytes() != reference.bytes {
            failures.push(format!(
                "{label}: continuation WAL diverges from reference ({} vs {} bytes)",
                cont.bytes().len(),
                reference.bytes.len()
            ));
        }
    }
    cycles
}

/// Runs the script under a seeded fault plan and checks graceful
/// degradation; returns the final metrics for reporting.
fn degradation_cycle(
    exp: &ServeExperiment,
    ops: &[Op],
    seed: u64,
    failures: &mut Vec<String>,
) -> Option<MetricsSnapshot> {
    // Each tick and each fresh read consumes policy time; size the
    // trigger horizon so most sampled faults actually fire.
    let horizon = ops
        .iter()
        .map(|op| match op {
            Op::Dml(..) => 0,
            Op::Tick => 1,
            Op::FreshRead => 2,
        })
        .sum::<usize>();
    let mut plan = FaultPlan::seeded(seed, horizon.max(4));
    // Producer-side faults apply to the threaded server, and a genuine
    // cost overrun legitimately breaks the budget invariant (checked in
    // its own pass below); keep this cycle to policy/flush faults.
    plan.cost_overrun = None;
    plan.dup_send_every = None;
    plan.delay_send_every = None;
    let injected_flush_error = plan.flush_error_at.is_some();
    let label = format!("seed {seed} degradation");
    let policy = if seed.is_multiple_of(2) {
        "online"
    } else {
        "planned"
    };
    let mut rt = match exp.runtime(exp.policy(policy).expect("known policy")) {
        Ok(rt) => rt,
        Err(e) => {
            failures.push(format!("{label}: build failed: {e}"));
            return None;
        }
    };
    rt.set_faults(plan);
    for (i, op) in ops.iter().enumerate() {
        if let Err(e) = apply_op(&mut rt, op) {
            failures.push(format!("{label}: op {i} failed: {e}"));
            return None;
        }
    }
    match rt.read(ReadMode::Fresh) {
        Ok(r) => {
            if r.violated || r.flush_cost > exp.budget + 1e-9 {
                failures.push(format!(
                    "{label}: final fresh read cost {} over budget {}",
                    r.flush_cost, exp.budget
                ));
            }
        }
        Err(e) => failures.push(format!("{label}: final fresh read failed: {e}")),
    }
    let m = rt.metrics();
    // A zeroed-out flush (injected error) can leave one tick's state
    // full; every other tick must stay within budget post-demotion.
    let allowed = u64::from(injected_flush_error);
    if m.constraint_violations > allowed {
        failures.push(format!(
            "{label}: {} constraint violations (allowed {allowed})",
            m.constraint_violations
        ));
    }
    if m.policy_demotions > 0 && !rt.demoted() {
        failures.push(format!("{label}: demotion counted but not in effect"));
    }
    // Sustained-drift pass: inject only a cost overrun and require that
    // three consecutive overruns recalibrated the model.
    let overrun = FaultPlan {
        cost_overrun: Some(aivm_serve::CostOverrun {
            from_t: 0,
            factor: 2.0,
        }),
        ..FaultPlan::none()
    };
    match exp.runtime(exp.policy("online").expect("known policy")) {
        Ok(mut rt) => {
            rt.set_faults(overrun);
            for op in ops {
                if let Err(e) = apply_op(&mut rt, op) {
                    failures.push(format!("{label}: overrun op failed: {e}"));
                    break;
                }
            }
            let om = rt.metrics();
            if om.cost_overruns >= 3 && om.recalibrations == 0 {
                failures.push(format!(
                    "{label}: {} overruns but no recalibration",
                    om.cost_overruns
                ));
            }
        }
        Err(e) => failures.push(format!("{label}: overrun build failed: {e}")),
    }
    Some(m)
}

/// Runs the whole chaos suite: per seed, a reference pass then crash,
/// continuation, and degradation cycles. All divergences are collected
/// into the report rather than panicking, so one bad seed does not mask
/// another.
pub fn run_chaos(exp: &ServeExperiment, opts: &ChaosOptions) -> Result<ChaosReport, EngineError> {
    let mut report = ChaosReport::default();
    for seed in 0..opts.seeds {
        let ops = script(exp, seed, opts.events);
        let reference = reference_run(exp, &ops, opts.checkpoint_every)?;
        let before = report.failures.len();
        let crash = crash_cycles(exp, &reference, seed, opts.max_kills, &mut report.failures);
        let cont = continuation_cycles(exp, &reference, &ops, seed, &mut report.failures);
        let degr = degradation_cycle(exp, &ops, seed, &mut report.failures);
        report.seeds.push(SeedReport {
            seed,
            ops: ops.len(),
            wal_records: reference.boundaries.last().map(|b| b.records).unwrap_or(0),
            crash_cycles: crash,
            continuation_cycles: cont,
            demotions: degr.as_ref().map(|m| m.policy_demotions).unwrap_or(0),
            violations: degr.as_ref().map(|m| m.constraint_violations).unwrap_or(0),
            ok: report.failures.len() == before,
        });
    }
    // The reference trace of the last seed doubles as a replay sanity
    // check: re-pricing the full recorded schedule must reproduce the
    // recorded total cost.
    if let Some(seed) = report.seeds.last() {
        let ops = script(exp, seed.seed, opts.events);
        let reference = reference_run(exp, &ops, opts.checkpoint_every)?;
        match aivm_sim::replay::replay_schedule(
            &exp.costs,
            exp.budget,
            &reference.steps,
            &reference.actions,
        ) {
            Ok(outcome) => {
                let live = reference.trace.total_cost();
                if (outcome.total_cost - live).abs() > 1e-6 {
                    report.failures.push(format!(
                        "seed {}: full-trace re-pricing {} != live {live}",
                        seed.seed, outcome.total_cost
                    ));
                }
            }
            Err(e) => report
                .failures
                .push(format!("seed {}: full-trace replay failed: {e}", seed.seed)),
        }
    }
    Ok(report)
}

/// Builds a quick-scale experiment sized for chaos runs.
pub fn chaos_experiment(events: usize, seed: u64) -> Result<ServeExperiment, EngineError> {
    ServeExperiment::build(ServeOptions {
        // Only ~40% of ops draw from each stream; a little slack keeps
        // the script from ending early.
        events_each: events,
        quick: true,
        seed,
        ..Default::default()
    })
}

// ---------------------------------------------------------------------
// Kill-one-shard chaos (`repro chaos --shards N`)
// ---------------------------------------------------------------------

/// Outcome of one kill-one-shard cycle (see [`run_shard_kill`]).
///
/// The cycle proves the sharded serving path's failure story end to
/// end, over the real wire protocol: while one shard is dead its keys
/// are rejected with the retry-safe `ShardUnavailable` code and merged
/// reads carry `degraded = true`, the *other* shards keep accepting
/// and serving, and after WAL recovery + rejoin the merged fresh read
/// is checksum-identical to evaluating the view definition from
/// scratch over every shard's base tables.
#[derive(Debug)]
pub struct ShardKillReport {
    /// Shard count of the cycle.
    pub shards: usize,
    /// Index of the killed shard.
    pub victim: usize,
    /// WAL records the victim had durably logged when it died.
    pub victim_wal_records: u64,
    /// Wire-level `ShardUnavailable` rejections the client observed.
    pub unavailable_rejections: u64,
    /// Batches live shards accepted while the victim was down.
    pub degraded_accepts: u64,
    /// Merged fresh-read checksum after recovery + rejoin.
    pub merged_checksum: u64,
    /// Checksum of direct evaluation over the final shard databases.
    pub direct_checksum: u64,
    /// Divergences; empty on success.
    pub failures: Vec<String>,
}

impl ShardKillReport {
    /// True when every phase behaved as specified.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Per-shard batch queues: both update streams cut into `chunk`-sized
/// batches and split by the partitioner, so every queued batch targets
/// exactly one shard and each shard's queue is in stream order.
type ShardQueues = Vec<Vec<(usize, Vec<Modification>)>>;

/// Splits the experiment's update streams into [`ShardQueues`].
fn shard_queues(
    exp: &ServeExperiment,
    part: &Partitioner,
    chunk: usize,
) -> Result<ShardQueues, EngineError> {
    let mut queues: ShardQueues = vec![Vec::new(); part.shards()];
    for (pos, stream) in [
        (exp.ps_pos, &exp.ps_stream),
        (exp.supp_pos, &exp.supp_stream),
    ] {
        for batch in stream.chunks(chunk) {
            for (s, sub) in part.split_batch(pos, batch.to_vec())? {
                queues[s].push((pos, sub));
            }
        }
    }
    Ok(queues)
}

/// Pops the next pre-split batch owned by shard `s`, if any.
fn take_batch(
    queues: &[Vec<(usize, Vec<Modification>)>],
    next: &mut [usize],
    s: usize,
) -> Option<(usize, Vec<Modification>)> {
    let item = queues[s].get(next[s]).cloned()?;
    next[s] += 1;
    Some(item)
}

/// Kills one shard of an N-shard wire-served deployment mid-stream,
/// asserts degraded-but-live serving, recovers the victim from its WAL
/// and rejoins it, then checks the merged result against direct
/// evaluation. All traffic flows through a real TCP client so the
/// typed `ShardUnavailable` rejection and the `degraded` read flag are
/// exercised exactly as a production client would see them.
pub fn run_shard_kill(
    exp: &ServeExperiment,
    shards: usize,
    seed: u64,
) -> Result<ShardKillReport, EngineError> {
    let net_err = |e: std::io::Error| EngineError::Maintenance {
        message: format!("shard-kill net setup: {e}"),
    };
    let (runtimes, part) = exp.sharded_runtimes("online", shards)?;
    let genesis = exp.partition_genesis(&part)?;
    let victim = (seed as usize) % shards;

    // Pre-split both update streams into per-shard batches so every
    // submit targets exactly one shard — phase accounting (who must
    // reject, who must accept) is then deterministic.
    let queues = shard_queues(exp, &part, 8)?;
    let victim_mods: usize = queues[victim].iter().map(|(_, b)| b.len()).sum();
    let warmup_mods: usize = queues[victim].iter().take(2).map(|(_, b)| b.len()).sum();
    if victim_mods < warmup_mods + 16 {
        return Err(EngineError::Maintenance {
            message: format!(
                "shard-kill needs more victim traffic ({victim_mods} mods); raise events"
            ),
        });
    }
    // The victim dies once it has durably logged about half its
    // traffic: safely past the warmup (so pre-kill assertions see a
    // healthy deployment) and safely before its queue runs dry (so the
    // kill always surfaces while we are still submitting). Its tick
    // interval is pushed out so idle ticks — which are WAL-logged for
    // schedule reproduction — cannot race the count.
    let kill_after = (victim_mods / 2).max(warmup_mods + 8) as u64;

    let mut wals = Vec::with_capacity(shards);
    let mut servers: Vec<Option<ServeServer>> = Vec::with_capacity(shards);
    for (i, mut rt) in runtimes.into_iter().enumerate() {
        let wal = MemWal::new();
        rt.attach_wal(WalWriter::create(Box::new(wal.clone()), 4)?);
        wals.push(wal);
        let cfg = if i == victim {
            ServerConfig {
                faults: FaultPlan {
                    kill_at_record: Some(kill_after),
                    ..FaultPlan::none()
                },
                tick_interval: Duration::from_secs(3600),
                ..ServerConfig::default()
            }
        } else {
            ServerConfig::default()
        };
        servers.push(Some(ServeServer::spawn(rt, cfg)));
    }
    let handles = servers
        .iter()
        .map(|s| s.as_ref().expect("just spawned").handle())
        .collect();
    let router = ShardRouter::new(handles, part, exp.view_def(), exp.budget)?;
    let net = NetServer::bind_sharded("127.0.0.1:0", router.clone(), NetServerConfig::default())
        .map_err(net_err)?;
    // Fail fast on rejections: the cycle counts them itself.
    let client = Client::new(
        net.local_addr(),
        ClientConfig {
            retries: 0,
            ..ClientConfig::default()
        },
    )
    .map_err(net_err)?;

    let mut report = ShardKillReport {
        shards,
        victim,
        victim_wal_records: 0,
        unavailable_rejections: 0,
        degraded_accepts: 0,
        merged_checksum: 0,
        direct_checksum: 0,
        failures: Vec::new(),
    };
    let mut next = vec![0usize; shards];

    // Phase 1 — warmup: a little traffic everywhere, then a fresh read
    // that must span the full key space.
    for _ in 0..2 {
        for s in 0..shards {
            if let Some((pos, batch)) = take_batch(&queues, &mut next, s) {
                if let Err(e) = client.submit(pos as u32, batch) {
                    report
                        .failures
                        .push(format!("warmup submit to shard {s}: {e}"));
                }
            }
        }
    }
    match client.read(true, false) {
        Ok(r) if r.degraded => report
            .failures
            .push("pre-kill fresh read reported degraded".into()),
        Ok(_) => {}
        Err(e) => report.failures.push(format!("pre-kill fresh read: {e}")),
    }

    // Phase 2 — pump the victim until the kill fault surfaces as a
    // typed ShardUnavailable rejection. Short sleeps let the victim's
    // scheduler drain (and hit its record count) between submits.
    let mut died = false;
    while let Some((pos, batch)) = take_batch(&queues, &mut next, victim) {
        match client.submit(pos as u32, batch) {
            Ok(_) => std::thread::sleep(Duration::from_millis(1)),
            Err(e) if e.is_shard_unavailable() => {
                report.unavailable_rejections += 1;
                died = true;
                break;
            }
            Err(e) => {
                report
                    .failures
                    .push(format!("unexpected error while killing shard: {e}"));
                break;
            }
        }
    }
    if !died {
        report
            .failures
            .push("kill fault never surfaced as ShardUnavailable".into());
    }

    // Phase 3 — degraded serving: victim-bound submits keep rejecting,
    // live-shard submits keep landing, and both read paths flag the
    // partial key space.
    if let Some((pos, batch)) = take_batch(&queues, &mut next, victim) {
        match client.submit(pos as u32, batch) {
            Err(e) if e.is_shard_unavailable() => report.unavailable_rejections += 1,
            Err(e) => report
                .failures
                .push(format!("dead-shard submit failed oddly: {e}")),
            Ok(_) => report
                .failures
                .push("dead-shard submit was accepted".into()),
        }
    }
    for s in (0..shards).filter(|&s| s != victim) {
        if let Some((pos, batch)) = take_batch(&queues, &mut next, s) {
            match client.submit(pos as u32, batch) {
                Ok(_) => report.degraded_accepts += 1,
                Err(e) => report
                    .failures
                    .push(format!("live shard {s} rejected during outage: {e}")),
            }
        }
    }
    for fresh in [false, true] {
        match client.read(fresh, false) {
            Ok(r) if !r.degraded => report.failures.push(format!(
                "{} read not flagged degraded during outage",
                if fresh { "fresh" } else { "stale" }
            )),
            Ok(_) => {}
            Err(e) => report
                .failures
                .push(format!("read during outage failed: {e}")),
        }
    }

    // Phase 4 — recover the victim from its durable WAL prefix onto its
    // genesis partition, rejoin it, and verify the degradation clears.
    let dead_rt = servers[victim]
        .take()
        .expect("victim server present")
        .shutdown();
    report.victim_wal_records = dead_rt.wal_records();
    let wal_bytes = wals[victim].bytes();
    match read_wal(&wal_bytes) {
        Ok(o) => {
            if (o.records.len() as u64) < kill_after {
                report.failures.push(format!(
                    "victim WAL has {} records, expected ≥ {kill_after}",
                    o.records.len()
                ));
            }
        }
        Err(e) => report.failures.push(format!("victim WAL unreadable: {e}")),
    }
    let recovered = MaintenanceRuntime::recover(
        exp.shard_config(shards),
        exp.policy("online").expect("known policy"),
        &wal_bytes,
        None,
        genesis[victim].clone(),
        &|db| exp.make_view(db),
    )?;
    let reborn = ServeServer::spawn(recovered, ServerConfig::default());
    router.rejoin(victim, reborn.handle());
    servers[victim] = Some(reborn);
    match client.read(true, false) {
        Ok(r) if r.degraded => report
            .failures
            .push("fresh read still degraded after rejoin".into()),
        Ok(r) if r.violated => report
            .failures
            .push("post-rejoin fresh read violated budget".into()),
        Ok(_) => {}
        Err(e) => report.failures.push(format!("post-rejoin fresh read: {e}")),
    }

    // Phase 5 — the rejoined deployment ingests everywhere again; the
    // final merged fresh read must match direct evaluation.
    for _ in 0..2 {
        for s in 0..shards {
            if let Some((pos, batch)) = take_batch(&queues, &mut next, s) {
                if let Err(e) = client.submit(pos as u32, batch) {
                    report
                        .failures
                        .push(format!("post-rejoin submit to shard {s}: {e}"));
                }
            }
        }
    }
    match client.read(true, false) {
        Ok(r) => {
            report.merged_checksum = r.checksum;
            if r.degraded || r.violated {
                report
                    .failures
                    .push("final fresh read degraded or over budget".into());
            }
        }
        Err(e) => report.failures.push(format!("final fresh read: {e}")),
    }

    drop(client);
    net.shutdown();
    drop(router);
    let merge = MergeSpec::from_def(exp.view_def())?;
    let mut direct_parts: Vec<Vec<WRow>> = Vec::with_capacity(shards);
    for server in servers.into_iter().flatten() {
        let rt = server.shutdown();
        let db = rt.database().ok_or_else(|| EngineError::Maintenance {
            message: "shard-kill needs engine-backed shards".into(),
        })?;
        direct_parts.push(exp.make_view(db)?.result());
    }
    report.direct_checksum = MergeSpec::checksum(&merge.merge(&direct_parts)?);
    if report.merged_checksum != report.direct_checksum {
        report.failures.push(format!(
            "merged checksum {} != direct evaluation {}",
            report.merged_checksum, report.direct_checksum
        ));
    }
    Ok(report)
}

// ---------------------------------------------------------------------
// Kill-the-leader failover chaos (`repro chaos --shards N --replicas`)
// ---------------------------------------------------------------------

/// Outcome of one kill-the-leader failover cycle (see
/// [`run_leader_kill`]).
///
/// The cycle proves the replication story end to end: every shard has a
/// live follower tailing the leader's WAL over the wire; the victim
/// leader is killed at a sampled WAL boundary; the failover monitor
/// detects the death and promotes the follower (seal the leader's
/// durable log, drain its tail into the follower, swap the slot, bump
/// the fencing epoch); and four assertions hold — zero acknowledged
/// writes lost, a stale-epoch submit is fenced and never applied, the
/// post-failover merged fresh read is checksum-identical to direct
/// evaluation over the final shard databases, and sampled follower
/// staleness never exceeds `C` (in modifications) plus the replication
/// lag.
#[derive(Debug)]
pub struct LeaderKillReport {
    /// Shard count of the cycle.
    pub shards: usize,
    /// Index of the killed leader's shard.
    pub victim: usize,
    /// Whether client and victim-replica traffic ran through seeded
    /// fault proxies (drop/delay/duplicate/corrupt/partition).
    pub proxied: bool,
    /// Modifications acknowledged under durable acks (survivors).
    pub acked_mods: u64,
    /// Wire-level `StaleEpoch` rejections observed.
    pub stale_epoch_rejections: u64,
    /// The victim shard's epoch after promotion (2 on first failover).
    pub promoted_epoch: u64,
    /// Worst replication lag sampled across all followers.
    pub replica_lag_seen: u64,
    /// Samples where a follower's staleness exceeded its bound.
    pub staleness_violations: u64,
    /// Circuit-breaker trips the client recorded (proxied runs).
    pub breaker_trips: u64,
    /// Merged fresh-read checksum after failover.
    pub merged_checksum: u64,
    /// Checksum of direct evaluation over the final shard databases.
    pub direct_checksum: u64,
    /// Divergences; empty on success.
    pub failures: Vec<String>,
}

impl LeaderKillReport {
    /// True when every assertion held.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Largest modification count whose flush cost fits the budget on the
/// cheaper of the two updated tables — the budget `C` expressed in
/// modifications, for the staleness bound.
fn budget_in_mods(exp: &ServeExperiment) -> u64 {
    exp.costs[exp.ps_pos]
        .max_batch(exp.budget)
        .max(exp.costs[exp.supp_pos].max_batch(exp.budget))
}

/// Samples every attached follower's status into the report: worst lag,
/// and staleness-bound violations. The bound is `C` in modifications
/// plus the replication lag (each lagging WAL record carries at most
/// one modification) plus a small slack for arrivals in flight between
/// two scheduler ticks. The victim's follower is exempt from the
/// staleness check: the kill harness freezes its leader's tick schedule
/// (so the record count at the kill boundary is deterministic), which
/// makes its staleness unbounded by design.
fn sample_replication(
    statuses: &[ReplicaStatus],
    victim: usize,
    c_mods: u64,
    report: &mut LeaderKillReport,
) {
    const INFLIGHT_SLACK: u64 = 128;
    for (i, st) in statuses.iter().enumerate() {
        report.replica_lag_seen = report.replica_lag_seen.max(st.lag());
        if i == victim || !st.healthy() {
            continue;
        }
        if st.staleness() > c_mods + st.lag() + INFLIGHT_SLACK {
            report.staleness_violations += 1;
        }
    }
}

/// Checks that `acked` (table position + modification, in ack order) is
/// a subsequence of the `Dml` records in `log` — i.e. every
/// acknowledged write survived, in order.
pub fn acked_writes_survive(acked: &[(usize, Modification)], log: &[WalRecord]) -> bool {
    let mut dml = log.iter().filter_map(|r| match r {
        WalRecord::Dml { table, m } => Some((*table, m)),
        _ => None,
    });
    'outer: for (t, m) in acked {
        for (lt, lm) in dml.by_ref() {
            if lt == *t && lm == m {
                continue 'outer;
            }
        }
        return false;
    }
    true
}

/// `Dml` records for table position `table` (every table when `None`)
/// in a log.
pub fn dml_records(log: &[WalRecord], table: Option<usize>) -> u64 {
    let ours = |r: &&WalRecord| match r {
        WalRecord::Dml { table: t, .. } => table.is_none_or(|x| x == *t),
        _ => false,
    };
    log.iter().filter(ours).count() as u64
}

/// Shard `shard`'s failover state as seen over the wire: `Some(new
/// epoch)` once the cluster reports a completed promotion of it.
fn observed_failover(client: &Client, shard: usize) -> Option<u64> {
    let m = client.metrics_detailed(true).ok()?;
    if m.failovers == 0 {
        return None;
    }
    let rows = m.per_shard?;
    let row = rows.iter().find(|r| r.shard == shard as u32)?;
    (row.epoch > 1).then_some(row.epoch)
}

/// `Dml` records for `table` (every table when `None`) in shard
/// `shard`'s authoritative log, read over the wire with
/// `ReplicaSubscribe` exactly as a follower reads it: the leader's own
/// log (sealed, if the leader died), or the promoted follower's once
/// the router has swapped it in.
fn logged_dml(client: &Client, shard: usize, table: Option<usize>) -> Result<u64, String> {
    let (mut from, mut dml) = (0u64, 0u64);
    loop {
        let request = Request::ReplicaSubscribe {
            shard: shard as u32,
            from_record: from,
        };
        match client.request(request).map_err(|e| e.to_string())? {
            Response::WalSegment {
                bytes,
                leader_records,
                ..
            } => {
                let records = decode_segment(&bytes).map_err(|e| e.to_string())?;
                dml += dml_records(&records, table);
                from += records.len() as u64;
                if records.is_empty() || from >= leader_records {
                    return Ok(dml);
                }
            }
            other => return Err(format!("expected a WAL segment, got {other:?}")),
        }
    }
}

/// The highest shard epoch the cluster reports over the wire. Stamping
/// it on a submit passes every target shard's fence: a shard rejects
/// only epochs older than its own.
fn max_epoch(client: &Client) -> Option<u64> {
    let rows = client.metrics_detailed(true).ok()?.per_shard?;
    rows.iter().map(|r| r.epoch).max()
}

/// A batch split by owning shard: `(shard, that shard's part)`.
type ShardParts = Vec<(usize, Vec<Modification>)>;

/// The one writer of an update stream over a sharded deployment — one
/// table's stream (`table = Some(pos)`), or everything (`None`) — that
/// submits under durable acks (`SubmitOk` = applied and WAL-logged on
/// every target shard) stamped with the newest epoch it has seen.
///
/// Being the stream's only writer, what of it a shard applied is
/// exactly the stream's `Dml` records in that shard's log, in order.
/// That resolves an ambiguous submit — an ack lost with a dying leader
/// or in transit, with any prefix of each shard's part possibly
/// logged: the writer counts each target shard's log over the wire and
/// resubmits only the suffix that is not there, never skipping a batch
/// and never blindly resending one. (A resent modification that had
/// landed after all is rejected as stale by the engine and changes
/// nothing, so a resolution that races a still-queued original
/// converges on the next round.) Tables must be partitioned: a
/// replicated table's broadcast modifications have no single owning
/// shard to resolve against.
pub struct StreamWriter {
    part: Partitioner,
    table: Option<usize>,
    /// The fencing epoch stamped on submits.
    pub epoch: u64,
    /// Per shard: modifications of the stream in that shard's log.
    pub applied: Vec<u64>,
    /// Per shard: those modifications in log order — acknowledged, or
    /// found in the log when an ambiguous submit was resolved.
    pub landed: Vec<Vec<(usize, Modification)>>,
    /// `StaleEpoch` rejections observed.
    pub stale_epochs: u64,
    /// Ambiguous submits resolved against the shards' logs.
    pub resolved: u64,
    /// The batch in flight: table position and, per target shard, the
    /// part not yet in that shard's log.
    pending: Option<(usize, ShardParts)>,
    /// Whether the pending batch's last submit was ambiguous.
    unresolved: bool,
}

impl StreamWriter {
    /// A writer at epoch 1 with nothing applied, routing with `part`.
    pub fn new(part: &Partitioner, table: Option<usize>) -> Self {
        StreamWriter {
            part: part.clone(),
            table,
            epoch: 1,
            applied: vec![0; part.shards()],
            landed: vec![Vec::new(); part.shards()],
            stale_epochs: 0,
            resolved: 0,
            pending: None,
            unresolved: false,
        }
    }

    /// Queues `batch` (for table position `pos`) behind any unfinished
    /// one and drives both into the logs; see [`StreamWriter::drive`].
    pub fn submit(
        &mut self,
        client: &Client,
        pos: usize,
        batch: Vec<Modification>,
        deadline: Duration,
    ) -> bool {
        if !self.drive(client, deadline) {
            return false;
        }
        let parts = self
            .part
            .split_batch(pos, batch)
            .expect("partitioned tables");
        self.pending = Some((pos, parts));
        self.drive(client, deadline)
    }

    /// Drives the pending batch until all of it is in its shards' logs.
    /// Returns false if `deadline` passed first; the rest stays pending
    /// for the next call (while a leader is dying that is the expected
    /// signal, and the batch must still land after the failover).
    pub fn drive(&mut self, client: &Client, deadline: Duration) -> bool {
        let due = Instant::now() + deadline;
        while let Some((pos, mut parts)) = self.pending.take() {
            parts.retain(|(_, mods)| !mods.is_empty());
            if parts.is_empty() {
                self.unresolved = false;
                continue;
            }
            if Instant::now() >= due {
                self.pending = Some((pos, parts));
                return false;
            }
            if self.unresolved {
                parts = self.resolve(client, pos, parts);
                self.pending = Some((pos, parts));
                continue;
            }
            let mods = parts.iter().flat_map(|(_, m)| m.iter().cloned()).collect();
            match client.submit_fenced(self.epoch, pos as u32, mods) {
                Ok(_) => {
                    for (s, mods) in parts {
                        self.land(s, pos, mods);
                    }
                    continue;
                }
                Err(e) if e.is_stale_epoch() => {
                    self.stale_epochs += 1;
                    self.epoch = self.epoch.max(max_epoch(client).unwrap_or(0));
                }
                // Rejected before any side effect: resend as is.
                Err(e) if e.is_overload() || e.is_shard_unavailable() => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(_) => {
                    self.unresolved = true;
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
            self.pending = Some((pos, parts));
        }
        true
    }

    /// Lands what each target shard's log already holds of `parts` and
    /// returns the rest. If any log cannot be read, nothing is resolved
    /// (and nothing will be resent) until the next round.
    fn resolve(&mut self, client: &Client, pos: usize, parts: ShardParts) -> ShardParts {
        let logged: Result<Vec<u64>, String> = parts
            .iter()
            .map(|(s, _)| logged_dml(client, *s, self.table))
            .collect();
        let Ok(logged) = logged else {
            std::thread::sleep(Duration::from_millis(10));
            return parts;
        };
        self.resolved += 1;
        self.unresolved = false;
        parts
            .into_iter()
            .zip(logged)
            .map(|((s, mut mods), n)| {
                let here = (n.saturating_sub(self.applied[s]) as usize).min(mods.len());
                let rest = mods.split_off(here);
                self.land(s, pos, mods);
                (s, rest)
            })
            .collect()
    }

    fn land(&mut self, shard: usize, pos: usize, mods: Vec<Modification>) {
        self.applied[shard] += mods.len() as u64;
        self.landed[shard].extend(mods.into_iter().map(|m| (pos, m)));
    }
}

/// A fresh merged read with transport-fault tolerance.
fn read_fresh_tolerant(
    client: &Client,
    deadline: Duration,
) -> Result<aivm_net::frame::WireReadResult, String> {
    let due = Instant::now() + deadline;
    let mut last = String::from("no attempt");
    while Instant::now() < due {
        match client.read(true, false) {
            Ok(r) => return Ok(r),
            Err(e) => {
                last = e.to_string();
                // A failed fresh read may still have cost the scheduler
                // a forced flush; don't pile retries onto its queue.
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
    Err(last)
}

/// A replicated N-shard deployment of the paper view, served over the
/// wire with durable acks: one leader per shard logging to an
/// in-memory WAL the router tails, and — once
/// [`ReplicatedCluster::attach_followers`] runs — one follower per
/// shard tailing its leader, with a failover monitor whose promoters
/// seal a dead leader's log, drain its tail into the follower and swap
/// it in.
pub struct ReplicatedCluster {
    router: ShardRouter,
    net: NetServer,
    leaders: Vec<Option<ServeServer>>,
    leader_wals: Vec<MemWal>,
    genesis: Vec<Database>,
    followers: Option<Followers>,
}

/// The follower half of a [`ReplicatedCluster`].
struct Followers {
    /// One tailing replica per shard, in a slot its promoter takes.
    holders: Vec<Arc<Mutex<Option<Replica>>>>,
    wals: Vec<MemWal>,
    statuses: Vec<ReplicaStatus>,
    /// Where a promotion parks the shard's new leader.
    promoted: Vec<Arc<Mutex<Option<ServeServer>>>>,
    failures: Arc<Mutex<Vec<String>>>,
    last_epoch: Arc<AtomicU64>,
    monitor: FailoverMonitor,
}

/// One shard at the end of a [`ReplicatedCluster`]'s life.
pub struct FinalShard {
    /// The shard's authoritative log: its promoted follower's after a
    /// failover, its leader's otherwise.
    pub log: Vec<WalRecord>,
    /// The runtime serving the shard at the end.
    pub runtime: MaintenanceRuntime,
}

impl ReplicatedCluster {
    /// Stands up the leaders, the router and the durable-ack server.
    /// Shard `victim`'s scheduler dies once it has logged `kill_after`
    /// WAL records; its idle-tick interval is pushed out so idle ticks
    /// (which are logged) cannot race the count.
    pub fn start(
        exp: &ServeExperiment,
        shards: usize,
        victim: usize,
        kill_after: u64,
    ) -> Result<Self, EngineError> {
        let (runtimes, part) = exp.sharded_runtimes("online", shards)?;
        let genesis = exp.partition_genesis(&part)?;
        let mut leader_wals = Vec::with_capacity(shards);
        let mut leaders = Vec::with_capacity(shards);
        for (i, mut rt) in runtimes.into_iter().enumerate() {
            let wal = MemWal::new();
            rt.attach_wal(WalWriter::create(Box::new(wal.clone()), 4)?);
            leader_wals.push(wal);
            let cfg = if i == victim {
                ServerConfig {
                    faults: FaultPlan {
                        kill_at_record: Some(kill_after),
                        ..FaultPlan::none()
                    },
                    tick_interval: Duration::from_secs(3600),
                    ..ServerConfig::default()
                }
            } else {
                ServerConfig::default()
            };
            leaders.push(Some(ServeServer::spawn(rt, cfg)));
        }
        let handles = leaders
            .iter()
            .map(|s| s.as_ref().expect("just spawned").handle())
            .collect();
        let router = ShardRouter::new(handles, part, exp.view_def(), exp.budget)?;
        for (i, wal) in leader_wals.iter().enumerate() {
            router.attach_wal_tail(i, WalTail::new(Box::new(wal.clone())));
        }
        let net_cfg = NetServerConfig {
            durable_acks: true,
            ..NetServerConfig::default()
        };
        let net = NetServer::bind_sharded("127.0.0.1:0", router.clone(), net_cfg)
            .map_err(|e| EngineError::io("replicated cluster bind", e))?;
        Ok(ReplicatedCluster {
            router,
            net,
            leaders,
            leader_wals,
            genesis,
            followers: None,
        })
    }

    /// The server's address.
    pub fn addr(&self) -> SocketAddr {
        self.net.local_addr()
    }

    /// Spawns one follower per shard — a standby runtime on the shard's
    /// genesis partition, re-logging into its own WAL (so it can be
    /// tailed in turn once promoted), tailing its leader through
    /// `replica_addrs[i]` — and arms the failover monitor with one
    /// promoter per shard.
    pub fn attach_followers(
        &mut self,
        exp: &ServeExperiment,
        replica_addrs: &[SocketAddr],
        replica: ReplicaConfig,
        failover: FailoverConfig,
    ) -> Result<(), EngineError> {
        let shards = self.router.shards();
        let mut holders = Vec::with_capacity(shards);
        let mut wals = Vec::with_capacity(shards);
        let mut statuses = Vec::with_capacity(shards);
        for (i, db) in self.genesis.iter().enumerate() {
            let view = exp.make_view(db)?;
            let policy = exp.policy("online").expect("known policy");
            let mut standby =
                MaintenanceRuntime::engine(exp.shard_config(shards), policy, db.clone(), view)?;
            let wal = MemWal::new();
            standby.attach_wal(WalWriter::create(Box::new(wal.clone()), 4)?);
            let status = ReplicaStatus::new();
            let rep = Replica::spawn(
                replica_addrs[i],
                i as u32,
                standby,
                status.clone(),
                replica.clone(),
            )
            .map_err(|e| EngineError::io("follower setup", e))?;
            self.router.attach_replica(i, status.clone());
            holders.push(Arc::new(Mutex::new(Some(rep))));
            wals.push(wal);
            statuses.push(status);
        }
        let promoted: Vec<Arc<Mutex<Option<ServeServer>>>> =
            (0..shards).map(|_| Arc::new(Mutex::new(None))).collect();
        let failures = Arc::new(Mutex::new(Vec::new()));
        let last_epoch = Arc::new(AtomicU64::new(0));
        let promoters = (0..shards)
            .map(|i| {
                let holder = Arc::clone(&holders[i]);
                let leader_wal = self.leader_wals[i].clone();
                let wal = wals[i].clone();
                let slot = Arc::clone(&promoted[i]);
                let fails = Arc::clone(&failures);
                let last_epoch = Arc::clone(&last_epoch);
                let promoter: Promoter = Box::new(move |router: &ShardRouter, idx: usize| {
                    let fail =
                        |what: String| fails.lock().unwrap().push(format!("shard {idx}: {what}"));
                    let Some(replica) = holder.lock().unwrap().take() else {
                        return fail("no replica to promote".into());
                    };
                    let status = replica.status();
                    let mut rt = replica.stop();
                    // The dead leader's log is sealed (nothing appends
                    // to a dead or fenced scheduler's WAL); its durable,
                    // checksum-valid prefix is the authoritative record
                    // of every acknowledged write. Drain what the
                    // follower has not applied yet.
                    match read_wal(&leader_wal.bytes()) {
                        Ok(o) => {
                            for rec in o.records.iter().skip(status.applied() as usize) {
                                if let Err(e) = rt.apply_record(rec) {
                                    fail(format!("drain apply failed: {e}"));
                                    break;
                                }
                            }
                        }
                        Err(e) => fail(format!("sealed log unreadable: {e}")),
                    }
                    let server = ServeServer::spawn(rt, ServerConfig::default());
                    let tail = WalTail::new(Box::new(wal.clone()));
                    let epoch = router.promote(idx, server.handle(), Some(tail));
                    last_epoch.store(epoch, Ordering::SeqCst);
                    *slot.lock().unwrap() = Some(server);
                });
                Some(promoter)
            })
            .collect();
        let monitor = FailoverMonitor::spawn(self.router.clone(), failover, promoters);
        self.followers = Some(Followers {
            holders,
            wals,
            statuses,
            promoted,
            failures,
            last_epoch,
            monitor,
        });
        Ok(())
    }

    /// The followers' replication status, by shard (empty before
    /// [`ReplicatedCluster::attach_followers`]).
    pub fn statuses(&self) -> &[ReplicaStatus] {
        self.followers.as_ref().map_or(&[], |f| &f.statuses)
    }

    /// The epoch the latest promotion installed (0 before any).
    pub fn promoted_epoch(&self) -> u64 {
        self.followers
            .as_ref()
            .map_or(0, |f| f.last_epoch.load(Ordering::SeqCst))
    }

    /// Stops the monitor, every follower and the server, and returns
    /// each shard's authoritative log and final runtime, plus every
    /// promotion failure.
    pub fn finish(self) -> Result<(Vec<FinalShard>, Vec<String>), EngineError> {
        let ReplicatedCluster {
            router,
            net,
            leaders,
            leader_wals,
            followers,
            ..
        } = self;
        let mut failures = Vec::new();
        let mut promoted = Vec::new();
        let mut follower_wals = Vec::new();
        if let Some(f) = followers {
            f.monitor.stop();
            for holder in &f.holders {
                if let Some(rep) = holder.lock().unwrap().take() {
                    let _ = rep.stop();
                }
            }
            failures = std::mem::take(&mut *f.failures.lock().unwrap());
            promoted = f.promoted;
            follower_wals = f.wals;
        }
        net.shutdown();
        drop(router);
        let mut out = Vec::with_capacity(leaders.len());
        for (i, leader) in leaders.into_iter().enumerate() {
            let successor = promoted.get(i).and_then(|slot| slot.lock().unwrap().take());
            let (server, wal) = match successor {
                Some(server) => {
                    // Reap the deposed leader's dead scheduler.
                    if let Some(dead) = leader {
                        dead.shutdown();
                    }
                    (server, &follower_wals[i])
                }
                None => (leader.expect("a leader per shard"), &leader_wals[i]),
            };
            out.push(FinalShard {
                log: read_wal(&wal.bytes())?.records,
                runtime: server.shutdown(),
            });
        }
        Ok((out, failures))
    }
}

/// Direct evaluation of the view definition over every final shard
/// database, merged the way the router merges reads.
pub fn direct_merged_checksum(
    exp: &ServeExperiment,
    shards: &[FinalShard],
) -> Result<u64, EngineError> {
    let merge = MergeSpec::from_def(exp.view_def())?;
    let mut parts: Vec<Vec<WRow>> = Vec::with_capacity(shards.len());
    for s in shards {
        let db = s
            .runtime
            .database()
            .ok_or_else(|| EngineError::Maintenance {
                message: "replicated shards are engine-backed".into(),
            })?;
        parts.push(exp.make_view(db)?.result());
    }
    Ok(MergeSpec::checksum(&merge.merge(&parts)?))
}

/// Kills one shard's leader at a sampled WAL boundary in a fully
/// replicated N-shard deployment and drives automatic failover, over
/// the real wire protocol (optionally through deterministic fault
/// proxies). See [`LeaderKillReport`] for what is asserted.
pub fn run_leader_kill(
    exp: &ServeExperiment,
    shards: usize,
    seed: u64,
    proxied: bool,
) -> Result<LeaderKillReport, EngineError> {
    let net_err = |e: std::io::Error| EngineError::io("leader-kill net setup", e);
    let victim = (seed as usize) % shards;
    let c_mods = budget_in_mods(exp);
    // Pre-split the update streams per shard, as in `run_shard_kill`,
    // so routing (and therefore the kill boundary) is deterministic.
    let part = exp.partitioner(shards)?;
    let queues = shard_queues(exp, &part, 8)?;
    let victim_mods: usize = queues[victim].iter().map(|(_, b)| b.len()).sum();
    let warmup_mods: usize = queues[victim].iter().take(2).map(|(_, b)| b.len()).sum();
    if victim_mods < warmup_mods + 16 {
        return Err(EngineError::Maintenance {
            message: format!(
                "leader-kill needs more victim traffic ({victim_mods} mods); raise events"
            ),
        });
    }
    // The kill fires at a seed-sampled WAL boundary strictly between
    // the warmup and the victim queue running dry, so death always
    // surfaces while traffic is still flowing.
    let lo = (warmup_mods + 8) as u64;
    let hi = (victim_mods - 4) as u64;
    let kill_after =
        lo + SmallRng::seed_from_u64(seed ^ 0xb01d).gen_range(0..hi.saturating_sub(lo).max(1));
    let mut cluster = ReplicatedCluster::start(exp, shards, victim, kill_after)?;
    let addr = cluster.addr();

    // Fault proxies (proxied runs): the client hop gets the lively
    // drop/delay/duplicate/corrupt schedule; the victim's replica hop
    // gets delay + drop + a one-way server→client partition, forcing
    // the follower through its resume path repeatedly.
    let proxies = if proxied {
        // Milder than `lively`: every fault kind still fires, but rare
        // enough that retry loops do not snowball on a 1-core box.
        let client_proxy = FaultProxy::spawn(
            addr,
            FaultPlanNet {
                seed,
                delay_ppm: 48,
                delay_max_ms: 2,
                duplicate_ppm: 4,
                corrupt_ppm: 4,
                drop_ppm: 2,
                partition_s2c_after: None,
            },
        )
        .map_err(net_err)?;
        let replica_proxy = FaultProxy::spawn(
            addr,
            FaultPlanNet {
                seed: seed ^ 0x9d2c,
                delay_ppm: 64,
                delay_max_ms: 2,
                duplicate_ppm: 8,
                corrupt_ppm: 8,
                drop_ppm: 4,
                partition_s2c_after: Some(256),
            },
        )
        .map_err(net_err)?;
        Some((client_proxy, replica_proxy))
    } else {
        None
    };
    let client_addr = proxies.as_ref().map_or(addr, |(c, _)| c.local_addr());
    let replica_addrs: Vec<SocketAddr> = (0..shards)
        .map(|i| match &proxies {
            Some((_, r)) if i == victim => r.local_addr(),
            _ => addr,
        })
        .collect();
    cluster.attach_followers(
        exp,
        &replica_addrs,
        ReplicaConfig {
            // Snappy recovery from the proxy's one-way partition.
            deadline: Duration::from_millis(250),
            ..ReplicaConfig::default()
        },
        FailoverConfig::default(),
    )?;

    let client = Client::new(
        client_addr,
        ClientConfig {
            retries: 0,
            // Generous per-request deadline: a fresh read's forced
            // flush over a proxy-churned backlog can run long in
            // unoptimized builds, and a server-side DeadlineExceeded
            // burns the whole window before the client can retry.
            deadline: Duration::from_secs(3),
            // Exercise the circuit breaker under injected faults; keep
            // the cooldown short so it never stalls the accounting
            // loops for long.
            breaker_threshold: if proxied { 6 } else { 0 },
            breaker_cooldown: Duration::from_millis(25),
            ..ClientConfig::default()
        },
    )
    .map_err(net_err)?;

    let mut report = LeaderKillReport {
        shards,
        victim,
        proxied,
        acked_mods: 0,
        stale_epoch_rejections: 0,
        promoted_epoch: 0,
        replica_lag_seen: 0,
        staleness_violations: 0,
        breaker_trips: 0,
        merged_checksum: 0,
        direct_checksum: 0,
        failures: Vec::new(),
    };
    let mut writer = StreamWriter::new(&part, None);
    let mut next = vec![0usize; shards];
    let long = Duration::from_secs(10);

    // Phase 1 — warmup: traffic everywhere, a clean fresh read, and
    // every follower healthy at least once.
    for _ in 0..2 {
        for s in 0..shards {
            if let Some((pos, batch)) = take_batch(&queues, &mut next, s) {
                if !writer.submit(&client, pos, batch, long) {
                    report
                        .failures
                        .push(format!("warmup submit to shard {s} never landed"));
                }
            }
        }
    }
    match read_fresh_tolerant(&client, Duration::from_secs(30)) {
        Ok(r) if r.degraded => report
            .failures
            .push("pre-kill fresh read reported degraded".into()),
        Ok(_) => {}
        Err(e) => report.failures.push(format!("pre-kill fresh read: {e}")),
    }
    let statuses = cluster.statuses().to_vec();
    {
        let due = Instant::now() + long;
        while statuses.iter().any(|s| !s.healthy()) && Instant::now() < due {
            std::thread::sleep(Duration::from_millis(5));
        }
        for (i, s) in statuses.iter().enumerate() {
            if !s.healthy() {
                report
                    .failures
                    .push(format!("shard {i}'s follower never became healthy"));
            }
        }
    }
    sample_replication(&statuses, victim, c_mods, &mut report);

    // Phase 2 — pump the victim toward its kill boundary. Death shows
    // up either as a batch that cannot land within the short deadline
    // (it stays pending in the writer and lands after the failover), or
    // — when the monitor promotes faster — as a StaleEpoch fence that
    // bumped the writer's epoch.
    let mut died = false;
    while let Some((pos, batch)) = take_batch(&queues, &mut next, victim) {
        let landed = writer.submit(&client, pos, batch, Duration::from_millis(400));
        sample_replication(&statuses, victim, c_mods, &mut report);
        if !landed || writer.epoch > 1 {
            died = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    if !died {
        report
            .failures
            .push("victim never died: its queue drained without a kill".into());
    }

    // Phase 3 — wait for the monitor to detect the death and the
    // promoter to install the follower; observed over the wire.
    let mut new_epoch = 0u64;
    {
        let due = Instant::now() + Duration::from_secs(20);
        while Instant::now() < due {
            if let Some(e) = observed_failover(&client, victim) {
                new_epoch = e;
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    if new_epoch == 0 {
        report
            .failures
            .push("failover never observed in wire metrics".into());
    } else {
        report.promoted_epoch = new_epoch;
        if cluster.promoted_epoch() != new_epoch {
            report.failures.push(format!(
                "wire epoch {new_epoch} != promoter epoch {}",
                cluster.promoted_epoch()
            ));
        }
    }
    // The batch the kill interrupted lands on the promoted leader
    // before anything after it in the stream.
    if !writer.drive(&client, long) {
        report
            .failures
            .push("the interrupted batch never landed after the failover".into());
    }

    // Phase 4 — fencing: a submit stamped with the pre-failover epoch
    // must be rejected with StaleEpoch before any side effect; the same
    // batch under the refreshed epoch must land.
    if let Some((pos, batch)) = take_batch(&queues, &mut next, victim) {
        let due = Instant::now() + long;
        let mut fenced = false;
        while Instant::now() < due {
            match client.submit_fenced(1, pos as u32, batch.clone()) {
                Err(e) if e.is_stale_epoch() => {
                    report.stale_epoch_rejections += 1;
                    fenced = true;
                    break;
                }
                Ok(_) => {
                    report
                        .failures
                        .push("stale-epoch submit was accepted after failover".into());
                    break;
                }
                // Transport damage from the proxy: try again.
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        }
        if !fenced && report.failures.is_empty() {
            report
                .failures
                .push("stale-epoch submit never drew a StaleEpoch rejection".into());
        }
        writer.epoch = writer.epoch.max(new_epoch).max(2);
        if !writer.submit(&client, pos, batch, long) {
            report
                .failures
                .push("refreshed-epoch submit to promoted leader never landed".into());
        }
    }

    // Phase 5 — the failed-over deployment serves everywhere again.
    for _ in 0..2 {
        for s in 0..shards {
            if let Some((pos, batch)) = take_batch(&queues, &mut next, s) {
                if !writer.submit(&client, pos, batch, long) {
                    report
                        .failures
                        .push(format!("post-failover submit to shard {s} never landed"));
                }
            }
        }
        sample_replication(&statuses, victim, c_mods, &mut report);
    }
    match read_fresh_tolerant(&client, Duration::from_secs(30)) {
        Ok(r) => {
            report.merged_checksum = r.checksum;
            if r.degraded {
                report
                    .failures
                    .push("post-failover fresh read still degraded".into());
            }
            if r.violated {
                report
                    .failures
                    .push("post-failover fresh read violated budget".into());
            }
        }
        Err(e) => report
            .failures
            .push(format!("post-failover fresh read: {e}")),
    }

    // Phase 6 — convergence: with traffic stopped and everything
    // flushed by the fresh read, every surviving follower must drain to
    // zero staleness (its leader's idle ticks keep the lag oscillating
    // near zero, so only staleness is required to hit exactly 0).
    {
        let survivors: Vec<usize> = (0..shards).filter(|&i| i != victim).collect();
        let due = Instant::now() + long;
        let mut drained = vec![false; shards];
        while Instant::now() < due && survivors.iter().any(|&i| !drained[i]) {
            for &i in &survivors {
                if statuses[i].healthy() && statuses[i].staleness() == 0 {
                    drained[i] = true;
                }
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        for &i in &survivors {
            if !drained[i] {
                report.failures.push(format!(
                    "shard {i}'s follower never drained (staleness {}, lag {})",
                    statuses[i].staleness(),
                    statuses[i].lag()
                ));
            }
        }
    }

    report.breaker_trips = client.retry_stats().breaker_trips;
    drop(client);
    if let Some((cp, rp)) = proxies {
        cp.shutdown();
        rp.shutdown();
    }
    let (finals, promotion_failures) = cluster.finish()?;
    report.failures.extend(promotion_failures);

    // Zero acked-write loss, exactly once: every landed modification is
    // a durable Dml record of its shard's final authoritative log, in
    // order, and nothing else is.
    report.stale_epoch_rejections += writer.stale_epochs;
    for (s, shard) in finals.iter().enumerate() {
        let landed = &writer.landed[s];
        report.acked_mods += landed.len() as u64;
        if !acked_writes_survive(landed, &shard.log) {
            report.failures.push(format!(
                "shard {s}: acked writes missing from the authoritative log \
                 ({} acked, {} records)",
                landed.len(),
                shard.log.len()
            ));
        }
        let logged = dml_records(&shard.log, None);
        if logged != writer.applied[s] {
            report.failures.push(format!(
                "shard {s}: {logged} Dml records logged for {} modifications submitted",
                writer.applied[s]
            ));
        }
    }

    // Merged == direct: evaluate the view definition from scratch over
    // every final shard database and compare checksums.
    report.direct_checksum = direct_merged_checksum(exp, &finals)?;
    if report.merged_checksum != report.direct_checksum {
        report.failures.push(format!(
            "merged checksum {} != direct evaluation {}",
            report.merged_checksum, report.direct_checksum
        ));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_suite_passes_on_a_small_run() {
        let exp = chaos_experiment(60, 2005).expect("build");
        let opts = ChaosOptions {
            seeds: 2,
            events: 60,
            checkpoint_every: 16,
            max_kills: 20,
        };
        let report = run_chaos(&exp, &opts).expect("chaos run");
        assert!(report.ok(), "divergences: {:#?}", report.failures);
        assert_eq!(report.seeds.len(), 2);
        for s in &report.seeds {
            assert!(s.ok);
            assert!(s.crash_cycles > 0);
            assert!(s.wal_records > 0);
        }
    }

    #[test]
    fn kill_one_shard_recovers_and_matches_direct_eval() {
        let exp = chaos_experiment(240, 2005).expect("build");
        let report = run_shard_kill(&exp, 3, 1).expect("cycle runs");
        assert!(report.ok(), "failures: {:#?}", report.failures);
        assert!(report.unavailable_rejections >= 1, "no rejection observed");
        assert!(report.degraded_accepts >= 1, "live shards never accepted");
        assert!(report.victim_wal_records >= 1);
        assert_eq!(report.merged_checksum, report.direct_checksum);
    }

    #[test]
    fn leader_failover_direct_loses_no_acked_write() {
        let exp = chaos_experiment(240, 2005).expect("build");
        let report = run_leader_kill(&exp, 2, 1, false).expect("cycle runs");
        assert!(report.ok(), "failures: {:#?}", report.failures);
        assert!(report.acked_mods > 0, "nothing was acknowledged");
        assert!(report.stale_epoch_rejections >= 1, "fence never fired");
        assert_eq!(report.promoted_epoch, 2);
        assert_eq!(report.staleness_violations, 0);
        assert_eq!(report.merged_checksum, report.direct_checksum);
    }

    #[test]
    fn leader_failover_through_fault_proxy() {
        let exp = chaos_experiment(160, 2005).expect("build");
        let report = run_leader_kill(&exp, 2, 2, true).expect("cycle runs");
        assert!(report.ok(), "failures: {:#?}", report.failures);
        assert!(report.acked_mods > 0, "nothing was acknowledged");
        assert!(report.stale_epoch_rejections >= 1, "fence never fired");
        assert_eq!(report.staleness_violations, 0);
        assert_eq!(report.merged_checksum, report.direct_checksum);
    }

    #[test]
    fn scripts_are_deterministic_per_seed() {
        let exp = chaos_experiment(40, 2005).expect("build");
        let a = script(&exp, 7, 40);
        let b = script(&exp, 7, 40);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            let same = match (x, y) {
                (Op::Dml(p, m), Op::Dml(q, n)) => p == q && m == n,
                (Op::Tick, Op::Tick) | (Op::FreshRead, Op::FreshRead) => true,
                _ => false,
            };
            assert!(same);
        }
    }
}
