//! The two `replay-*` workloads: the bare `MaintenanceRuntime` driven
//! synchronously by one thread. No wire, no queue, no WAL — the
//! single-threaded baseline of the same job, where `aivm-engine`
//! propagation does nearly all the work.
//!
//! Work-bounded, not time-bounded: a run replays a fixed number of
//! steps derived from `--seconds`, so flush count, total model cost and
//! final checksum repeat exactly for a given seed.

use crate::inputs::{Inputs, BATCH};
use crate::proc::{read_process, ProcReading};
use crate::span::{Tracer, NO_SPAN};
use crate::stats::Samples;
use aivm_engine::{EngineError, MaintenanceStats, Modification};
use aivm_serve::{MaintenanceRuntime, MetricsSnapshot, ReadMode};
use std::time::{Duration, Instant};

/// Every `FRESH_EVERY`-th step ends in `read(Fresh)` instead of
/// `tick()`: often enough that a 15 s run holds the 1 000 Fresh reads a
/// p99 needs.
pub const FRESH_EVERY: usize = 6;

/// Steps replayed per second of `--seconds`. Fixed on the seed so that
/// a run of `s` seconds takes about `s` seconds there (the seed
/// replays ≈ 400 steps/s, 51 000 events/s, on `replay-balanced`); a
/// faster engine finishes the same work sooner.
pub const STEPS_PER_SECOND: usize = 400;

/// Steps of a run, a whole number of fresh-read periods.
pub fn steps_for(seconds: u64) -> usize {
    (seconds as usize * STEPS_PER_SECOND).next_multiple_of(FRESH_EVERY)
}

/// Steps per tracing on/off slice of a traced replay.
const SLICE_STEPS: usize = 40;
const SLICE_EVENTS: u64 = (SLICE_STEPS * 2 * BATCH) as u64;

/// What one replay measured.
pub struct ReplayOutcome {
    pub events: u64,
    pub wall: Duration,
    /// One sample per 64-modification ingest loop.
    pub submit_ack: Samples,
    pub stale: Samples,
    pub fresh: Samples,
    pub violations: u64,
    pub proc_start: ProcReading,
    pub proc_end: ProcReading,
    /// Wall nanoseconds of each [`SLICE_STEPS`]-step slice; even slices
    /// are the traced ones of a traced run.
    pub slice_ns: Vec<u64>,
    pub metrics: MetricsSnapshot,
    pub stats: MaintenanceStats,
    pub final_checksum: u64,
    pub runtime: MaintenanceRuntime,
}

/// Builds the runtime the replay drives.
pub fn make_runtime(inputs: &Inputs, heavy_light: bool) -> Result<MaintenanceRuntime, EngineError> {
    let db = inputs.data.db.clone();
    let view = inputs.make_view(&db, heavy_light)?;
    MaintenanceRuntime::engine(inputs.serve_config(), inputs.policy(), db, view)
}

/// Replays `steps` steps: ingest [`BATCH`] PartSupp and [`BATCH`]
/// Supplier updates, one stale read, then `tick()` — or, every
/// [`FRESH_EVERY`]-th step, `read(Fresh)`.
pub fn run(
    mut rt: MaintenanceRuntime,
    ps: Vec<Modification>,
    supp: Vec<Modification>,
    ps_pos: usize,
    supp_pos: usize,
    steps: usize,
    tracer: &mut Tracer,
) -> Result<ReplayOutcome, EngineError> {
    assert!(ps.len() >= steps * BATCH && supp.len() >= steps * BATCH);
    let mut submit_ack = Samples::with_capacity(2 * steps);
    let mut stale = Samples::with_capacity(steps);
    let mut fresh = Samples::with_capacity(steps / FRESH_EVERY + 1);
    let mut violations = 0u64;
    let mut slice_ns = Vec::with_capacity(steps / SLICE_STEPS + 1);
    let (mut ps, mut supp) = (ps.into_iter(), supp.into_iter());

    let proc_start = read_process();
    let started = Instant::now();
    let mut slice_started = started;
    for step in 0..steps {
        if step % SLICE_STEPS == 0 {
            let now = Instant::now();
            if step > 0 {
                slice_ns.push(now.duration_since(slice_started).as_nanos() as u64);
            }
            slice_started = now;
            tracer.set_on((step / SLICE_STEPS).is_multiple_of(2));
        }
        let op = step as u64;
        let root = tracer.begin("step", NO_SPAN, op);
        for (pos, stream, name) in [
            (ps_pos, &mut ps, "ingest_partsupp"),
            (supp_pos, &mut supp, "ingest_supplier"),
        ] {
            let span = tracer.begin(name, root, op);
            let t0 = Instant::now();
            for m in stream.by_ref().take(BATCH) {
                rt.ingest_dml(pos, m)?;
            }
            submit_ack.push(t0.elapsed().as_nanos() as u64);
            tracer.end(span);
        }
        let span = tracer.begin("read_stale", root, op);
        let t0 = Instant::now();
        std::hint::black_box(rt.read(ReadMode::Stale)?);
        stale.push(t0.elapsed().as_nanos() as u64);
        tracer.end(span);
        if (step + 1) % FRESH_EVERY == 0 {
            let span = tracer.begin("read_fresh", root, op);
            let t0 = Instant::now();
            let r = rt.read(ReadMode::Fresh)?;
            fresh.push(t0.elapsed().as_nanos() as u64);
            tracer.end(span);
            violations += u64::from(r.violated);
        } else {
            let span = tracer.begin("tick", root, op);
            let report = rt.tick()?;
            tracer.end(span);
            violations += u64::from(report.violated);
        }
        tracer.end(root);
    }
    let wall = started.elapsed();
    let proc_end = read_process();

    // Quiesce outside the window so the final checksum covers every
    // ingested event.
    let r = rt.read(ReadMode::Fresh)?;
    violations += u64::from(r.violated);
    Ok(ReplayOutcome {
        events: (steps * 2 * BATCH) as u64,
        wall,
        submit_ack,
        stale,
        fresh,
        violations,
        proc_start,
        proc_end,
        slice_ns,
        metrics: rt.metrics(),
        stats: *rt.maintenance_stats().expect("engine backend"),
        final_checksum: rt.view_checksum().expect("engine backend"),
        runtime: rt,
    })
}

impl ReplayOutcome {
    /// `(events, ns)` of the traced (even) and the untraced (odd)
    /// slices.
    pub fn traced_untraced(&self) -> [(u64, u64); 2] {
        let mut out = [(0, 0); 2];
        for (i, ns) in self.slice_ns.iter().enumerate() {
            out[i % 2].0 += SLICE_EVENTS;
            out[i % 2].1 += ns;
        }
        out
    }
}
