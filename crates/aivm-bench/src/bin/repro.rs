//! `repro` — regenerates every figure of the paper as a text table.
//!
//! ```text
//! repro [--csv] [--quick] [--threads N] <target>...
//!
//! targets:
//!   intro      §1 worked example (symmetric vs asymmetric cost/mod)
//!   fig1       measured cost functions of R ⋈ S (scan vs probe side)
//!   fig4       measured cost functions of the 4-way MIN view
//!   fig5       simulation validation (simulated vs actual cost)
//!   fig6       total cost vs refresh time (NAIVE/OPT/ADAPT/ONLINE)
//!   fig7       non-uniform streams SS/SU/FS/FU
//!   bounds     Theorems 1 & 2 + §3.2 tightness verification
//!   adapt      ADAPT sensitivity sweep with Theorem 4 bounds (extension)
//!   concave    LGM gap by cost family, §7 future work (extension)
//!   refresh    condition-driven refresh processes (extension)
//!   ablation   heuristic & candidate-set ablations (extension)
//!   serve      live serving runtime over the TPC-R update stream
//!   chaos      crash/recover + degradation chaos suite (robustness)
//!   all        every figure target above, in paper order (not serve)
//! ```
//!
//! `serve` drives the `aivm-serve` runtime end to end: concurrent
//! producers feed pre-generated TPC-R updates through the bounded ingest
//! queue while a reader alternates fresh and stale reads. Its flags:
//!
//! ```text
//!   --policy naive|online|planned|all   flush policy (default all)
//!   --events N                          updates per table (default 1500,
//!                                       300 with --quick)
//!   --duration 5s|500ms                 wall-clock cap on the producers
//!   --budget X                          refresh budget C (default:
//!                                       derived from measured costs)
//!   --trace-out PATH                    write the recorded trace(s)
//!   --inject-policy-panic T             make the flush policy panic at
//!                                       tick T (degradation smoke)
//!   --wal-sync always|interval[:N]|never   attach a file WAL with that
//!                                       fsync policy (temp file)
//!   --flush-threads N                   propagate flush deltas on N
//!                                       threads (default 1 = serial;
//!                                       results are bit-identical)
//!   --skew S                            Zipf exponent of the update
//!                                       streams' key choice (default:
//!                                       uniform)
//! ```
//!
//! `serve` exits nonzero if any run breaks the paper's validity
//! invariant (a fresh read costing more than `C`) or if the `planned`
//! policy's recorded trace fails to replay deterministically through
//! `aivm-sim` — the CI smoke gate relies on both. With an injected
//! policy panic the replay check is skipped once the runtime reports a
//! demotion (the fallback policy's schedule diverges by design); zero
//! constraint violations is still enforced.
//!
//! `chaos` runs the deterministic crash/recover suite: per seed, a
//! scripted run with a WAL attached is killed at (a sample of) every
//! event index, recovered from checkpoint + log tail, and compared
//! field-by-field — view/db checksums, pending counts, trace, cost —
//! against the uncrashed reference, plus seeded fault-injection cycles
//! asserting graceful degradation. Flags: `--seeds N` (default 4),
//! `--events N` ops per seed (default 400). With `--shards N` it also
//! kills one shard of a wire-served deployment and proves degraded
//! serving + recovery + rejoin; with `--replicas --kill-leader` it
//! kills a replicated shard's *leader* at a sampled WAL boundary and
//! asserts zero acknowledged-write loss, epoch fencing, and merged ==
//! direct checksums after the follower's promotion. Exits nonzero on
//! any divergence.
//!
//! Throughput and latency of the networked stack (single view, shards,
//! replicas, registries, push subscribers) are measured by the `perf`
//! package (`perf run`); their correctness is covered by the test suite.
//!
//! `--quick` shrinks scales so the whole suite finishes in well under a
//! minute; default scales match the paper's shapes (minutes).
//!
//! `--threads N` fixes the sweep worker count (`--threads 1` reproduces
//! the serial paper-fidelity run); without it the `AIVM_THREADS` /
//! `RAYON_NUM_THREADS` environment variables or the machine's available
//! parallelism decide. Results are identical at any width.

use aivm_sim::experiments::{
    adapt_sweep, bounds, concave, fig1, fig4, fig5, fig6, fig7, intro, refresh_process,
};
use aivm_sim::report::ExpTable;
use aivm_tpcr::TpcrConfig;

fn print_table(t: &ExpTable, csv: bool) {
    if csv {
        println!("# {}", t.title);
        print!("{}", t.to_csv());
    } else {
        println!("{}", t.render());
    }
}

fn run_intro(csv: bool) {
    let (c_dr, c_ds, budget) = intro::paper_costs();
    print_table(&intro::table(&c_dr, &c_ds, budget), csv);
}

fn run_fig1(csv: bool, quick: bool) {
    let config = if quick {
        fig1::Fig1Config {
            scale: TpcrConfig::small(),
            batch_sizes: vec![10, 30, 60, 120, 240],
            trials: 2,
            ..Default::default()
        }
    } else {
        fig1::Fig1Config::default()
    };
    print_table(&fig1::table(&config), csv);
}

fn run_fig4(csv: bool, quick: bool) {
    let config = if quick {
        fig4::Fig4Config {
            scale: TpcrConfig::small(),
            batch_sizes: vec![10, 25, 50, 100, 200],
            trials: 2,
            ..Default::default()
        }
    } else {
        fig4::Fig4Config::default()
    };
    print_table(&fig4::table(&config), csv);
}

fn run_fig5(csv: bool, quick: bool) {
    let config = if quick {
        fig5::Fig5Config {
            scale: TpcrConfig::small(),
            horizon: 60,
            measure_batches: vec![5, 15, 30],
            trials: 2,
            ..Default::default()
        }
    } else {
        fig5::Fig5Config::default()
    };
    print_table(&fig5::table(&config), csv);
}

fn run_fig6(csv: bool, quick: bool) {
    let config = if quick {
        fig6::Fig6Config {
            refresh_times: vec![100, 300, 500, 700, 1000],
            ..Default::default()
        }
    } else {
        fig6::Fig6Config::default()
    };
    print_table(&fig6::table(&config), csv);
}

fn run_fig7(csv: bool, quick: bool) {
    let config = if quick {
        fig7::Fig7Config {
            horizon: 400,
            ..Default::default()
        }
    } else {
        fig7::Fig7Config::default()
    };
    print_table(&fig7::table(&config), csv);
}

fn run_bounds(csv: bool, quick: bool) {
    let trials = if quick { 4 } else { 12 };
    print_table(&bounds::table(trials, 2005), csv);
}

fn run_adapt(csv: bool, quick: bool) {
    let config = if quick {
        adapt_sweep::AdaptSweepConfig {
            t0: 200,
            refresh_times: vec![50, 100, 200, 400, 600],
            ..Default::default()
        }
    } else {
        adapt_sweep::AdaptSweepConfig::default()
    };
    print_table(&adapt_sweep::table(&config), csv);
}

fn run_concave(csv: bool, quick: bool) {
    let trials = if quick { 6 } else { 20 };
    print_table(&concave::table(trials, 2005), csv);
}

fn run_refresh(csv: bool, quick: bool) {
    let config = if quick {
        refresh_process::RefreshProcessConfig {
            horizon: 400,
            ..Default::default()
        }
    } else {
        refresh_process::RefreshProcessConfig::default()
    };
    print_table(&refresh_process::table(&config), csv);
}

fn run_ablation(csv: bool, quick: bool) {
    use aivm_bench::standard_instance;
    use aivm_sim::report::fnum;
    use aivm_solver::{optimal_lgm_plan_with, HeuristicMode};

    let horizons: &[usize] = if quick {
        &[200, 400]
    } else {
        &[200, 400, 800, 1600]
    };
    let mut t = ExpTable::new(
        "Ablation: A* heuristic modes (nodes expanded / reopened)",
        &[
            "T",
            "paper.nodes",
            "paper.reopen",
            "subadd.nodes",
            "dijkstra.nodes",
            "cost",
        ],
    );
    t.note("all modes find the same optimal cost; heuristics prune expansions");
    for &h in horizons {
        let inst = standard_instance(h, 12.0);
        let p = optimal_lgm_plan_with(&inst, HeuristicMode::Paper);
        let s = optimal_lgm_plan_with(&inst, HeuristicMode::Subadditive);
        let d = optimal_lgm_plan_with(&inst, HeuristicMode::None);
        assert!((p.cost - d.cost).abs() < 1e-6 && (s.cost - d.cost).abs() < 1e-6);
        t.row(vec![
            h.to_string(),
            p.stats.nodes_expanded.to_string(),
            p.stats.reopened.to_string(),
            s.stats.nodes_expanded.to_string(),
            d.stats.nodes_expanded.to_string(),
            fnum(p.cost),
        ]);
    }
    print_table(&t, csv);

    // ONLINE candidate-set / estimator ablation, on an unstable stream
    // where prediction quality matters (uniform streams make every
    // variant behave identically).
    use aivm_core::Instance;
    use aivm_solver::{run_policy, CandidateSet, OnlineConfig, OnlinePolicy, RateEstimator};
    use aivm_workload::{preset_arrivals, StreamKind};
    let mut t2 = ExpTable::new(
        "Ablation: ONLINE configuration (total cost, fast/unstable stream)",
        &["config", "T=400", "T=800"],
    );
    let variants: Vec<(&str, OnlineConfig)> = vec![
        ("minimal+ewma(0.2)", OnlineConfig::default()),
        (
            "minimal+window(20)",
            OnlineConfig {
                estimator: RateEstimator::Window { window: 20 },
                ..OnlineConfig::default()
            },
        ),
        (
            "all-greedy+ewma(0.2)",
            OnlineConfig {
                candidates: CandidateSet::AllGreedy,
                ..OnlineConfig::default()
            },
        ),
    ];
    for (name, cfg) in variants {
        let mut cells = vec![name.to_string()];
        for h in [400usize, 800] {
            let inst = Instance::new(
                aivm_sim::experiments::default_costs(),
                preset_arrivals(StreamKind::FastUnstable, 2, h, 77),
                12.0,
            );
            let (_, stats) = run_policy(&inst, &mut OnlinePolicy::with_config(cfg.clone()))
                .expect("online valid");
            cells.push(fnum(stats.total_cost));
        }
        t2.row(cells);
    }
    // LOOKAHEAD (receding horizon) and the OPT reference.
    {
        let mut cells = vec!["lookahead(W=64)".to_string()];
        for h in [400usize, 800] {
            let inst = Instance::new(
                aivm_sim::experiments::default_costs(),
                preset_arrivals(StreamKind::FastUnstable, 2, h, 77),
                12.0,
            );
            let (_, stats) =
                run_policy(&inst, &mut aivm_solver::LookaheadPolicy::new()).expect("valid");
            cells.push(fnum(stats.total_cost));
        }
        t2.row(cells);
    }
    {
        let mut cells = vec!["OPT^LGM (reference)".to_string()];
        for h in [400usize, 800] {
            let inst = Instance::new(
                aivm_sim::experiments::default_costs(),
                preset_arrivals(StreamKind::FastUnstable, 2, h, 77),
                12.0,
            );
            cells.push(fnum(aivm_solver::optimal_lgm_plan(&inst).cost));
        }
        t2.row(cells);
    }
    print_table(&t2, csv);
}

/// Flags of the `serve` and `chaos` targets.
#[derive(Default)]
struct ServeArgs {
    policy: Option<String>,
    events: Option<usize>,
    duration: Option<std::time::Duration>,
    budget: Option<f64>,
    trace_out: Option<String>,
    seeds: Option<u64>,
    inject_policy_panic: Option<usize>,
    wal_sync: Option<aivm_serve::WalSyncPolicy>,
    flush_threads: Option<usize>,
    shards: Option<usize>,
    skew: Option<f64>,
    replicas: bool,
    kill_leader: bool,
}

fn parse_duration(s: &str) -> Option<std::time::Duration> {
    use std::time::Duration;
    if let Some(ms) = s.strip_suffix("ms") {
        ms.trim().parse::<u64>().ok().map(Duration::from_millis)
    } else {
        s.trim_end_matches('s')
            .trim()
            .parse::<f64>()
            .ok()
            .filter(|v| *v >= 0.0)
            .map(Duration::from_secs_f64)
    }
}

fn run_serve(csv: bool, quick: bool, sargs: &ServeArgs) {
    use aivm_bench::serve::{
        summary_row, ServeExperiment, ServeOptions, SERVE_POLICIES, SUMMARY_COLUMNS,
    };
    let policy = sargs.policy.as_deref().unwrap_or("all");
    let policies: Vec<&str> = if policy == "all" {
        SERVE_POLICIES.to_vec()
    } else if SERVE_POLICIES.contains(&policy) {
        vec![policy]
    } else {
        eprintln!("unknown policy: {policy} (expected naive, online, planned or all)");
        std::process::exit(2);
    };
    if sargs.inject_policy_panic.is_some() {
        silence_injected_panics();
    }
    let fault = aivm_serve::FaultPlan {
        policy_panic_at: sargs.inject_policy_panic,
        ..aivm_serve::FaultPlan::none()
    };
    let opts = ServeOptions {
        events_each: sargs.events.unwrap_or(if quick { 300 } else { 1500 }),
        budget: sargs.budget,
        duration: sargs.duration,
        quick,
        fault,
        wal_sync: sargs.wal_sync,
        flush_threads: sargs.flush_threads.unwrap_or(1),
        skew: sargs.skew,
        ..Default::default()
    };
    let exp = match ServeExperiment::build(opts) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("serve setup failed: {e}");
            std::process::exit(1);
        }
    };
    let mut t = ExpTable::new(
        "Live serving runtime (TPC-R update stream)",
        &SUMMARY_COLUMNS,
    );
    t.note(format!(
        "budget C = {:.1} (measured costs), planned T0 = {}",
        exp.budget, exp.schedule.t0
    ));
    if let Some(p) = &sargs.wal_sync {
        t.note(format!("file WAL attached, fsync policy {p}"));
    }
    if let Some(n) = sargs.flush_threads.filter(|&n| n > 1) {
        t.note(format!("parallel flush propagation: {n} threads"));
    }
    let mut failed = false;
    for p in &policies {
        match exp.run_threaded(p) {
            Ok(s) => {
                if s.metrics.constraint_violations > 0 {
                    eprintln!(
                        "{p}: {} constraint violation(s) — fresh reads exceeded C",
                        s.metrics.constraint_violations
                    );
                    failed = true;
                }
                if s.scan_fallbacks > 0 {
                    eprintln!(
                        "{p}: {} join scan fallback(s) — the auto-indexed paper view \
                         must propagate via index probes only",
                        s.scan_fallbacks
                    );
                    failed = true;
                }
                if sargs.inject_policy_panic.is_some() {
                    if s.metrics.policy_demotions == 0 {
                        eprintln!(
                            "{p}: injected policy panic never triggered a demotion \
                             (panic tick past the run's horizon?)"
                        );
                        failed = true;
                    } else {
                        println!(
                            "{p}: injected policy panic demoted to naive; \
                             {} violation(s) after fallback",
                            s.metrics.constraint_violations
                        );
                    }
                }
                if let Some(trace) = &s.trace {
                    // A demoted run's live actions diverge from the
                    // planned schedule by design; skip the replay check.
                    if *p == "planned" && s.metrics.policy_demotions == 0 {
                        match exp.verify_planned_replay(trace) {
                            Ok(()) => println!(
                                "planned replay check: {} trace steps reproduced through aivm-sim",
                                trace.steps.len()
                            ),
                            Err(e) => {
                                eprintln!("planned replay check failed: {e}");
                                failed = true;
                            }
                        }
                    }
                    if let Some(path) = &sargs.trace_out {
                        let path = if policies.len() > 1 {
                            format!("{path}.{p}")
                        } else {
                            path.clone()
                        };
                        if let Err(e) = std::fs::write(&path, trace.to_text()) {
                            eprintln!("failed to write trace {path}: {e}");
                            failed = true;
                        }
                    }
                }
                if sargs.wal_sync.is_some() {
                    println!(
                        "{p}: {} WAL record(s) appended, fsync lag at shutdown {}",
                        s.metrics.wal_records, s.metrics.wal_fsync_lag
                    );
                }
                t.row(summary_row(&s));
            }
            Err(e) => {
                eprintln!("serve run with policy {p} failed: {e}");
                failed = true;
            }
        }
    }
    print_table(&t, csv);
    if failed {
        std::process::exit(1);
    }
}

/// Injected policy faults are *caught* by the runtime, but the default
/// panic hook still prints a message and backtrace for them; filter
/// those out so a passing chaos/degradation run has clean output.
fn silence_injected_panics() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or("");
        if !msg.contains("injected policy fault") {
            prev(info);
        }
    }));
}

fn run_chaos(csv: bool, sargs: &ServeArgs) {
    use aivm_bench::chaos::{chaos_experiment, run_chaos, ChaosOptions};
    silence_injected_panics();
    let events = sargs.events.unwrap_or(400);
    let opts = ChaosOptions {
        seeds: sargs.seeds.unwrap_or(4),
        events,
        ..Default::default()
    };
    let exp = match chaos_experiment(events, 2005) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("chaos setup failed: {e}");
            std::process::exit(1);
        }
    };
    let report = match run_chaos(&exp, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("chaos reference run failed: {e}");
            std::process::exit(1);
        }
    };
    let mut t = ExpTable::new(
        "Chaos suite: crash/recover equivalence + graceful degradation",
        &[
            "seed",
            "ops",
            "wal_recs",
            "kills",
            "resumes",
            "demotions",
            "viol",
            "status",
        ],
    );
    t.note(format!(
        "budget C = {:.1}; every kill recovered from checkpoint + WAL tail and \
         compared checksum-for-checksum against the uncrashed run",
        exp.budget
    ));
    for s in &report.seeds {
        t.row(vec![
            s.seed.to_string(),
            s.ops.to_string(),
            s.wal_records.to_string(),
            s.crash_cycles.to_string(),
            s.continuation_cycles.to_string(),
            s.demotions.to_string(),
            s.violations.to_string(),
            if s.ok { "ok" } else { "FAIL" }.to_string(),
        ]);
    }
    print_table(&t, csv);
    if !report.ok() {
        for f in &report.failures {
            eprintln!("chaos divergence: {f}");
        }
        std::process::exit(1);
    }
    // With --shards N, additionally kill one shard of a wire-served
    // N-shard deployment mid-stream and prove degraded serving +
    // WAL-recovery + rejoin (merged checksum == direct evaluation).
    if let Some(shards) = sargs.shards.filter(|&n| n > 1) {
        use aivm_bench::chaos::run_shard_kill;
        let kill = match run_shard_kill(&exp, shards, 1) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("shard-kill cycle failed to run: {e}");
                std::process::exit(1);
            }
        };
        let mut kt = ExpTable::new(
            "Chaos: kill-one-shard, degraded serving, WAL recovery + rejoin",
            &[
                "shards",
                "victim",
                "wal_recs",
                "rejections",
                "live_accepts",
                "merged==direct",
                "status",
            ],
        );
        kt.row(vec![
            kill.shards.to_string(),
            kill.victim.to_string(),
            kill.victim_wal_records.to_string(),
            kill.unavailable_rejections.to_string(),
            kill.degraded_accepts.to_string(),
            (kill.merged_checksum == kill.direct_checksum).to_string(),
            if kill.ok() { "ok" } else { "FAIL" }.to_string(),
        ]);
        print_table(&kt, csv);
        if !kill.ok() {
            for f in &kill.failures {
                eprintln!("shard-kill divergence: {f}");
            }
            std::process::exit(1);
        }
    }
    // With --replicas --kill-leader, kill one shard's *leader* in a
    // fully replicated wire-served deployment at a sampled WAL boundary
    // and prove automatic failover: zero acknowledged-write loss, the
    // stale leader's epoch fenced, merged checksum == direct
    // evaluation, and follower staleness bounded by C + replication
    // lag throughout.
    if sargs.replicas || sargs.kill_leader {
        use aivm_bench::chaos::run_leader_kill;
        if !(sargs.replicas && sargs.kill_leader) {
            eprintln!("replicated chaos needs both --replicas and --kill-leader");
            std::process::exit(2);
        }
        let shards = sargs.shards.filter(|&n| n > 1).unwrap_or(2);
        let fail = match run_leader_kill(&exp, shards, 1, false) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("leader-kill cycle failed to run: {e}");
                std::process::exit(1);
            }
        };
        let mut ft = ExpTable::new(
            "Chaos: kill-the-leader, WAL tail-streamed follower promotion",
            &[
                "shards",
                "victim",
                "acked_mods",
                "fenced",
                "epoch",
                "lag_max",
                "stale_viol",
                "merged==direct",
                "status",
            ],
        );
        ft.row(vec![
            fail.shards.to_string(),
            fail.victim.to_string(),
            fail.acked_mods.to_string(),
            fail.stale_epoch_rejections.to_string(),
            fail.promoted_epoch.to_string(),
            fail.replica_lag_seen.to_string(),
            fail.staleness_violations.to_string(),
            (fail.merged_checksum == fail.direct_checksum).to_string(),
            if fail.ok() { "ok" } else { "FAIL" }.to_string(),
        ]);
        print_table(&ft, csv);
        if !fail.ok() {
            for f in &fail.failures {
                eprintln!("leader-kill divergence: {f}");
            }
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let csv = args.iter().any(|a| a == "--csv");
    let quick = args.iter().any(|a| a == "--quick");
    let mut threads_value: Option<usize> = None;
    let mut sargs = ServeArgs::default();
    let mut skip_next = false;
    let mut targets: Vec<&str> = Vec::new();
    let value_of = |args: &[String], i: usize, flag: &str| -> String {
        args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("{flag} needs a value");
            std::process::exit(2);
        })
    };
    for (i, a) in args.iter().enumerate() {
        if skip_next {
            skip_next = false;
            continue;
        }
        let (flag, inline) = match a.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (a.as_str(), None),
        };
        let mut take = |flag: &str| -> String {
            inline.clone().unwrap_or_else(|| {
                skip_next = true;
                value_of(&args, i, flag)
            })
        };
        match flag {
            "--threads" => {
                let v = take("--threads");
                match v.parse::<usize>() {
                    Ok(n) if n > 0 => threads_value = Some(n),
                    _ => {
                        eprintln!("--threads needs a positive integer");
                        std::process::exit(2);
                    }
                }
            }
            "--policy" => sargs.policy = Some(take("--policy")),
            "--events" => {
                let v = take("--events");
                match v.parse::<usize>() {
                    Ok(n) if n > 0 => sargs.events = Some(n),
                    _ => {
                        eprintln!("--events needs a positive integer");
                        std::process::exit(2);
                    }
                }
            }
            "--duration" => {
                let v = take("--duration");
                match parse_duration(&v) {
                    Some(d) => sargs.duration = Some(d),
                    None => {
                        eprintln!("--duration needs a time like 5s or 500ms");
                        std::process::exit(2);
                    }
                }
            }
            "--budget" => {
                let v = take("--budget");
                match v.parse::<f64>() {
                    Ok(b) if b > 0.0 => sargs.budget = Some(b),
                    _ => {
                        eprintln!("--budget needs a positive number");
                        std::process::exit(2);
                    }
                }
            }
            "--trace-out" => sargs.trace_out = Some(take("--trace-out")),
            "--seeds" => {
                let v = take("--seeds");
                match v.parse::<u64>() {
                    Ok(n) if n > 0 => sargs.seeds = Some(n),
                    _ => {
                        eprintln!("--seeds needs a positive integer");
                        std::process::exit(2);
                    }
                }
            }
            "--inject-policy-panic" => {
                let v = take("--inject-policy-panic");
                match v.parse::<usize>() {
                    Ok(t) => sargs.inject_policy_panic = Some(t),
                    _ => {
                        eprintln!("--inject-policy-panic needs a tick index");
                        std::process::exit(2);
                    }
                }
            }
            "--wal-sync" => {
                let v = take("--wal-sync");
                match aivm_serve::WalSyncPolicy::parse(&v) {
                    Some(p) => sargs.wal_sync = Some(p),
                    None => {
                        eprintln!("--wal-sync needs always, interval[:N] or never");
                        std::process::exit(2);
                    }
                }
            }
            "--flush-threads" => {
                let v = take("--flush-threads");
                match v.parse::<usize>() {
                    Ok(n) if n > 0 => sargs.flush_threads = Some(n),
                    _ => {
                        eprintln!("--flush-threads needs a positive integer");
                        std::process::exit(2);
                    }
                }
            }
            "--shards" => {
                let v = take("--shards");
                match v.parse::<usize>() {
                    Ok(n) if n > 0 => sargs.shards = Some(n),
                    _ => {
                        eprintln!("--shards needs a positive integer");
                        std::process::exit(2);
                    }
                }
            }
            "--skew" => {
                let v = take("--skew");
                match v.parse::<f64>() {
                    Ok(s) if s >= 0.0 => sargs.skew = Some(s),
                    _ => {
                        eprintln!("--skew needs a nonnegative zipf exponent (e.g. 1.1)");
                        std::process::exit(2);
                    }
                }
            }
            "--replicas" => sargs.replicas = true,
            "--kill-leader" => sargs.kill_leader = true,
            _ if !a.starts_with("--") => targets.push(a.as_str()),
            _ => {}
        }
    }
    aivm_sim::set_thread_override(threads_value);
    let targets: Vec<&str> = if targets.is_empty() || targets.contains(&"all") {
        vec![
            "intro", "fig1", "fig4", "fig5", "fig6", "fig7", "bounds", "adapt", "concave",
            "refresh", "ablation",
        ]
    } else {
        targets
    };
    for target in targets {
        match target {
            "intro" => run_intro(csv),
            "fig1" => run_fig1(csv, quick),
            "fig4" => run_fig4(csv, quick),
            "fig5" => run_fig5(csv, quick),
            "fig6" => run_fig6(csv, quick),
            "fig7" => run_fig7(csv, quick),
            "bounds" => run_bounds(csv, quick),
            "adapt" => run_adapt(csv, quick),
            "concave" => run_concave(csv, quick),
            "refresh" => run_refresh(csv, quick),
            "ablation" => run_ablation(csv, quick),
            "serve" => run_serve(csv, quick, &sargs),
            "chaos" => run_chaos(csv, &sargs),
            other => {
                eprintln!("unknown target: {other}");
                eprintln!(
                    "targets: intro fig1 fig4 fig5 fig6 fig7 bounds adapt concave refresh ablation serve chaos all"
                );
                std::process::exit(2);
            }
        }
    }
}
