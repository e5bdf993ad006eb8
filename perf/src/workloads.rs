//! The five workloads: what each sets up, how its window is driven, and
//! how its outputs are verified and its metrics computed.
//!
//! | workload                 | stack                       | loop   | mix  |
//! |--------------------------|-----------------------------|--------|------|
//! | `replay-balanced`        | bare `MaintenanceRuntime`   | sync   | 1:1  |
//! | `replay-skew`            | same, Zipf 1.2, heavy-light | sync   | 1:1  |
//! | `wire-ps-closed`         | single backend over TCP     | closed | 64:1 |
//! | `views-mixed-open`       | registry backend, 8 views   | open   | 1:1  |
//! | `cluster-durable-closed` | 2 shards, replicas, durable | closed | 1:1  |

use crate::inputs::{split_streams, ClientStreams, Inputs, Scale, StreamSpec, BATCH};
use crate::json::Json;
use crate::ladder::{self, LadderInput};
use crate::open::{self, Rates};
use crate::proc::{read_process, ProcReading};
use crate::replay;
use crate::report::{manifest, Metrics, RunReport};
use crate::span::{traced_untraced, whole_slices, Tracer, SLICE_NS};
use crate::stack::{
    net_config, net_config_json, server_config_json, Checks, RegistryStack, ShardedStack,
    SingleStack, StackFinal,
};
use crate::stats::{median, Samples};
use crate::wire::{self, client_config, client_config_json, Bound, ClientOutcome, Mix, Sizing};
use aivm_client::{Client, RetryStats};
use aivm_engine::EngineError;
use aivm_net::NetMetrics;
use aivm_serve::ServerConfig;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Load-generator threads and connections of the wire workloads: at
/// most the machine's hardware threads, and 2 where the numbers of
/// record were taken.
pub const CLIENTS: usize = 2;

/// Views of `views-mixed-open`, all in one sharing group.
pub const VIEWS: usize = 8;

/// Shards of `cluster-durable-closed`.
pub const SHARDS: usize = 2;

/// Zipf exponent of `replay-skew`'s key choice.
pub const SKEW: f64 = 1.2;

/// Events per second each closed-loop workload's inputs are sized for:
/// twice what the seed sustains, so a change that doubles throughput
/// still finds input for the whole window.
const WIRE_PS_BUDGET: usize = 450_000;
const CLUSTER_BUDGET: usize = 60_000;

/// Offered load of `views-mixed-open`, frozen after one calibration on
/// the seed (≈ 43 % of the 22 000 events/s the bare 8-view registry
/// runtime sustains at this mix): 9 600 events/s in 150 Submits, beside
/// 150 Stale and 70 Fresh reads per second.
pub const OPEN_RATES: Rates = Rates {
    submit: 150.0,
    stale: 150.0,
    fresh: 70.0,
};

#[derive(Clone, Debug)]
pub struct RunOptions {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub scale: Scale,
    /// Multiplies `views-mixed-open`'s offered rates (`perf sweep`).
    pub rate_scale: f64,
    /// Times the whole set-up is repeated; `setup_s` is the median.
    pub setup_reps: usize,
    /// Where a traced run writes its spans and the ladder its
    /// `FileWal` scratch file.
    pub out_dir: std::path::PathBuf,
}

pub fn run(workload: &'static str, opts: &RunOptions) -> Result<RunReport, EngineError> {
    match workload {
        "replay-balanced" => run_replay(workload, None, opts),
        "replay-skew" => run_replay(workload, Some(SKEW), opts),
        "wire-ps-closed" => run_closed(workload, opts),
        "cluster-durable-closed" => run_closed(workload, opts),
        "views-mixed-open" => run_open(workload, opts),
        other => Err(EngineError::Maintenance {
            message: format!("unknown workload {other:?}"),
        }),
    }
}

/// The measured window: `--seconds`, or a twentieth of it in a smoke
/// run.
fn window(opts: &RunOptions) -> Duration {
    match opts.scale {
        Scale::Medium => Duration::from_secs(opts.seconds),
        Scale::Small => Duration::from_secs(opts.seconds) / 20,
    }
}

/// Repeats `setup` `reps` times, discarding all but the last result,
/// and returns it with the median set-up time.
fn timed_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, EngineError>,
    mut discard: impl FnMut(T) -> Result<(), EngineError>,
) -> Result<(T, f64), EngineError> {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps.max(1) {
        if let Some(prev) = kept.take() {
            discard(prev)?;
        }
        let t0 = Instant::now();
        kept = Some(setup()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((kept.expect("at least one repetition"), median(&times)))
}

/// The bounded latency metric of an untraced run: the paper's refresh
/// response time, as the median — the one latency statistic that stays
/// put when a run meets a stall.
fn push_fresh(m: &mut Metrics, fresh: &mut Samples) {
    m.set(
        "fresh_read_p50_ms",
        fresh.percentile_ms(0.5).unwrap_or(f64::NAN),
        "ms",
    );
}

/// The unbounded latency metrics of a traced run's window. A percentile
/// the sample cannot support is reported as NaN (JSON null), never
/// extrapolated; a full-size run always has its thousand samples.
fn push_latencies(m: &mut Metrics, submit: &mut Samples, fresh: &mut Samples, stale: &mut Samples) {
    for (class, samples) in [
        ("submit_ack", submit),
        ("fresh_read", fresh),
        ("stale_read", stale),
    ] {
        for (tag, q) in [("p50", 0.5), ("p99", 0.99)] {
            m.set(
                &format!("latency.{class}_{tag}_ms"),
                samples.percentile_ms(q).unwrap_or(f64::NAN),
                "ms",
            );
        }
    }
}

fn sample_summary(submit: &mut Samples, stale: &mut Samples, fresh: &mut Samples) -> Json {
    let one = |s: &mut Samples| {
        Json::obj()
            .with("n", s.len())
            .with("p90_ms", s.percentile_ms(0.90))
            .with("p95_ms", s.percentile_ms(0.95))
            .with("p99_ms", s.percentile_ms(0.99))
    };
    Json::obj()
        .with("submit_ack", one(submit))
        .with("stale_read", one(stale))
        .with("fresh_read", one(fresh))
}

fn proc_metrics(m: &mut Metrics, start: &ProcReading, end: &ProcReading) {
    m.set("proc.cpu_user_s", end.cpu_user_s - start.cpu_user_s, "s");
    m.set("proc.cpu_sys_s", end.cpu_sys_s - start.cpu_sys_s, "s");
    m.set(
        "proc.ctx_switches",
        end.ctx_switches.saturating_sub(start.ctx_switches) as f64,
        "count",
    );
    m.set("proc.rss_growth_mb", end.rss_mb - start.rss_mb, "MB");
}

fn overhead_share(traced: (u64, u64), untraced: (u64, u64)) -> f64 {
    let rate = |(events, ns): (u64, u64)| events as f64 / ns.max(1) as f64;
    if traced.0 == 0 || untraced.0 == 0 {
        return 0.0;
    }
    1.0 - rate(traced) / rate(untraced)
}

/// Writes the spans kept in memory during the window out to
/// `<out_dir>/<workload>.spans.tsv`.
fn write_spans(workload: &str, opts: &RunOptions, tracers: &[&Tracer]) -> Json {
    let path = opts.out_dir.join(format!("{workload}.spans.tsv"));
    let written = std::fs::create_dir_all(&opts.out_dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            tracers.iter().try_for_each(|t| t.write_tsv(&mut w))?;
            std::io::Write::flush(&mut w)
        });
    Json::obj()
        .with(
            "spans",
            tracers.iter().map(|t| t.spans().len()).sum::<usize>(),
        )
        .with(
            "spans_file",
            match written {
                Ok(()) => path.display().to_string(),
                Err(e) => format!("not written: {e}"),
            },
        )
}

/// Watches the benchmark's own monitor thread for pauses: it asks to
/// sleep a few milliseconds at a time, so a wake-up that comes hundreds
/// of milliseconds late means the whole process (or the sandbox's
/// virtual CPUs) stood still, and a latency tail of that size in the
/// same run is the machine's, not the system's.
struct PauseWatch {
    longest: Duration,
}

impl PauseWatch {
    fn new() -> PauseWatch {
        PauseWatch {
            longest: Duration::ZERO,
        }
    }

    fn sleep(&mut self, d: Duration) {
        let t0 = Instant::now();
        std::thread::sleep(d);
        self.longest = self.longest.max(t0.elapsed().saturating_sub(d));
    }

    fn longest_ms(&self) -> f64 {
        self.longest.as_secs_f64() * 1e3
    }
}

/// Nanoseconds of a window's whole traced (even) slices.
fn traced_ns(win: Duration) -> u64 {
    whole_slices(win.as_nanos() as u64).div_ceil(2) as u64 * SLICE_NS
}

/// Share of each traced thread's traced slices that named spans cover,
/// and the busiest span names with their self time.
fn span_summary(tracers: &[&Tracer], traced_wall_ns: u64) -> (f64, Json) {
    let mut coverage: f64 = 1.0;
    let mut rows = Vec::new();
    for t in tracers {
        let s = t.summary();
        coverage = coverage.min(s.root_ns as f64 / traced_wall_ns.max(1) as f64);
        for (name, self_ns, count) in s.by_name.iter().take(6) {
            rows.push(
                Json::obj()
                    .with("span", *name)
                    .with("self_ms", *self_ns as f64 / 1e6)
                    .with("count", *count),
            );
        }
    }
    (coverage, Json::Arr(rows))
}

// ---------------------------------------------------------------- replay

fn run_replay(
    workload: &'static str,
    skew: Option<f64>,
    opts: &RunOptions,
) -> Result<RunReport, EngineError> {
    let heavy_light = skew.is_some();
    let steps = match opts.scale {
        Scale::Medium => replay::steps_for(opts.seconds),
        Scale::Small => replay::steps_for(opts.seconds) / 20,
    }
    .next_multiple_of(replay::FRESH_EVERY);
    let spec = StreamSpec {
        partsupp: steps * BATCH,
        supplier: steps * BATCH,
        skew,
    };
    let ((mut inputs, rt), setup_s) = timed_setup(
        opts.setup_reps,
        || {
            let inputs = Inputs::build(opts.scale, opts.seed, spec)?;
            let rt = replay::make_runtime(&inputs, heavy_light)?;
            Ok((inputs, rt))
        },
        |_| Ok(()),
    )?;
    let ladder_input = opts
        .trace
        .then(|| LadderInput::take(&inputs, 2, heavy_light));
    let mut tracer = Tracer::new(opts.trace, Instant::now(), "replay", 6 * steps);
    let mut o = replay::run(
        rt,
        std::mem::take(&mut inputs.ps_stream),
        std::mem::take(&mut inputs.supp_stream),
        inputs.ps_pos,
        inputs.supp_pos,
        steps,
        &mut tracer,
    )?;

    let mut checks = Checks::default();
    let fresh_view = inputs.make_view(o.runtime.database().expect("engine"), heavy_light)?;
    checks.eq(
        "maintained checksum == fresh materialisation",
        o.final_checksum,
        fresh_view.result_checksum(),
    );
    checks.eq(
        "events == events_ingested",
        o.metrics.events_ingested,
        o.events,
    );
    checks.eq("no budget violation observed", o.violations, 0);
    checks.eq("constraint_violations", o.metrics.constraint_violations, 0);
    checks.eq("scan_fallbacks", o.stats.exec.scan_fallbacks, 0);
    checks.eq("last_error empty", o.metrics.last_error.clone(), None);

    let cpu_s = o.proc_end.cpu_s() - o.proc_start.cpu_s();
    let events_per_s = o.events as f64 / o.wall.as_secs_f64();
    let mut info = Json::obj()
        .with(
            "manifest",
            manifest(opts.scale.name(), opts.seed, opts.seconds),
        )
        .with("loop", "synchronous, one thread")
        .with("steps", steps)
        .with("fresh_every", replay::FRESH_EVERY)
        .with("events", o.events)
        .with("window_s", o.wall.as_secs_f64())
        .with("heavy_light", heavy_light)
        .with("skew", skew)
        .with("budget_c", inputs.budget)
        .with("serve_config", serve_config_json(&inputs))
        .with(
            "samples",
            sample_summary(&mut o.submit_ack, &mut o.stale, &mut o.fresh),
        )
        // These three repeat exactly for a given seed and step count.
        .with("flush_count", o.metrics.flush_count)
        .with("total_model_cost", o.metrics.total_flush_cost)
        .with("final_checksum", format!("{:016x}", o.final_checksum));

    let mut m = Metrics::default();
    if opts.trace {
        let ladder_input = ladder_input.expect("taken when tracing");
        m = ladder::run(&inputs, ladder_input, opts)?;
        m.set("loadgen.late_p99_ms", 0.0, "ms");
        m.set("loadgen.cpu_share", 0.0, "ratio");
        m.set("loadgen.failed_ops_share", 0.0, "ratio");
        proc_metrics(&mut m, &o.proc_start, &o.proc_end);
        push_latencies(&mut m, &mut o.submit_ack, &mut o.fresh, &mut o.stale);
        let [traced, untraced] = o.traced_untraced();
        m.set(
            "trace.overhead_share",
            overhead_share(traced, untraced),
            "ratio",
        );
        let (coverage, top) = span_summary(&[&tracer], traced.1);
        m.set("trace.span_coverage", coverage, "ratio");
        info.set(
            "trace",
            write_spans(workload, opts, &[&tracer]).with("top_spans", top),
        );
    } else {
        m.set("setup_s", setup_s, "s");
        m.set("events_per_s", events_per_s, "1/s");
        push_fresh(&mut m, &mut o.fresh);
        m.set("cpu_s_per_mevent", cpu_s / (o.events as f64 / 1e6), "s");
        info.set("rss_growth_mb", o.proc_end.rss_mb - o.proc_start.rss_mb);
    }
    // Two ingest loops, a Stale read and a tick or Fresh read per step.
    let ops = 4 * steps as u64;
    Ok(RunReport {
        workload,
        traced: opts.trace,
        metrics: m,
        attempted: ops,
        failed: 0,
        checks,
        info,
    })
}

fn serve_config_json(inputs: &Inputs) -> Json {
    let cfg = inputs.serve_config();
    Json::obj()
        .with("budget", cfg.budget)
        .with("record_trace", cfg.record_trace)
        .with("strict", cfg.strict)
        .with("flush_threads", cfg.flush_threads)
        .with(
            "costs",
            cfg.costs
                .iter()
                .map(|c| Json::from(format!("{c:?}")))
                .collect::<Vec<_>>(),
        )
}

// ----------------------------------------------------------- closed loop

enum ClosedStack {
    Single(SingleStack),
    Cluster(ShardedStack),
}

impl ClosedStack {
    fn addr(&self) -> std::net::SocketAddr {
        match self {
            ClosedStack::Single(s) => s.addr(),
            ClosedStack::Cluster(s) => s.addr(),
        }
    }

    fn down(self, inputs: &Inputs, checks: &mut Checks) -> Result<StackFinal, EngineError> {
        match self {
            ClosedStack::Single(s) => s.down(inputs, checks),
            ClosedStack::Cluster(s) => s.down(inputs, checks),
        }
    }
}

/// Client-side totals of a window, merged over the generator threads.
struct Totals {
    submit: Samples,
    stale: Samples,
    fresh: Samples,
    events_acked: u64,
    attempted: u64,
    failed: u64,
    violations: u64,
    window: Duration,
    exhausted: bool,
    last_error: Option<String>,
    retries: RetryStats,
    gen_cpu_s: f64,
    /// Events acked per tracing slice, summed over the clients.
    slice_acked: Vec<u64>,
}

impl Totals {
    fn of_clients(outs: &[ClientOutcome]) -> Totals {
        let mut t = Totals {
            submit: Samples::default(),
            stale: Samples::default(),
            fresh: Samples::default(),
            events_acked: 0,
            attempted: 0,
            failed: 0,
            violations: 0,
            window: Duration::ZERO,
            exhausted: false,
            last_error: None,
            retries: RetryStats::default(),
            gen_cpu_s: 0.0,
            slice_acked: Vec::new(),
        };
        let first = outs.iter().filter_map(|o| o.first_send).min();
        let last = outs.iter().filter_map(|o| o.last_ack).max();
        if let (Some(a), Some(b)) = (first, last) {
            t.window = b.duration_since(a);
        }
        for o in outs {
            t.submit.merge(&o.submit);
            t.stale.merge(&o.stale);
            t.fresh.merge(&o.fresh);
            t.events_acked += o.events_acked;
            t.attempted += o.attempted;
            t.failed += o.failed;
            t.violations += o.violations;
            t.exhausted |= o.exhausted;
            if t.last_error.is_none() {
                t.last_error.clone_from(&o.last_error);
            }
            t.retries.overload_retries += o.retries.overload_retries;
            t.retries.transport_retries += o.retries.transport_retries;
            t.gen_cpu_s += o.cpu_s;
            t.slice_acked
                .resize(t.slice_acked.len().max(o.slice_acked.len()), 0);
            for (sum, n) in t.slice_acked.iter_mut().zip(&o.slice_acked) {
                *sum += n;
            }
        }
        t
    }
}

/// The quiesce round trip every wire workload ends with: one Fresh read
/// (the budget must hold at rest too) and the server's closing metrics
/// frame with both breakdowns.
fn control_round(
    addr: std::net::SocketAddr,
    seed: u64,
    checks: &mut Checks,
) -> Result<NetMetrics, EngineError> {
    let fail = |what: &str, e: &dyn std::fmt::Display| EngineError::Maintenance {
        message: format!("control client: {what}: {e}"),
    };
    let control = Client::new(addr, client_config(seed, u64::MAX))
        .map_err(|e| EngineError::io("control client", e))?;
    let read = control
        .read(true, false)
        .map_err(|e| fail("fresh read", &e))?;
    checks.eq(
        "quiesce fresh read within budget (wire)",
        read.violated,
        false,
    );
    control
        .metrics_full(true, true)
        .map_err(|e| fail("metrics", &e))
}

fn wire_checks(checks: &mut Checks, t: &Totals, net: &NetMetrics, fin: &StackFinal) {
    checks.eq(
        "acked events == events_ingested",
        fin.metrics.events_ingested,
        t.events_acked,
    );
    checks.eq(
        "acked events == net submitted_events",
        net.submitted_events,
        t.events_acked,
    );
    checks.eq("no budget violation seen by a client", t.violations, 0);
    checks.eq(
        "constraint_violations",
        fin.metrics.constraint_violations,
        0,
    );
    checks.eq("scan_fallbacks", fin.scan_fallbacks, 0);
    checks.eq("shed_events", fin.metrics.shed_events, 0);
    checks.eq("ingest_errors", fin.metrics.ingest_errors, 0);
    checks.eq(
        "runtime last_error empty",
        fin.metrics.last_error.clone(),
        None,
    );
    checks.eq("client last_error empty", t.last_error.clone(), None);
    checks.eq("inputs lasted the whole window", t.exhausted, false);
}

fn wire_end_to_end(m: &mut Metrics, t: &mut Totals, setup_s: f64, cpu_s: f64) {
    m.set("setup_s", setup_s, "s");
    // Acked modifications over the window from first send to last ack.
    m.set(
        "events_per_s",
        t.events_acked as f64 / t.window.as_secs_f64().max(1e-9),
        "1/s",
    );
    push_fresh(m, &mut t.fresh);
    m.set(
        "cpu_s_per_mevent",
        cpu_s / (t.events_acked.max(1) as f64 / 1e6),
        "s",
    );
}

/// Window-sourced per-layer metrics every wire workload reports.
fn wire_per_layer(
    m: &mut Metrics,
    t: &Totals,
    net: &NetMetrics,
    fin: &StackFinal,
    proc: (&ProcReading, &ProcReading),
    win: Duration,
) {
    let cpu_s = proc.1.cpu_s() - proc.0.cpu_s();
    m.set("loadgen.cpu_share", t.gen_cpu_s / cpu_s.max(1e-9), "ratio");
    m.set(
        "loadgen.failed_ops_share",
        t.failed as f64 / t.attempted.max(1) as f64,
        "ratio",
    );
    proc_metrics(m, proc.0, proc.1);
    let [traced, untraced] = traced_untraced(&t.slice_acked, win.as_nanos() as u64);
    m.set(
        "trace.overhead_share",
        overhead_share(traced, untraced),
        "ratio",
    );
    m.set("queue.max_depth", net.max_queue_depth as f64, "count");
    m.set("queue.shed_events", net.shed_events as f64, "count");
    m.set("net.requests", net.requests as f64, "count");
    m.set(
        "net.overload_rejections",
        net.overload_rejections as f64,
        "count",
    );
    m.set(
        "net.deadline_rejections",
        net.deadline_rejections as f64,
        "count",
    );
    m.set(
        "client.overload_retries",
        t.retries.overload_retries as f64,
        "count",
    );
    m.set(
        "client.transport_retries",
        t.retries.transport_retries as f64,
        "count",
    );
    m.set(
        "runtime.budget_violations",
        fin.metrics.constraint_violations as f64,
        "count",
    );
    m.set(
        "runtime.cost_overruns",
        fin.metrics.cost_overruns as f64,
        "count",
    );
    m.set(
        "runtime.recalibrations",
        fin.metrics.recalibrations as f64,
        "count",
    );
}

fn generator_bound(m: &Metrics, fresh_p50_ms: Option<f64>) -> bool {
    m.get("loadgen.cpu_share").is_some_and(|s| s > 0.4)
        || matches!(
            (m.get("loadgen.late_p99_ms"), fresh_p50_ms),
            (Some(late), Some(p50)) if late > p50
        )
}

fn run_closed(workload: &'static str, opts: &RunOptions) -> Result<RunReport, EngineError> {
    let cluster = workload == "cluster-durable-closed";
    let (mix, budget) = if cluster {
        (Mix::durable(), CLUSTER_BUDGET)
    } else {
        (Mix::partsupp_heavy(), WIRE_PS_BUDGET)
    };
    // The small database is several times faster per event, and its
    // window a twentieth as long.
    let events = match opts.scale {
        Scale::Medium => budget * opts.seconds as usize,
        Scale::Small => 4 * budget * opts.seconds as usize / 20,
    };
    // One Supplier batch per `supplier_every` Submit batches.
    let supplier = events / mix.supplier_every + BATCH;
    let spec = StreamSpec {
        partsupp: events - events / mix.supplier_every + BATCH,
        supplier,
        skew: None,
    };
    let ((inputs, ladder_input, streams, stack), setup_s) = timed_setup(
        opts.setup_reps,
        || {
            let mut inputs = Inputs::build(opts.scale, opts.seed, spec)?;
            let ladder_input = opts
                .trace
                .then(|| LadderInput::take(&inputs, mix.supplier_every, false));
            let streams = split_streams(
                std::mem::take(&mut inputs.ps_stream),
                std::mem::take(&mut inputs.supp_stream),
                CLIENTS,
            );
            let stack = if cluster {
                ClosedStack::Cluster(ShardedStack::up(&inputs, SHARDS, true, false)?)
            } else {
                ClosedStack::Single(SingleStack::up(&inputs, false)?)
            };
            Ok((inputs, ladder_input, streams, stack))
        },
        |(inputs, _, _, stack)| stack.down(&inputs, &mut Checks::default()).map(drop),
    )?;

    let addr = stack.addr();
    let sizing = |s: &ClientStreams| Sizing {
        submits: s.partsupp.len() + s.supplier.len(),
        reads: (s.partsupp.len() + s.supplier.len()) / 2 + 64,
        slices: whole_slices(window(opts).as_nanos() as u64) + 1,
    };
    let stop = AtomicBool::new(false);
    let start = Barrier::new(CLIENTS + 1);
    let origin = Instant::now();
    let positions = (inputs.ps_pos, inputs.supp_pos);
    let clients = (0..CLIENTS as u64)
        .map(|w| wire::connect(addr, opts.seed, w))
        .collect::<Result<Vec<_>, _>>()?;
    let (outs, proc_start, proc_end, lag_max, paused_ms) = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(streams)
            .enumerate()
            .map(|(w, (client, streams))| {
                let (mix, stop, start) = (&mix, &stop, &start);
                let sizing = sizing(&streams);
                let tracer = Tracer::new(
                    opts.trace,
                    origin,
                    ["client-0", "client-1"][w % 2],
                    sizing.submits + 2 * sizing.reads,
                );
                s.spawn(move || {
                    wire::run_client(
                        client,
                        streams,
                        positions,
                        mix,
                        sizing,
                        Bound::Until(stop),
                        start,
                        tracer,
                    )
                })
            })
            .collect();
        start.wait();
        let proc_start = read_process();
        let deadline = Instant::now() + window(opts);
        let mut lag_max = 0u64;
        let mut pause = PauseWatch::new();
        while Instant::now() < deadline {
            pause.sleep(Duration::from_millis(10));
            if let ClosedStack::Cluster(c) = &stack {
                lag_max = lag_max.max(c.replica_lag_max());
            }
        }
        stop.store(true, Ordering::Relaxed);
        let outs: Vec<ClientOutcome> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (
            outs,
            proc_start,
            read_process(),
            lag_max,
            pause.longest_ms(),
        )
    });

    let mut checks = Checks::default();
    let mut t = Totals::of_clients(&outs);
    let net = control_round(addr, opts.seed, &mut checks)?;
    let mut catchup_s = 0.0;
    let mut stack = stack;
    if let ClosedStack::Cluster(c) = &mut stack {
        catchup_s = c.quiesce(&mut checks).1;
    }
    let fin = stack.down(&inputs, &mut checks)?;
    wire_checks(&mut checks, &t, &net, &fin);

    let cpu_s = proc_end.cpu_s() - proc_start.cpu_s();
    let mut info = Json::obj()
        .with(
            "manifest",
            manifest(opts.scale.name(), opts.seed, opts.seconds),
        )
        .with("loop", format!("closed, {CLIENTS} clients"))
        .with("mix", mix.describe())
        .with("window_s", t.window.as_secs_f64())
        .with("events_acked", t.events_acked)
        .with("budget_c", inputs.budget)
        .with("serve_config", serve_config_json(&inputs))
        .with(
            "server_config",
            server_config_json(&ServerConfig::default()),
        )
        .with("net_config", net_config_json(&net_config(cluster)))
        .with(
            "client_config",
            client_config_json(&client_config(opts.seed, 0)),
        )
        .with("longest_pause_ms", paused_ms)
        .with("shards", if cluster { SHARDS } else { 1 })
        .with("replicas", cluster)
        .with(
            "samples",
            sample_summary(&mut t.submit, &mut t.stale, &mut t.fresh),
        )
        .with("rss_growth_mb", proc_end.rss_mb - proc_start.rss_mb);

    let mut m = Metrics::default();
    if opts.trace {
        let fresh_p50 = t.fresh.percentile_ms(0.5);
        m = ladder::run(&inputs, ladder_input.expect("taken when tracing"), opts)?;
        m.set("loadgen.late_p99_ms", 0.0, "ms");
        wire_per_layer(
            &mut m,
            &t,
            &net,
            &fin,
            (&proc_start, &proc_end),
            window(opts),
        );
        push_latencies(&mut m, &mut t.submit, &mut t.fresh, &mut t.stale);
        if cluster {
            let mean = fin.shard_events.iter().sum::<u64>() as f64 / SHARDS as f64;
            let max = fin.shard_events.iter().copied().max().unwrap_or(0) as f64;
            m.set("shard.imbalance", max / mean.max(1.0), "ratio");
            m.set(
                "shard.budget_rebalances",
                fin.budget_rebalances as f64,
                "count",
            );
            m.set("replica.lag_max_records", lag_max as f64, "count");
            m.set("replica.catchup_s", catchup_s, "s");
            m.set(
                "wal.bytes_per_event",
                fin.wal_bytes as f64 / t.events_acked.max(1) as f64,
                "B",
            );
        }
        let tracers: Vec<&Tracer> = outs.iter().map(|o| &o.tracer).collect();
        let (coverage, top) = span_summary(&tracers, traced_ns(window(opts)));
        m.set("trace.span_coverage", coverage, "ratio");
        info.set("generator_bound", generator_bound(&m, fresh_p50));
        info.set(
            "trace",
            write_spans(workload, opts, &tracers).with("top_spans", top),
        );
    } else {
        wire_end_to_end(&mut m, &mut t, setup_s, cpu_s);
    }
    Ok(RunReport {
        workload,
        traced: opts.trace,
        metrics: m,
        attempted: t.attempted,
        failed: t.failed,
        checks,
        info,
    })
}

// ------------------------------------------------------------- open loop

fn run_open(workload: &'static str, opts: &RunOptions) -> Result<RunReport, EngineError> {
    let rates = OPEN_RATES.scaled(opts.rate_scale);
    let win = window(opts);
    let each = open::batches_needed(rates, win) * BATCH;
    let spec = StreamSpec {
        partsupp: each,
        supplier: each,
        skew: None,
    };
    let ((inputs, ladder_input, streams, stack), setup_s) = timed_setup(
        opts.setup_reps,
        || {
            let mut inputs = Inputs::build(opts.scale, opts.seed, spec)?;
            let ladder_input = opts.trace.then(|| LadderInput::take(&inputs, 2, false));
            let streams = split_streams(
                std::mem::take(&mut inputs.ps_stream),
                std::mem::take(&mut inputs.supp_stream),
                1,
            )
            .pop()
            .expect("one sub-stream");
            let stack = RegistryStack::up(&inputs, VIEWS)?;
            Ok((inputs, ladder_input, streams, stack))
        },
        |(inputs, _, _, stack)| stack.down(&inputs, &mut Checks::default()).map(drop),
    )?;

    let addr = stack.addr();
    let fail = |what: &str, e: &dyn std::fmt::Display| EngineError::Maintenance {
        message: format!("subscriber: {what}: {e}"),
    };
    let sub_client = wire::connect(addr, opts.seed, 2)?;
    let sub = sub_client
        .subscribe_head(0)
        .map_err(|e| fail("subscribe", &e))?;
    let stopper = sub.stopper().map_err(|e| fail("stopper", &e))?;

    let writes_client = wire::connect(addr, opts.seed, 0)?;
    let fresh_client = wire::connect(addr, opts.seed, 1)?;
    let start = Barrier::new(3);
    let origin = Instant::now();
    let positions = (inputs.ps_pos, inputs.supp_pos);
    let ops = ((rates.submit + rates.stale + rates.fresh) * win.as_secs_f64()) as usize;
    let mut checks = Checks::default();
    let (outs, sub_out, proc_start, proc_end, depth_halves, net, paused_ms) =
        std::thread::scope(|s| {
            let subscriber = s.spawn(move || open::run_subscriber(sub));
            let start_ref = &start;
            // Writes and Stale reads on one thread and connection, Fresh
            // reads on another (see `open`'s module docs).
            let spawn = |client, name, rates: Rates, streams| {
                let tracer = Tracer::new(opts.trace, origin, name, 2 * ops + 64);
                s.spawn(move || {
                    open::run_schedule(
                        client,
                        streams,
                        positions,
                        VIEWS as u32,
                        rates,
                        win,
                        start_ref,
                        tracer,
                    )
                })
            };
            let schedules = [
                spawn(
                    writes_client,
                    "writes+stale",
                    rates.without_fresh(),
                    streams,
                ),
                spawn(
                    fresh_client,
                    "fresh",
                    rates.fresh_only(),
                    ClientStreams::default(),
                ),
            ];
            start.wait();
            let proc_start = read_process();
            let begun = Instant::now();
            // Deepest ingest queue seen in each half of the window: a
            // second half much deeper than the first means a backlog is
            // growing.
            let mut depth_halves = [0usize; 2];
            let mut pause = PauseWatch::new();
            while !schedules.iter().all(|h| h.is_finished()) {
                let half = usize::from(begun.elapsed() > win / 2);
                depth_halves[half] = depth_halves[half].max(stack.queue_depth());
                pause.sleep(Duration::from_millis(5));
            }
            let outs = schedules.map(|h| h.join().expect("schedule thread"));
            let proc_end = read_process();
            let net = control_round(addr, opts.seed, &mut checks);
            // Give the last flush's delta a moment to reach the subscriber,
            // then close its stream.
            std::thread::sleep(Duration::from_millis(50));
            stopper.stop();
            let sub_out = subscriber.join().expect("subscriber thread");
            (
                outs,
                sub_out,
                proc_start,
                proc_end,
                depth_halves,
                net,
                pause.longest_ms(),
            )
        });
    let net = net?;
    let fin = stack.down(&inputs, &mut checks)?;

    let mut t = Totals::of_clients(&outs);
    t.gen_cpu_s += sub_out.cpu_s;
    let mut late = Samples::default();
    outs.iter().for_each(|o| late.merge(&o.late));
    wire_checks(&mut checks, &t, &net, &fin);
    checks.eq("subscriber checksum errors", sub_out.checksum_errors, 0);
    checks.eq(
        "subscriber last_error empty",
        sub_out.last_error.clone(),
        None,
    );
    checks.is_true(
        "subscriber received deltas",
        sub_out.deltas > 0,
        format!("{} deltas", sub_out.deltas),
    );

    let offered = rates.submit * BATCH as f64;
    let achieved = t.events_acked as f64 / t.window.as_secs_f64().max(1e-9);
    let kept_up = (achieved / offered - 1.0).abs() <= 0.01;
    let queue_growing = depth_halves[1] > 2 * depth_halves[0].max(BATCH);
    let cpu_s = proc_end.cpu_s() - proc_start.cpu_s();
    let mut info = Json::obj()
        .with(
            "manifest",
            manifest(opts.scale.name(), opts.seed, opts.seconds),
        )
        .with(
            "loop",
            "open: writes + Stale reads on one thread, Fresh reads on another, 1 push subscriber",
        )
        .with(
            "offered",
            Json::obj()
                .with("submit_per_s", rates.submit)
                .with("stale_per_s", rates.stale)
                .with("fresh_per_s", rates.fresh)
                .with("events_per_s", offered),
        )
        .with("views", VIEWS)
        .with("window_s", t.window.as_secs_f64())
        .with("events_acked", t.events_acked)
        .with("kept_up", kept_up)
        .with("queue_growing", queue_growing)
        .with(
            "queue_depth_max_by_half",
            vec![Json::from(depth_halves[0]), Json::from(depth_halves[1])],
        )
        .with("late_p99_ms", late.percentile_ms(0.99))
        .with("longest_pause_ms", paused_ms)
        .with("budget_c", inputs.registry_config(VIEWS).budget)
        .with(
            "server_config",
            server_config_json(&ServerConfig::default()),
        )
        .with("net_config", net_config_json(&net_config(false)))
        .with(
            "client_config",
            client_config_json(&client_config(opts.seed, 0)),
        )
        .with(
            "samples",
            sample_summary(&mut t.submit, &mut t.stale, &mut t.fresh),
        )
        .with("subscriber_deltas", sub_out.deltas)
        .with("rss_growth_mb", proc_end.rss_mb - proc_start.rss_mb);

    let mut m = Metrics::default();
    if opts.trace {
        let fresh_p50 = t.fresh.percentile_ms(0.5);
        m = ladder::run(&inputs, ladder_input.expect("taken when tracing"), opts)?;
        m.set(
            "loadgen.late_p99_ms",
            late.percentile_ms(0.99).unwrap_or(f64::NAN),
            "ms",
        );
        wire_per_layer(&mut m, &t, &net, &fin, (&proc_start, &proc_end), win);
        push_latencies(&mut m, &mut t.submit, &mut t.fresh, &mut t.stale);
        m.set("registry.deltas_pushed", net.deltas_pushed as f64, "count");
        m.set("registry.sub_resyncs", sub_out.resyncs as f64, "count");
        m.set("registry.sub_lag_max", net.sub_lag_max as f64, "count");
        let tracers = [&outs[0].tracer, &outs[1].tracer];
        let (coverage, top) = span_summary(&tracers, traced_ns(win));
        m.set("trace.span_coverage", coverage, "ratio");
        info.set("generator_bound", generator_bound(&m, fresh_p50));
        info.set(
            "trace",
            write_spans(workload, opts, &tracers).with("top_spans", top),
        );
    } else {
        wire_end_to_end(&mut m, &mut t, setup_s, cpu_s);
    }
    Ok(RunReport {
        workload,
        traced: opts.trace,
        metrics: m,
        attempted: t.attempted,
        failed: t.failed,
        checks,
        info,
    })
}
