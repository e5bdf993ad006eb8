//! The layer ladder of a traced run: the first [`LADDER_EVENTS`] events
//! of the workload's own input are replayed through each layer of the
//! stack in turn, every layer timed from outside through its public
//! functions and read through its public counters. A rung's self cost
//! is its µs/event minus the rung below.
//!
//! | rung | what runs                                                   |
//! |------|-------------------------------------------------------------|
//! | `E`  | `MaterializedView::apply_and_enqueue` + `flush`, at `R`'s flush schedule |
//! | `R`  | bare `MaintenanceRuntime` (ingest, tick, Fresh read)        |
//! | `W`  | `R` + `WalWriter` on `MemWal`                               |
//! | `Q`  | threaded `ServeServer` fed by `ServeHandle::try_ingest_batch` |
//! | `N`  | loopback `NetServer` + `Client`s                            |
//! | `S`  | 2-shard router, non-durable                                 |
//! | `D`  | `S` + replicas + durable acks                               |
//! | `V`  | bare `RegistryRuntime` at 1 and 8 views                     |
//!
//! The synchronous rungs keep one cadence: ingest a batch, then
//! `tick()`; every [`FRESH_EVERY`]-th batch ends in `read(Fresh)`
//! instead.

use crate::inputs::{split_streams, ClientStreams, Inputs, Scale, BATCH};
use crate::replay::FRESH_EVERY;
use crate::report::Metrics;
use crate::span::Tracer;
use crate::stack::{Checks, ShardedStack, SingleStack};
use crate::stats::Samples;
use crate::wire::{self, client_config, Bound, ClientOutcome, Mix, Sizing};
use crate::workloads::{RunOptions, CLIENTS, SHARDS, VIEWS};
use aivm_client::Client;
use aivm_core::CostFn;
use aivm_engine::{EngineError, Modification};
use aivm_net::{
    decode_request_ref, encode_request, encode_response, Request, RequestFrame, RequestRef,
    Response, WireReadResult,
};
use aivm_serve::{
    FetchOutcome, FileWal, FlushPolicy, MaintenanceRuntime, MemWal, NaiveFlush, OnlineFlush,
    ReadMode, RegistryRuntime, ServeConfig, ServeServer, ServerConfig, WalWriter,
};
use aivm_shard::{merge_reads, MergeSpec};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Events each rung replays.
pub const LADDER_EVENTS: usize = 200_000;

/// Round trips timed for the idle-server RTT metrics.
const RTT_PROBES: usize = 2_000;

/// The slice of a workload's input the ladder replays.
pub struct LadderInput {
    ps: Vec<Modification>,
    supp: Vec<Modification>,
    /// Every `supplier_every`-th batch is a Supplier batch.
    supplier_every: usize,
    heavy_light: bool,
}

impl LadderInput {
    /// Clones the head of both streams (rows are shared, so this is
    /// cheap) in the workload's own PartSupp:Supplier proportion.
    pub fn take(inputs: &Inputs, supplier_every: usize, heavy_light: bool) -> LadderInput {
        let events = match inputs.scale {
            Scale::Medium => LADDER_EVENTS,
            Scale::Small => LADDER_EVENTS / 20,
        };
        let supp = (events / supplier_every).min(inputs.supp_stream.len());
        let ps = (events - supp).min(inputs.ps_stream.len());
        LadderInput {
            ps: inputs.ps_stream[..ps].to_vec(),
            supp: inputs.supp_stream[..supp].to_vec(),
            supplier_every,
            heavy_light,
        }
    }

    fn events(&self) -> usize {
        self.ps.len() + self.supp.len()
    }

    /// Per-client sub-streams for the network rungs.
    fn split(&self) -> Vec<ClientStreams> {
        split_streams(self.ps.clone(), self.supp.clone(), CLIENTS)
    }

    /// One batch sequence in mix order for the synchronous rungs.
    fn sequence(&self, ps_pos: usize, supp_pos: usize) -> Vec<(usize, Vec<Modification>)> {
        let mut one = split_streams(self.ps.clone(), self.supp.clone(), 1)
            .pop()
            .expect("one sub-stream");
        let mut out = Vec::with_capacity(self.events() / BATCH + 2);
        loop {
            let supplier = (out.len() + 1).is_multiple_of(self.supplier_every);
            let next = if supplier {
                one.supplier.pop().map(|b| (supp_pos, b))
            } else {
                one.partsupp.pop().map(|b| (ps_pos, b))
            };
            let next = next
                .or_else(|| one.partsupp.pop().map(|b| (ps_pos, b)))
                .or_else(|| one.supplier.pop().map(|b| (supp_pos, b)));
            match next {
                Some(b) => out.push(b),
                None => return out,
            }
        }
    }
}

fn us_per_event(d: Duration, events: usize) -> f64 {
    d.as_secs_f64() * 1e6 / events.max(1) as f64
}

fn is_fresh_step(i: usize) -> bool {
    (i + 1).is_multiple_of(FRESH_EVERY)
}

/// What the synchronous runtime rung leaves behind for the others.
struct RuntimeRung {
    wall: Duration,
    /// Per batch, the flush actions the runtime took (one for a tick,
    /// two — tick then forced refresh — for a Fresh read).
    actions: Vec<Vec<Vec<u64>>>,
    fresh_us_p50: f64,
}

/// Rung `R` (and `W` when `wal` is given): the bare runtime.
fn rung_runtime(
    inputs: &Inputs,
    li: &LadderInput,
    wal: Option<WalWriter>,
    m: Option<&mut Metrics>,
) -> Result<RuntimeRung, EngineError> {
    let db = inputs.data.db.clone();
    let view = inputs.make_view(&db, li.heavy_light)?;
    let mut rt = MaintenanceRuntime::engine(inputs.serve_config(), inputs.policy(), db, view)?;
    if let Some(w) = wal {
        rt.attach_wal(w);
    }
    let seq = li.sequence(inputs.ps_pos, inputs.supp_pos);
    let mut tick = Samples::with_capacity(seq.len());
    let mut fresh = Samples::with_capacity(seq.len() / FRESH_EVERY + 1);
    let mut ingest_ns = 0u64;
    let started = Instant::now();
    for (i, (pos, batch)) in seq.into_iter().enumerate() {
        let t0 = Instant::now();
        for mo in batch {
            rt.ingest_dml(pos, mo)?;
        }
        let t1 = Instant::now();
        ingest_ns += t1.duration_since(t0).as_nanos() as u64;
        if is_fresh_step(i) {
            rt.read(ReadMode::Fresh)?;
            fresh.push(t1.elapsed().as_nanos() as u64);
        } else {
            rt.tick()?;
            tick.push(t1.elapsed().as_nanos() as u64);
        }
    }
    rt.read(ReadMode::Fresh)?;
    let wall = started.elapsed();

    // Re-align the runtime's own trace with the batches: a tick is one
    // trace step, a Fresh read two.
    let trace = rt.trace().expect("ServeConfig::new records a trace");
    let mut steps = trace
        .steps
        .iter()
        .map(|s| s.action.iter().collect::<Vec<u64>>());
    let mut actions = Vec::with_capacity(tick.len() + fresh.len());
    for i in 0..tick.len() + fresh.len() {
        let n = if is_fresh_step(i) { 2 } else { 1 };
        actions.push(steps.by_ref().take(n).collect());
    }
    let fresh_us_p50 = fresh.percentile_us(0.5).unwrap_or(f64::NAN);
    if let Some(m) = m {
        let snap = rt.metrics();
        m.set(
            "runtime.us_per_event",
            us_per_event(wall, li.events()),
            "us",
        );
        m.set(
            "runtime.ingest_us_per_event",
            ingest_ns as f64 / 1e3 / li.events() as f64,
            "us",
        );
        m.set(
            "runtime.tick_us_p50",
            tick.percentile_us(0.5).unwrap_or(f64::NAN),
            "us",
        );
        m.set(
            "runtime.tick_us_p99",
            tick.percentile_us(0.99).unwrap_or(f64::NAN),
            "us",
        );
        m.set("runtime.fresh_us_p50", fresh_us_p50, "us");
        m.set(
            "runtime.budget_violations",
            snap.constraint_violations as f64,
            "count",
        );
        m.set("runtime.cost_overruns", snap.cost_overruns as f64, "count");
        m.set(
            "runtime.recalibrations",
            snap.recalibrations as f64,
            "count",
        );
        m.set(
            "policy.flushes_per_kevent",
            snap.flush_count as f64 / (li.events() as f64 / 1e3),
            "count",
        );
    }
    Ok(RuntimeRung {
        wall,
        actions,
        fresh_us_p50,
    })
}

/// Rung `E`: the engine alone, flushing exactly what `R` flushed and
/// when.
fn rung_engine(
    inputs: &Inputs,
    li: &LadderInput,
    actions: &[Vec<Vec<u64>>],
    m: &mut Metrics,
) -> Result<Duration, EngineError> {
    let mut db = inputs.data.db.clone();
    let mut view = inputs.make_view(&db, li.heavy_light)?;
    let n = view.n();
    let seq = li.sequence(inputs.ps_pos, inputs.supp_pos);
    let mut apply_ns = 0u64;
    let mut flush_ns = vec![0u64; n];
    let mut flushed = vec![0u64; n];
    let mut ratios = Vec::with_capacity(2 * seq.len());
    let started = Instant::now();
    for ((pos, batch), step_actions) in seq.into_iter().zip(actions) {
        let t0 = Instant::now();
        for mo in batch {
            view.apply_and_enqueue(&mut db, pos, mo)?;
        }
        apply_ns += t0.elapsed().as_nanos() as u64;
        for action in step_actions {
            if action.iter().all(|&k| k == 0) {
                continue;
            }
            let t0 = Instant::now();
            view.flush(&db, action)?;
            let ns = t0.elapsed().as_nanos() as u64;
            // One `flush` call per action, as the runtime makes it. A
            // flush that covers several tables is split between them in
            // proportion to the model's f_i(k).
            let model: Vec<f64> = action
                .iter()
                .enumerate()
                .map(|(table, &k)| inputs.costs[table].eval(k))
                .collect();
            let total: f64 = model.iter().sum();
            for (table, &k) in action.iter().enumerate() {
                flush_ns[table] += (ns as f64 * model[table] / total) as u64;
                flushed[table] += k;
            }
            ratios.push(ns as f64 / total);
        }
    }
    view.refresh(&db)?;
    let wall = started.elapsed();

    let events = li.events() as f64;
    let total_flush: u64 = flush_ns.iter().sum();
    let per = |table: usize| flush_ns[table] as f64 / 1e3 / flushed[table].max(1) as f64;
    let exec = view.stats.exec;
    m.set(
        "engine.apply_us_per_event",
        apply_ns as f64 / 1e3 / events,
        "us",
    );
    m.set("engine.flush_ps_us_per_event", per(inputs.ps_pos), "us");
    m.set("engine.flush_su_us_per_event", per(inputs.supp_pos), "us");
    m.set(
        "engine.flush_share",
        total_flush as f64 / (total_flush + apply_ns).max(1) as f64,
        "ratio",
    );
    m.set(
        "engine.rows_emitted_per_event",
        exec.rows_emitted as f64 / events,
        "count",
    );
    m.set(
        "engine.index_probes_per_event",
        exec.index_probes as f64 / events,
        "count",
    );
    m.set("engine.scan_fallbacks", exec.scan_fallbacks as f64, "count");
    m.set(
        "engine.heavy_hit_share",
        exec.heavy_hits as f64 / (exec.heavy_hits + exec.light_hits).max(1) as f64,
        "ratio",
    );
    m.set(
        "engine.heavy_reclassifications",
        view.stats.heavy.reclassifications() as f64,
        "count",
    );
    // Measured flush time over the model's f_i(k), the paper's Fig. 5
    // check: the median says what a cost unit is worth in ns, the
    // p90/p10 spread how well the linear model tracks.
    ratios.sort_by(f64::total_cmp);
    let at = |q: f64| ratios[((q * ratios.len() as f64) as usize).min(ratios.len() - 1)];
    m.set("engine.model_ratio_p50", at(0.5), "ns/cost");
    m.set("engine.model_ratio_spread", at(0.9) / at(0.1), "ratio");
    Ok(wall)
}

/// Counts-only replay of the same arrivals and read cadence under one
/// policy: its exact model cost, and the time a tick takes when it
/// does nothing but decide.
fn model_replay(inputs: &Inputs, li: &LadderInput, policy: Box<dyn FlushPolicy>) -> (f64, f64) {
    let cfg = ServeConfig::new(inputs.costs.clone(), inputs.budget);
    let mut rt = MaintenanceRuntime::model(cfg, policy);
    let seq: Vec<(usize, u64)> = li
        .sequence(inputs.ps_pos, inputs.supp_pos)
        .iter()
        .map(|(pos, b)| (*pos, b.len() as u64))
        .collect();
    let mut tick_ns = 0u64;
    let mut ticks = 0u64;
    for (i, (pos, k)) in seq.into_iter().enumerate() {
        rt.ingest_count(pos, k);
        if is_fresh_step(i) {
            rt.read(ReadMode::Fresh).expect("model read");
        } else {
            let t0 = Instant::now();
            rt.tick().expect("model tick");
            tick_ns += t0.elapsed().as_nanos() as u64;
            ticks += 1;
        }
    }
    rt.read(ReadMode::Fresh).expect("model read");
    (
        rt.metrics().total_flush_cost,
        tick_ns as f64 / 1e3 / ticks.max(1) as f64,
    )
}

/// Rung `Q`: the threaded server, one producer.
fn rung_queue(
    inputs: &Inputs,
    li: &LadderInput,
    runtime_fresh_us_p50: f64,
    m: &mut Metrics,
) -> Result<Duration, EngineError> {
    let db = inputs.data.db.clone();
    let view = inputs.make_view(&db, li.heavy_light)?;
    let rt = MaintenanceRuntime::engine(inputs.serve_config(), inputs.policy(), db, view)?;
    let cfg = ServerConfig::default();
    let room = cfg.queue_capacity - BATCH;
    let server = ServeServer::spawn(rt, cfg);
    let handle = server.handle();
    let seq = li.sequence(inputs.ps_pos, inputs.supp_pos);
    let mut snapshot = Samples::with_capacity(seq.len());
    let mut fresh = Samples::with_capacity(seq.len() / FRESH_EVERY + 1);
    let gone = || EngineError::Maintenance {
        message: "ladder rung Q: scheduler gone".into(),
    };
    let started = Instant::now();
    for (i, (pos, batch)) in seq.into_iter().enumerate() {
        // A refused batch is dropped by `try_ingest_batch`, so wait for
        // room first; this thread is the only producer.
        while handle.queue_depth() > room {
            std::thread::yield_now();
        }
        handle.try_ingest_batch(pos, batch).map_err(|_| gone())?;
        let t0 = Instant::now();
        std::hint::black_box(handle.snapshot_for_read());
        snapshot.push(t0.elapsed().as_nanos() as u64);
        if is_fresh_step(i) {
            let t0 = Instant::now();
            handle.read(ReadMode::Fresh).ok_or_else(gone)??;
            fresh.push(t0.elapsed().as_nanos() as u64);
        }
    }
    handle.read(ReadMode::Fresh).ok_or_else(gone)??;
    let wall = started.elapsed();
    let snap = handle.metrics().ok_or_else(gone)?;
    drop(handle);
    server.shutdown();
    m.set("queue.max_depth", snap.max_queue_depth as f64, "count");
    m.set("queue.shed_events", snap.shed_events as f64, "count");
    m.set(
        "queue.snapshot_read_us_p50",
        snapshot.percentile_us(0.5).unwrap_or(f64::NAN),
        "us",
    );
    m.set(
        "queue.fresh_wait_us_p50",
        fresh.percentile_us(0.5).unwrap_or(f64::NAN) - runtime_fresh_us_p50,
        "us",
    );
    Ok(wall)
}

/// Drains the ladder input through `CLIENTS` closed-loop clients and a
/// final Fresh read, returning the wall time and the merged submit
/// latencies.
fn drain_over_wire(
    addr: std::net::SocketAddr,
    inputs: &Inputs,
    li: &LadderInput,
    seed: u64,
) -> Result<(Duration, Vec<ClientOutcome>), EngineError> {
    let mix = Mix::submit_only(li.supplier_every);
    let start = Barrier::new(CLIENTS + 1);
    let positions = (inputs.ps_pos, inputs.supp_pos);
    let control = Client::new(addr, client_config(seed, u64::MAX))
        .map_err(|e| EngineError::io("ladder control client", e))?;
    let clients = (0..CLIENTS as u64)
        .map(|w| wire::connect(addr, seed, w))
        .collect::<Result<Vec<_>, _>>()?;
    let (wall, outs) = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(li.split())
            .map(|(client, streams)| {
                let (mix, start) = (&mix, &start);
                let sizing = Sizing {
                    submits: streams.partsupp.len() + streams.supplier.len(),
                    reads: 0,
                    slices: 0,
                };
                s.spawn(move || {
                    wire::run_client(
                        client,
                        streams,
                        positions,
                        mix,
                        sizing,
                        Bound::Drain,
                        start,
                        Tracer::disarmed(),
                    )
                })
            })
            .collect();
        start.wait();
        let started = Instant::now();
        let outs: Vec<ClientOutcome> = handles
            .into_iter()
            .map(|h| h.join().expect("ladder client"))
            .collect();
        // Acks precede the work on a non-durable stack: the rung ends
        // when a Fresh read has seen everything applied and flushed.
        let read = control.read(true, false);
        (started.elapsed(), read.map(|_| outs))
    });
    let outs = outs.map_err(|e| EngineError::Maintenance {
        message: format!("ladder drain: final read: {e}"),
    })?;
    if let Some(err) = outs.iter().find_map(|o| o.last_error.clone()) {
        return Err(EngineError::Maintenance {
            message: format!("ladder drain: {err}"),
        });
    }
    Ok((wall, outs))
}

fn submit_p50_ms(outs: &[ClientOutcome]) -> f64 {
    let mut all = Samples::default();
    for o in outs {
        all.merge(&o.submit);
    }
    all.percentile_ms(0.5).unwrap_or(f64::NAN)
}

/// Rung `N`: the single backend over loopback, plus idle round trips.
fn rung_net(
    inputs: &Inputs,
    li: &LadderInput,
    seed: u64,
    m: &mut Metrics,
) -> Result<Duration, EngineError> {
    let stack = SingleStack::up(inputs, li.heavy_light)?;
    let addr = stack.addr();
    let fail = |e: aivm_client::ClientError| EngineError::Maintenance {
        message: format!("ladder rung N: {e}"),
    };
    let probe = Client::new(addr, client_config(seed, 7))
        .map_err(|e| EngineError::io("ladder probe client", e))?;
    let mut ping = Samples::with_capacity(RTT_PROBES);
    let mut stale = Samples::with_capacity(RTT_PROBES);
    probe.ping().map_err(fail)?;
    for _ in 0..RTT_PROBES {
        let t0 = Instant::now();
        probe.ping().map_err(fail)?;
        ping.push(t0.elapsed().as_nanos() as u64);
        let t0 = Instant::now();
        probe.read(false, false).map_err(fail)?;
        stale.push(t0.elapsed().as_nanos() as u64);
    }
    let (wall, outs) = drain_over_wire(addr, inputs, li, seed)?;
    let net = probe.metrics().map_err(fail)?;
    stack.down(inputs, &mut Checks::default())?;
    m.set(
        "net.ping_rtt_us_p50",
        ping.percentile_us(0.5).unwrap_or(f64::NAN),
        "us",
    );
    m.set(
        "net.ping_rtt_us_p99",
        ping.percentile_us(0.99).unwrap_or(f64::NAN),
        "us",
    );
    m.set(
        "net.stale_rtt_us_p50",
        stale.percentile_us(0.5).unwrap_or(f64::NAN),
        "us",
    );
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
    let retries = |f: fn(&ClientOutcome) -> u64| outs.iter().map(f).sum::<u64>() as f64;
    m.set(
        "client.overload_retries",
        retries(|o| o.retries.overload_retries),
        "count",
    );
    m.set(
        "client.transport_retries",
        retries(|o| o.retries.transport_retries),
        "count",
    );
    Ok(wall)
}

/// Rungs `S` and `D`: the sharded backend, without and with replicas
/// and durable acks. Returns the wall time and the submit-ack median.
fn rung_sharded(
    inputs: &Inputs,
    li: &LadderInput,
    seed: u64,
    durable: bool,
    m: &mut Metrics,
) -> Result<(Duration, f64), EngineError> {
    let mut stack = ShardedStack::up(inputs, SHARDS, durable, li.heavy_light)?;
    let (wall, outs) = drain_over_wire(stack.addr(), inputs, li, seed)?;
    let lag = stack.replica_lag_max();
    let mut checks = Checks::default();
    let (rebalances, catchup_s) = stack.quiesce(&mut checks);
    let fin = stack.down(inputs, &mut checks)?;
    if durable {
        m.set("replica.lag_max_records", lag as f64, "count");
        m.set("replica.catchup_s", catchup_s, "s");
    } else {
        let mean = fin.shard_events.iter().sum::<u64>() as f64 / SHARDS as f64;
        let max = fin.shard_events.iter().copied().max().unwrap_or(0) as f64;
        m.set("shard.imbalance", max / mean.max(1.0), "ratio");
        m.set("shard.budget_rebalances", rebalances as f64, "count");
    }
    Ok((wall, submit_p50_ms(&outs)))
}

/// Rung `V`: the bare registry runtime over `views` views.
fn rung_registry(
    inputs: &Inputs,
    li: &LadderInput,
    views: usize,
    m: Option<&mut Metrics>,
) -> Result<Duration, EngineError> {
    let registry = inputs.registry_over(inputs.data.db.clone(), views)?;
    let mut rt = RegistryRuntime::new(inputs.registry_config(views), inputs.policy(), registry)?;
    let pos_of = |name: &str| {
        rt.table_names()
            .iter()
            .position(|t| t == name)
            .expect("table on the registry's global axis")
    };
    let (ps, supp) = (pos_of("partsupp"), pos_of("supplier"));
    let seq = li.sequence(ps, supp);
    let started = Instant::now();
    for (i, (pos, batch)) in seq.into_iter().enumerate() {
        for mo in batch {
            rt.ingest_dml(pos, mo)?;
        }
        if is_fresh_step(i) {
            rt.read_view(i / FRESH_EVERY % views, ReadMode::Fresh)?;
        } else {
            rt.tick()?;
        }
    }
    rt.read_view(0, ReadMode::Fresh)?;
    let wall = started.elapsed();
    if let Some(m) = m {
        let hub = rt.hub();
        let head = hub.head_seq(0);
        let from = head
            .saturating_sub(aivm_serve::DELTA_RING_CAP as u64 - 1)
            .max(1);
        let mut bytes = 0usize;
        let mut batches = 0usize;
        if let FetchOutcome::Deltas(ds) = hub.fetch(0, from, aivm_serve::DELTA_RING_CAP) {
            for d in ds {
                bytes += encode_response(&Response::ViewDelta {
                    view: d.view,
                    seq: d.seq,
                    checksum: d.checksum,
                    staleness: d.staleness,
                    rows: d.rows.clone(),
                })
                .len();
                batches += 1;
            }
        }
        m.set(
            "registry.delta_bytes_per_flush",
            bytes as f64 / batches.max(1) as f64,
            "B",
        );
        // No subscriber is attached to a bare runtime; a workload with
        // one overrides these from its window.
        m.set(
            "registry.deltas_pushed",
            hub.deltas_pushed(0) as f64,
            "count",
        );
        m.set("registry.sub_resyncs", 0.0, "count");
        m.set("registry.sub_lag_max", hub.sub_lag_max(0) as f64, "count");
    }
    Ok(wall)
}

/// Frame codec microbenchmark over the ladder's own batches.
fn frame_codec(inputs: &Inputs, li: &LadderInput, m: &mut Metrics) -> Result<usize, EngineError> {
    let seq = li.sequence(inputs.ps_pos, inputs.supp_pos);
    let events: usize = seq.iter().map(|(_, b)| b.len()).sum();
    let frames: Vec<RequestFrame> = seq
        .into_iter()
        .map(|(pos, mods)| RequestFrame {
            deadline_ms: 10_000,
            request: Request::Submit {
                epoch: 0,
                table: pos as u32,
                mods,
            },
        })
        .collect();
    let t0 = Instant::now();
    let encoded: Vec<Vec<u8>> = frames.iter().map(encode_request).collect();
    let encode = t0.elapsed();
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    let mut mods = Vec::with_capacity(BATCH);
    let t0 = Instant::now();
    for payload in &encoded {
        if let RequestRef::Submit(s) = decode_request_ref(payload)?.request {
            mods.clear();
            s.decode_mods_into(&mut mods)?;
            std::hint::black_box(&mods);
        }
    }
    let decode = t0.elapsed();
    let reply = encode_response(&Response::ReadOk(WireReadResult {
        fresh: true,
        lag: 0,
        flush_cost: 1.0,
        violated: false,
        degraded: false,
        checksum: 1,
        rows: None,
    }));
    m.set(
        "frame.encode_us_per_event",
        us_per_event(encode, events),
        "us",
    );
    m.set(
        "frame.decode_us_per_event",
        us_per_event(decode, events),
        "us",
    );
    m.set(
        "frame.bytes_per_event",
        bytes as f64 / events.max(1) as f64,
        "B",
    );
    m.set("frame.read_reply_bytes", reply.len() as f64, "B");
    Ok(bytes)
}

/// `ShardRouter::split_batch`'s and `merge_reads`' own cost.
fn shard_micro(inputs: &Inputs, li: &LadderInput, m: &mut Metrics) -> Result<(), EngineError> {
    let part = inputs.partitioner(SHARDS)?;
    let seq = li.sequence(inputs.ps_pos, inputs.supp_pos);
    let events: usize = seq.iter().map(|(_, b)| b.len()).sum();
    let t0 = Instant::now();
    for (pos, batch) in seq {
        std::hint::black_box(part.split_batch(pos, batch)?);
    }
    m.set(
        "shard.split_us_per_event",
        us_per_event(t0.elapsed(), events),
        "us",
    );

    let merge = MergeSpec::from_def(&inputs.view_def)?;
    let mut reads = Vec::with_capacity(SHARDS);
    for db in inputs.partition_genesis(&part)? {
        let view = inputs.make_view(&db, false)?;
        let mut rt =
            MaintenanceRuntime::engine(inputs.shard_config(SHARDS), inputs.policy(), db, view)?;
        reads.push(rt.read(ReadMode::Fresh)?);
    }
    let t0 = Instant::now();
    for _ in 0..RTT_PROBES {
        std::hint::black_box(merge_reads(&merge, &reads)?);
    }
    m.set(
        "shard.merge_us_per_read",
        us_per_event(t0.elapsed(), RTT_PROBES),
        "us",
    );
    Ok(())
}

/// Runs every rung and returns the per-layer metrics they yield.
pub fn run(inputs: &Inputs, li: LadderInput, opts: &RunOptions) -> Result<Metrics, EngineError> {
    let mut m = Metrics::default();
    let events = li.events();
    m.set("tpcr.generate_s", inputs.timings.generate_s, "s");
    m.set("tpcr.view_init_s", inputs.timings.view_init_s, "s");
    m.set("tpcr.streams_s", inputs.timings.streams_s, "s");

    let r = rung_runtime(inputs, &li, None, Some(&mut m))?;
    let e = rung_engine(inputs, &li, &r.actions, &mut m)?;
    let r_us = us_per_event(r.wall, events);
    let e_us = us_per_event(e, events);
    m.set("engine.us_per_event", e_us, "us");
    m.set("runtime.overhead_us_per_event", r_us - e_us, "us");

    let (online_cost, decide_us) = model_replay(inputs, &li, Box::new(OnlineFlush::new()));
    let (naive_cost, _) = model_replay(inputs, &li, Box::new(NaiveFlush::new()));
    m.set("policy.decide_us_per_tick", decide_us, "us");
    m.set(
        "policy.cost_vs_naive",
        online_cost / naive_cost.max(f64::MIN_POSITIVE),
        "ratio",
    );

    let frame_bytes = frame_codec(inputs, &li, &mut m)?;
    let wal = MemWal::new();
    let w = rung_runtime(
        inputs,
        &li,
        Some(WalWriter::create(Box::new(wal.clone()), 4)?),
        None,
    )?;
    let wal_bytes = wal.bytes().len();
    m.set(
        "wal.append_us_per_event",
        us_per_event(w.wall, events) - r_us,
        "us",
    );
    m.set("wal.bytes_per_event", wal_bytes as f64 / events as f64, "B");
    m.set(
        "wal.write_amp",
        wal_bytes as f64 / frame_bytes.max(1) as f64,
        "ratio",
    );
    m.set(
        "wal.file_interval64_us_per_event",
        file_wal_cost(inputs, &li, opts)? - r_us,
        "us",
    );

    let q_us = us_per_event(rung_queue(inputs, &li, r.fresh_us_p50, &mut m)?, events);
    m.set("queue.overhead_us_per_event", q_us - r_us, "us");
    let n_us = us_per_event(rung_net(inputs, &li, opts.seed, &mut m)?, events);
    m.set("net.overhead_us_per_event", n_us - q_us, "us");

    shard_micro(inputs, &li, &mut m)?;
    let (s_wall, s_ack) = rung_sharded(inputs, &li, opts.seed, false, &mut m)?;
    let (d_wall, d_ack) = rung_sharded(inputs, &li, opts.seed, true, &mut m)?;
    m.set("shard.us_per_event", us_per_event(s_wall, events), "us");
    m.set(
        "shard.overhead_us_per_event",
        us_per_event(s_wall, events) - n_us,
        "us",
    );
    m.set("replica.us_per_event", us_per_event(d_wall, events), "us");
    m.set("replica.durable_ack_overhead_ms_p50", d_ack - s_ack, "ms");

    let v1 = us_per_event(rung_registry(inputs, &li, 1, None)?, events);
    let v8 = us_per_event(rung_registry(inputs, &li, VIEWS, Some(&mut m))?, events);
    m.set("registry.us_per_event_1view", v1, "us");
    m.set("registry.us_per_event_8views", v8, "us");
    m.set("registry.fanout_overhead", v8 / v1, "ratio");
    Ok(m)
}

/// The runtime rung on a `FileWal` in the output directory, syncing
/// every 64 records, over a quarter of the input (fsync cost on the
/// sandbox's disk says little about any other disk: informational).
fn file_wal_cost(inputs: &Inputs, li: &LadderInput, opts: &RunOptions) -> Result<f64, EngineError> {
    let quarter = LadderInput {
        ps: li.ps[..li.ps.len() / 4].to_vec(),
        supp: li.supp[..li.supp.len() / 4].to_vec(),
        supplier_every: li.supplier_every,
        heavy_light: li.heavy_light,
    };
    let path = opts
        .out_dir
        .join(format!("ladder-wal-{}.log", std::process::id()));
    std::fs::create_dir_all(&opts.out_dir).map_err(|e| EngineError::io("output directory", e))?;
    let wal = WalWriter::create(Box::new(FileWal::create(&path)?), 64)?;
    let rung = rung_runtime(inputs, &quarter, Some(wal), None);
    let _ = std::fs::remove_file(&path);
    Ok(us_per_event(rung?.wall, quarter.events()))
}
