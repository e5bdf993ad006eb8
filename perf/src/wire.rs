//! The closed-loop wire driver shared by `wire-ps-closed`,
//! `cluster-durable-closed` and the ladder's network rungs: each client
//! thread owns one `aivm-client` connection and its own sub-streams,
//! repeats a fixed op pattern, and sends its next request only after
//! the previous one completed.

use crate::inputs::ClientStreams;
use crate::proc::thread_cpu_s;
use crate::span::{SliceClock, Tracer, NO_SPAN};
use crate::stats::Samples;
use aivm_client::{Client, ClientConfig, RetryStats};
use aivm_engine::EngineError;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Submit,
    Stale,
    Fresh,
}

/// A client's fixed traffic mix.
#[derive(Clone, Debug)]
pub struct Mix {
    /// Repeated in order for the whole window.
    pub pattern: Vec<Op>,
    /// Every `supplier_every`-th Submit carries a Supplier batch, the
    /// rest PartSupp (`2` is the paper's 1:1 mix, `65` is 64:1).
    pub supplier_every: usize,
}

impl Mix {
    /// 50 ops: 44 Submit, 5 Stale, 1 Fresh; PartSupp:Supplier = 64:1.
    pub fn partsupp_heavy() -> Mix {
        let pattern = (0..50)
            .map(|i| match i {
                24 => Op::Fresh,
                i if i % 10 == 9 => Op::Stale,
                _ => Op::Submit,
            })
            .collect();
        Mix {
            pattern,
            supplier_every: 65,
        }
    }

    /// 8 ops: 5 Submit, 2 Stale, 1 Fresh; 1:1 mix. Denser in reads
    /// because durable acks are slow and every latency class still
    /// needs its thousand samples.
    pub fn durable() -> Mix {
        use Op::{Fresh, Stale, Submit};
        Mix {
            pattern: vec![Submit, Submit, Stale, Submit, Submit, Stale, Submit, Fresh],
            supplier_every: 2,
        }
    }

    /// Submits only, for the ladder's network rungs.
    pub fn submit_only(supplier_every: usize) -> Mix {
        Mix {
            pattern: vec![Op::Submit],
            supplier_every,
        }
    }

    pub fn describe(&self) -> String {
        let n = |op| self.pattern.iter().filter(|&&o| o == op).count();
        format!(
            "{}-op pattern: {} Submit, {} Stale, {} Fresh; every {} Submit is Supplier",
            self.pattern.len(),
            n(Op::Submit),
            n(Op::Stale),
            n(Op::Fresh),
            ordinal(self.supplier_every)
        )
    }
}

fn ordinal(n: usize) -> String {
    match n {
        2 => "2nd".into(),
        3 => "3rd".into(),
        n => format!("{n}th"),
    }
}

/// The load generator's client settings: generous deadline and retry
/// budget, so that on a healthy stack no operation fails and a stall
/// shows up as latency, not as an error.
pub fn client_config(seed: u64, worker: u64) -> ClientConfig {
    ClientConfig {
        deadline: Duration::from_secs(10),
        retries: 16,
        backoff: Duration::from_micros(200),
        max_backoff: Duration::from_millis(20),
        pool: 1,
        seed: seed ^ worker.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        breaker_threshold: 0,
        breaker_cooldown: Duration::from_millis(100),
    }
}

pub fn client_config_json(cfg: &ClientConfig) -> crate::json::Json {
    crate::json::Json::obj()
        .with("deadline_ms", cfg.deadline.as_millis() as u64)
        .with("retries", u64::from(cfg.retries))
        .with("backoff_us", cfg.backoff.as_micros() as u64)
        .with("max_backoff_ms", cfg.max_backoff.as_millis() as u64)
        .with("pool", cfg.pool)
        .with("breaker_threshold", u64::from(cfg.breaker_threshold))
}

/// How a closed-loop window ends.
pub enum Bound<'a> {
    /// Until the flag is raised (time-bounded workloads).
    Until(&'a AtomicBool),
    /// Until the client's sub-streams are drained (ladder rungs).
    Drain,
}

/// What one client thread measured.
pub struct ClientOutcome {
    pub submit: Samples,
    pub stale: Samples,
    pub fresh: Samples,
    /// Open loop only: how late each request left, past its due time.
    pub late: Samples,
    pub events_acked: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Fresh reads whose `violated` bit was set.
    pub violations: u64,
    pub first_send: Option<Instant>,
    pub last_ack: Option<Instant>,
    /// A Submit found its sub-stream empty before the window ended:
    /// the inputs were too small for this machine.
    pub exhausted: bool,
    pub last_error: Option<String>,
    pub retries: RetryStats,
    /// CPU seconds this generator thread used inside the window.
    pub cpu_s: f64,
    /// Events acked in each tracing slice of the window.
    pub slice_acked: Vec<u64>,
    pub tracer: Tracer,
}

/// Expected operations per generator thread, for pre-sizing its
/// buffers outside the window.
pub struct Sizing {
    pub submits: usize,
    /// Per read class.
    pub reads: usize,
    /// Tracing slices the window spans (0: do not count per slice).
    pub slices: usize,
}

impl ClientOutcome {
    pub fn new(sizing: &Sizing) -> ClientOutcome {
        ClientOutcome {
            submit: Samples::with_capacity(sizing.submits),
            stale: Samples::with_capacity(sizing.reads),
            fresh: Samples::with_capacity(sizing.reads),
            late: Samples::default(),
            events_acked: 0,
            attempted: 0,
            failed: 0,
            violations: 0,
            first_send: None,
            last_ack: None,
            exhausted: false,
            last_error: None,
            retries: RetryStats::default(),
            cpu_s: 0.0,
            slice_acked: vec![0; sizing.slices],
            tracer: Tracer::disarmed(),
        }
    }
}

/// Dials the load generator's `worker`-th connection and proves it
/// with a ping. The server hands connections to its event-loop workers
/// round robin in accept order, so callers dial one after another, in a
/// fixed order, before any thread starts: which worker serves which
/// client must not be left to a race (it decided between two
/// throughput modes 25 % apart on the cluster).
pub fn connect(addr: SocketAddr, seed: u64, worker: u64) -> Result<Client, EngineError> {
    let client = Client::new(addr, client_config(seed, worker))
        .map_err(|e| EngineError::io("load generator connect", e))?;
    client.ping().map_err(|e| EngineError::Maintenance {
        message: format!("load generator connection {worker}: ping: {e}"),
    })?;
    Ok(client)
}

/// Runs one closed-loop client to completion. Called on its own thread;
/// `start` lines every client (and the timing thread) up on one
/// instant.
#[allow(clippy::too_many_arguments)]
pub fn run_client(
    client: Client,
    mut streams: ClientStreams,
    positions: (usize, usize),
    mix: &Mix,
    sizing: Sizing,
    bound: Bound<'_>,
    start: &Barrier,
    mut tracer: Tracer,
) -> ClientOutcome {
    let mut out = ClientOutcome::new(&sizing);
    start.wait();
    let clock = SliceClock {
        start: Instant::now(),
    };
    let cpu0 = thread_cpu_s();
    let (ps_pos, supp_pos) = positions;
    let mut submits = 0usize;
    let mut op_id = 0u64;
    'window: loop {
        for &op in &mix.pattern {
            match bound {
                Bound::Until(stop) if stop.load(Ordering::Relaxed) => break 'window,
                _ => {}
            }
            let t0 = Instant::now();
            let traced = clock.traced_at(t0);
            tracer.set_on(traced);
            op_id += 1;
            match op {
                Op::Submit => {
                    let supplier = (submits + 1).is_multiple_of(mix.supplier_every);
                    let drain = matches!(bound, Bound::Drain);
                    let mut pick = if supplier {
                        (supp_pos, streams.supplier.pop())
                    } else {
                        (ps_pos, streams.partsupp.pop())
                    };
                    if pick.1.is_none() && drain {
                        // A draining rung sends whatever is left.
                        pick = if supplier {
                            (ps_pos, streams.partsupp.pop())
                        } else {
                            (supp_pos, streams.supplier.pop())
                        };
                    }
                    let (pos, Some(batch)) = pick else {
                        out.exhausted = !drain;
                        break 'window;
                    };
                    submits += 1;
                    out.attempted += 1;
                    out.first_send.get_or_insert(t0);
                    let span = tracer.begin("submit", NO_SPAN, op_id);
                    let res = client.submit(pos as u32, batch);
                    let done = Instant::now();
                    tracer.end(span);
                    match res {
                        Ok(accepted) => {
                            out.submit.push(done.duration_since(t0).as_nanos() as u64);
                            out.events_acked += accepted;
                            if let Some(n) = out.slice_acked.get_mut(clock.slice_of(done)) {
                                *n += accepted;
                            }
                            out.last_ack = Some(done);
                        }
                        Err(e) => {
                            // The batch is gone and may be half applied:
                            // this sub-stream's order can no longer be
                            // trusted, so the client stops.
                            out.failed += 1;
                            out.last_error = Some(format!("submit: {e}"));
                            break 'window;
                        }
                    }
                }
                Op::Stale | Op::Fresh => {
                    let fresh = op == Op::Fresh;
                    out.attempted += 1;
                    let name = if fresh { "read_fresh" } else { "read_stale" };
                    let span = tracer.begin(name, NO_SPAN, op_id);
                    let res = client.read(fresh, false);
                    let ns = t0.elapsed().as_nanos() as u64;
                    tracer.end(span);
                    match res {
                        Ok(r) => {
                            out.violations += u64::from(r.violated);
                            if fresh {
                                out.fresh.push(ns);
                            } else {
                                out.stale.push(ns);
                            }
                        }
                        Err(e) => {
                            out.failed += 1;
                            out.last_error = Some(format!("read: {e}"));
                        }
                    }
                }
            }
        }
    }
    out.cpu_s = thread_cpu_s() - cpu0;
    out.retries = client.retry_stats();
    out.tracer = tracer;
    out
}
