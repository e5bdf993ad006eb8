//! The open-loop driver of `views-mixed-open`: schedule threads issue
//! Submit, Stale-read and Fresh-read requests at fixed due times
//! whether or not the system keeps up, and one subscriber thread folds
//! and checksum-verifies every pushed `ViewDelta`.
//!
//! Writes and Stale reads share one schedule thread and connection;
//! Fresh reads have their own. A Fresh read holds its connection for
//! several milliseconds — longer than the gap between two Submits — so
//! on a shared thread every Fresh read would make the writes behind it
//! late, and the run would measure its own generator.
//!
//! Every latency is measured from the operation's *due* time, so a
//! stall is charged to every request it delays, and the generator's own
//! lateness is reported beside it.

use crate::inputs::ClientStreams;
use crate::proc::thread_cpu_s;
use crate::span::{SliceClock, Tracer, NO_SPAN};
use crate::stats::Samples;
use crate::wire::{ClientOutcome, Op, Sizing};
use aivm_client::{Client, Subscription, SubscriptionEvent};
use aivm_engine::{rows_checksum, WRow};
use aivm_serve::{fold_delta, DeltaBatch};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Offered load in operations per second; a class at 0 is not issued.
#[derive(Clone, Copy, Debug)]
pub struct Rates {
    pub submit: f64,
    pub stale: f64,
    pub fresh: f64,
}

impl Rates {
    pub fn scaled(self, by: f64) -> Rates {
        Rates {
            submit: self.submit * by,
            stale: self.stale * by,
            fresh: self.fresh * by,
        }
    }

    /// The share of the load the write-and-Stale-read thread issues.
    pub fn without_fresh(self) -> Rates {
        Rates { fresh: 0.0, ..self }
    }

    /// The share of the load the Fresh-read thread issues.
    pub fn fresh_only(self) -> Rates {
        Rates {
            submit: 0.0,
            stale: 0.0,
            ..self
        }
    }
}

/// The fixed schedule: class `c`'s `k`-th operation is due at
/// `(k + phase_c) / rate_c` seconds, the phases keeping the classes
/// from coinciding on every beat.
struct Schedule {
    period_ns: [f64; 3],
    phase: [f64; 3],
    next: [u64; 3],
    end_ns: u64,
}

const CLASSES: [Op; 3] = [Op::Submit, Op::Stale, Op::Fresh];

/// How long before a due time the schedule thread stops sleeping and
/// spins.
const SPIN: Duration = Duration::from_micros(300);

impl Schedule {
    fn new(rates: Rates, window: Duration) -> Schedule {
        Schedule {
            period_ns: [1e9 / rates.submit, 1e9 / rates.stale, 1e9 / rates.fresh],
            phase: [0.0, 0.5, 0.25],
            next: [0; 3],
            end_ns: window.as_nanos() as u64,
        }
    }

    /// Due offset of the class's next operation (a class at rate 0 has
    /// an infinite period, so it is never due).
    fn due_ns(&self, class: usize) -> u64 {
        if self.period_ns[class].is_infinite() {
            return u64::MAX;
        }
        ((self.next[class] as f64 + self.phase[class]) * self.period_ns[class]) as u64
    }

    /// The next operation and its due offset, or `None` past the window.
    fn pop(&mut self) -> Option<(Op, u64)> {
        let class = (0..3)
            .min_by_key(|&c| self.due_ns(c))
            .expect("three classes");
        let due = self.due_ns(class);
        if due >= self.end_ns {
            return None;
        }
        self.next[class] += 1;
        Some((CLASSES[class], due))
    }

    /// Operations of each class the whole window holds.
    fn counts(rates: Rates, window: Duration) -> [usize; 3] {
        let s = window.as_secs_f64();
        [rates.submit, rates.stale, rates.fresh].map(|r| (r * s).ceil() as usize + 1)
    }
}

/// Submit batches the window needs per table (1:1 mix).
pub fn batches_needed(rates: Rates, window: Duration) -> usize {
    Schedule::counts(rates, window)[0] / 2 + 1
}

/// Runs one thread's schedule against a registry server with `views`
/// views. Submits alternate PartSupp and Supplier batches; reads walk
/// the views round-robin.
#[allow(clippy::too_many_arguments)]
pub fn run_schedule(
    client: Client,
    mut streams: ClientStreams,
    positions: (usize, usize),
    views: u32,
    rates: Rates,
    window: Duration,
    start: &Barrier,
    mut tracer: Tracer,
) -> ClientOutcome {
    let counts = Schedule::counts(rates, window);
    let mut out = ClientOutcome::new(&Sizing {
        submits: counts[0],
        reads: counts[1].max(counts[2]),
        slices: crate::span::whole_slices(window.as_nanos() as u64) + 1,
    });
    out.late = Samples::with_capacity(counts.iter().sum());
    start.wait();
    let started = Instant::now();
    let clock = SliceClock { start: started };
    let cpu0 = thread_cpu_s();
    let mut schedule = Schedule::new(rates, window);
    let (ps_pos, supp_pos) = positions;
    let mut submits = 0usize;
    let mut reads = 0u32;
    let mut op_id = 0u64;
    while let Some((op, due_ns)) = schedule.pop() {
        let due = started + Duration::from_nanos(due_ns);
        op_id += 1;
        let traced = clock.traced_at(due);
        tracer.set_on(traced);
        if Instant::now() < due {
            // Sleep to just short of the due time, then spin: a bare
            // sleep overshoots by tens to hundreds of microseconds,
            // which is the size of a Submit or Stale round trip.
            let span = tracer.begin("wait_due", NO_SPAN, op_id);
            if let Some(nap) = due
                .saturating_duration_since(Instant::now())
                .checked_sub(SPIN)
            {
                std::thread::sleep(nap);
            }
            while Instant::now() < due {
                std::hint::spin_loop();
            }
            tracer.end(span);
        }
        let sent = Instant::now();
        out.late
            .push(sent.saturating_duration_since(due).as_nanos() as u64);
        out.attempted += 1;
        match op {
            Op::Submit => {
                submits += 1;
                let (pos, queue) = if submits.is_multiple_of(2) {
                    (supp_pos, &mut streams.supplier)
                } else {
                    (ps_pos, &mut streams.partsupp)
                };
                let Some(batch) = queue.pop() else {
                    out.attempted -= 1;
                    out.exhausted = true;
                    break;
                };
                out.first_send.get_or_insert(sent);
                let span = tracer.begin("submit", NO_SPAN, op_id);
                let res = client.submit(pos as u32, batch);
                let done = Instant::now();
                tracer.end(span);
                match res {
                    Ok(accepted) => {
                        out.submit.push(done.duration_since(due).as_nanos() as u64);
                        out.events_acked += accepted;
                        if let Some(n) = out.slice_acked.get_mut(clock.slice_of(done)) {
                            *n += accepted;
                        }
                        out.last_ack = Some(done);
                    }
                    Err(e) => {
                        out.failed += 1;
                        out.last_error = Some(format!("submit: {e}"));
                        break;
                    }
                }
            }
            Op::Stale | Op::Fresh => {
                let fresh = op == Op::Fresh;
                let view = reads % views;
                reads += 1;
                let name = if fresh { "read_fresh" } else { "read_stale" };
                let span = tracer.begin(name, NO_SPAN, op_id);
                let res = client.read_view(view, fresh, false);
                let ns = due.elapsed().as_nanos() as u64;
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
    out.cpu_s = thread_cpu_s() - cpu0;
    out.retries = client.retry_stats();
    out.tracer = tracer;
    out
}

/// What the subscriber thread saw.
#[derive(Default)]
pub struct SubscriberOutcome {
    pub deltas: u64,
    /// Full-state resyncs after the initial head snapshot (the server
    /// resyncs a subscriber that fell off its bounded delta ring).
    pub resyncs: u64,
    pub checksum_errors: u64,
    /// Serialized size proxy: delta rows received.
    pub delta_rows: u64,
    pub last_error: Option<String>,
    pub cpu_s: f64,
}

/// Folds every pushed event into local state and verifies each
/// post-fold checksum, until the stopper closes the stream.
pub fn run_subscriber(sub: Subscription) -> SubscriberOutcome {
    let mut out = SubscriberOutcome::default();
    let cpu0 = thread_cpu_s();
    let mut state: Vec<WRow> = Vec::new();
    let mut snapshots = 0u64;
    for ev in sub {
        let want = match ev {
            Ok(SubscriptionEvent::Snapshot { rows, checksum, .. }) => {
                snapshots += 1;
                state = rows;
                checksum
            }
            Ok(SubscriptionEvent::Delta {
                view,
                seq,
                checksum,
                staleness,
                rows,
            }) => {
                out.deltas += 1;
                out.delta_rows += rows.len() as u64;
                let batch = DeltaBatch {
                    view,
                    seq,
                    rows,
                    checksum,
                    staleness,
                };
                state = fold_delta(state, &batch);
                checksum
            }
            Err(e) => {
                out.last_error = Some(format!("subscriber: {e}"));
                break;
            }
        };
        out.checksum_errors += u64::from(rows_checksum(&state) != want);
    }
    out.resyncs = snapshots.saturating_sub(1);
    out.cpu_s = thread_cpu_s() - cpu0;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_fixed_and_holds_its_rates() {
        let rates = Rates {
            submit: 300.0,
            stale: 300.0,
            fresh: 40.0,
        };
        let mut s = Schedule::new(rates, Duration::from_secs(2));
        let mut n = [0usize; 3];
        let mut last = 0;
        while let Some((op, due)) = s.pop() {
            assert!(due >= last, "due times never go back");
            last = due;
            n[CLASSES.iter().position(|&c| c == op).unwrap()] += 1;
        }
        assert_eq!(n, [600, 600, 80]);
        let cap = Schedule::counts(rates, Duration::from_secs(2));
        assert!(n.iter().zip(cap).all(|(n, cap)| *n <= cap));
        assert!(batches_needed(rates, Duration::from_secs(2)) >= 300);
        // A thread's share of the load leaves the other classes out.
        let mut fresh = Schedule::new(rates.fresh_only(), Duration::from_secs(2));
        let mut n = 0;
        while let Some((op, _)) = fresh.pop() {
            assert_eq!(op, Op::Fresh);
            n += 1;
        }
        assert_eq!(n, 80);
    }
}
