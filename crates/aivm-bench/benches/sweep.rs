//! Whole-sweep benches: the figure-6/7 refresh-time sweeps at explicit
//! worker widths, measuring the parallel fan-out speedup end to end.
//!
//! Thread widths are forced per measurement with
//! [`aivm_sim::set_thread_override`], so `AIVM_THREADS` in the
//! environment does not skew the series.

use aivm_bench::harness::Suite;
use aivm_sim::experiments::{fig6, fig7};
use aivm_sim::set_thread_override;
use std::hint::black_box;

fn main() {
    let mut s = Suite::new("sweep");
    let cfg6 = fig6::Fig6Config::default();
    let cfg7 = fig7::Fig7Config::default();
    for threads in [1usize, 2, 4] {
        set_thread_override(Some(threads));
        s.bench_once(&format!("fig6_sweep/threads={threads}"), || {
            black_box(fig6::run(&cfg6).len())
        });
    }
    for threads in [1usize, 4] {
        set_thread_override(Some(threads));
        s.bench_once(&format!("fig7_sweep/threads={threads}"), || {
            black_box(fig7::run(&cfg7).len())
        });
    }
    set_thread_override(None);
}
