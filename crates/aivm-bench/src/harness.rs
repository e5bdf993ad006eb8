//! Minimal benchmark harness.
//!
//! The offline build environment has no `criterion`, so the bench
//! targets use this hand-rolled harness instead. It times and prints;
//! nothing is written to disk. Numbers that a change is judged by come
//! from the `perf` package (`perf run`), which records the commit,
//! machine and noise band alongside them.

use std::time::{Duration, Instant};

/// One measured benchmark.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Benchmark id, e.g. `astar/paper/400`.
    pub name: String,
    /// Iterations per sample actually run.
    pub iters: u64,
    /// Median nanoseconds per iteration across samples.
    pub ns_per_iter: f64,
}

impl Measurement {
    fn human(&self) -> String {
        let ns = self.ns_per_iter;
        if ns >= 1e9 {
            format!("{:.3} s", ns / 1e9)
        } else if ns >= 1e6 {
            format!("{:.3} ms", ns / 1e6)
        } else if ns >= 1e3 {
            format!("{:.3} µs", ns / 1e3)
        } else {
            format!("{ns:.1} ns")
        }
    }
}

/// A named suite of benchmarks; each measurement is printed as it
/// completes.
pub struct Suite {
    target: Duration,
    samples: usize,
}

impl Suite {
    /// Creates a suite and prints its name as a header.
    pub fn new(name: &str) -> Self {
        println!("== {name}");
        Suite {
            target: Duration::from_millis(250),
            samples: 5,
        }
    }

    /// Benchmarks `f`, auto-calibrating the iteration count so one
    /// sample takes roughly the target time.
    pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) -> Measurement {
        // Warm up and estimate a single-iteration cost.
        let t0 = Instant::now();
        std::hint::black_box(f());
        let once = t0.elapsed().max(Duration::from_nanos(1));
        let iters = (self.target.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;
        let mut sample_ns: Vec<f64> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            sample_ns.push(start.elapsed().as_nanos() as f64 / iters as f64);
        }
        record(name, iters, sample_ns)
    }

    /// Benchmarks `routine` on a fresh `setup()` value per iteration;
    /// setup time is excluded from the measurement.
    pub fn bench_with_setup<T, R>(
        &mut self,
        name: &str,
        mut setup: impl FnMut() -> T,
        mut routine: impl FnMut(T) -> R,
    ) -> Measurement {
        let input = setup();
        let t0 = Instant::now();
        std::hint::black_box(routine(input));
        let once = t0.elapsed().max(Duration::from_nanos(1));
        let iters = (self.target.as_nanos() / once.as_nanos()).clamp(1, 100_000) as u64;
        let mut sample_ns: Vec<f64> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                let input = setup();
                let start = Instant::now();
                std::hint::black_box(routine(input));
                total += start.elapsed();
            }
            sample_ns.push(total.as_nanos() as f64 / iters as f64);
        }
        record(name, iters, sample_ns)
    }

    /// Benchmarks a long-running `f` with three samples of one
    /// iteration each (for whole-sweep timings where calibration would
    /// be wasteful).
    pub fn bench_once<R>(&mut self, name: &str, mut f: impl FnMut() -> R) -> Measurement {
        let sample_ns = (0..3)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(f());
                start.elapsed().as_nanos() as f64
            })
            .collect();
        record(name, 1, sample_ns)
    }
}

/// Takes the median of `sample_ns` and prints it.
fn record(name: &str, iters: u64, mut sample_ns: Vec<f64>) -> Measurement {
    sample_ns.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let m = Measurement {
        name: name.to_string(),
        iters,
        ns_per_iter: sample_ns[sample_ns.len() / 2],
    };
    println!(
        "{:<44} {:>14}  ({} iters/sample)",
        m.name,
        m.human(),
        m.iters
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_the_median_sample() {
        let mut s = Suite {
            target: Duration::from_millis(2),
            samples: 3,
        };
        let m = s.bench("noop", || 1 + 1);
        assert_eq!(m.name, "noop");
        assert!(m.iters >= 1 && m.ns_per_iter >= 0.0);
        let once = s.bench_once("sleep", || std::thread::sleep(Duration::from_millis(1)));
        assert_eq!(once.iters, 1);
        assert!(once.ns_per_iter >= 1e6);
    }
}
