//! Exact latency samples and the few order statistics the reports use.
//!
//! Every timing in the benchmark is a `u64` nanosecond sample pushed
//! into a vector sized before the measured window opens; percentiles
//! are nearest-rank over the sorted samples. No histogram buckets: a
//! 10 % change must read as a 10 % change.

/// Samples of one operation class, in nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

/// A percentile is reported only when at least this many samples lie
/// beyond it (p99 needs 1 000 samples), never extrapolated.
pub const MIN_BEYOND: usize = 10;

impl Samples {
    pub fn with_capacity(cap: usize) -> Samples {
        Samples {
            ns: Vec::with_capacity(cap),
            sorted: false,
        }
    }

    #[inline]
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn merge(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
        self.sorted = false;
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
    }

    /// Nearest-rank percentile `q` in (0, 1], or `None` when fewer than
    /// [`MIN_BEYOND`] samples lie beyond it.
    pub fn percentile(&mut self, q: f64) -> Option<u64> {
        let n = self.ns.len();
        if n == 0 {
            return None;
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        if q > 0.5 && n - rank < MIN_BEYOND {
            return None;
        }
        self.sort();
        Some(self.ns[rank - 1])
    }

    /// [`Samples::percentile`] in milliseconds.
    pub fn percentile_ms(&mut self, q: f64) -> Option<f64> {
        self.percentile(q).map(|ns| ns as f64 / 1e6)
    }

    /// [`Samples::percentile`] in microseconds.
    pub fn percentile_us(&mut self, q: f64) -> Option<f64> {
        self.percentile(q).map(|ns| ns as f64 / 1e3)
    }
}

/// Median of a small set of floats (upper middle of an even count; the
/// callers use odd counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// First and third quartile, by the same method as Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which is what the
/// acceptance check of a run-to-run spread uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| -> f64 {
        // Position i·(n+1)/4 on a 1-based axis, linearly interpolated
        // and clamped to the data.
        let pos = i as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n.max(2) - 1);
        let frac = (pos - j as f64).clamp(0.0, 1.0);
        v[j - 1] + frac * (v[j.min(n - 1)] - v[j - 1])
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_and_the_ten_beyond_rule() {
        let mut s = Samples::with_capacity(1000);
        for i in 1..=999u64 {
            s.push(i);
        }
        assert_eq!(s.percentile(0.5), Some(500));
        assert_eq!(s.percentile(0.99), None, "only 9 samples beyond p99");
        s.push(1000);
        assert_eq!(s.percentile(0.99), Some(990));
        assert_eq!(s.percentile(0.9), Some(900));
        assert_eq!(Samples::default().percentile(0.5), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
