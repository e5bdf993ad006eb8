//! Runtime observability: counters and log-bucketed histograms.
//!
//! The runtime keeps everything here as plain integers/floats updated on
//! the scheduler thread; [`MetricsSnapshot`] is the cheap copy handed to
//! callers (the server answers metrics requests with one).

/// A log₂-bucketed histogram of `u64` samples (nanoseconds for
/// latencies, milli-units for model costs). Bucket `i` covers values
/// with bit-length `i`, so quantiles are accurate to within 2×, which is
/// plenty for p99 tracking without allocating per sample.
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    buckets: [u64; 64],
    count: u64,
    sum: u128,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let bucket = (64 - v.leading_zeros()).min(63) as usize;
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Folds another histogram's samples into this one. Because buckets
    /// are fixed log₂ ranges, the merge is exact: quantiles of the
    /// merged histogram equal those of recording every sample into one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Upper bound of the bucket holding the `q`-quantile sample
    /// (`q ∈ [0, 1]`); 0 when empty. The true value is within a factor
    /// of 2 below the returned bound (exact for the maximum).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Bucket i holds values in [2^(i-1), 2^i); report the
                // upper bound, capped by the observed maximum.
                let bound = if i >= 63 { u64::MAX } else { (1u64 << i) - 1 };
                return bound.min(self.max);
            }
        }
        self.max
    }

    /// Condenses the histogram into a snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            mean: if self.count == 0 {
                0.0
            } else {
                self.sum as f64 / self.count as f64
            },
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            max: self.max,
        }
    }
}

/// Summary statistics of a [`LatencyHistogram`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Arithmetic mean of all samples.
    pub mean: f64,
    /// Median (bucket upper bound).
    pub p50: u64,
    /// 90th percentile (bucket upper bound).
    pub p90: u64,
    /// 99th percentile (bucket upper bound).
    pub p99: u64,
    /// Largest sample (exact).
    pub max: u64,
}

/// A point-in-time copy of the runtime's counters.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// DML events ingested into pending delta tables.
    pub events_ingested: u64,
    /// Scheduler ticks executed (including idle ones).
    pub ticks: u64,
    /// Non-empty flush batches executed per base table.
    pub flushes_per_table: Vec<u64>,
    /// Modifications flushed per base table.
    pub mods_flushed_per_table: Vec<u64>,
    /// Flush invocations with a non-zero action (policy ticks and forced
    /// fresh-read flushes).
    pub flush_count: u64,
    /// Total model cost charged across all flushes.
    pub total_flush_cost: f64,
    /// Largest single-flush model cost observed.
    pub max_flush_cost: f64,
    /// Per-flush model cost distribution, in milli-cost-units.
    pub flush_cost_millis: HistogramSnapshot,
    /// Fresh (flush-then-read) reads served.
    pub fresh_reads: u64,
    /// Stale (current materialized `V`) reads served through the
    /// scheduler (model backend, or before the first snapshot).
    pub stale_reads: u64,
    /// Stale reads served wait-free from a published flush-boundary
    /// snapshot, bypassing the scheduler entirely (threaded server
    /// with an engine backend).
    pub snapshot_reads: u64,
    /// End-to-end fresh-read refresh latency in nanoseconds (queue wait
    /// plus flush, when served through the threaded server).
    pub refresh_latency_ns: HistogramSnapshot,
    /// Ingest-queue depth at snapshot time (threaded server only).
    pub queue_depth: usize,
    /// High-water mark of the ingest-queue depth (threaded server only).
    pub max_queue_depth: usize,
    /// Times the paper's validity invariant was broken: a post-action
    /// state left full, or a fresh read whose flush cost exceeded `C`.
    /// Must be zero for a correct policy; the CI smoke gate fails
    /// otherwise.
    pub constraint_violations: u64,
    /// Times the flush policy was demoted to `NaiveFlush` (a panic,
    /// an overdrawing decision, or an injected flush error). At most 1:
    /// demotion is permanent.
    pub policy_demotions: u64,
    /// Flush attempts that failed with an injected transient error.
    pub flush_errors: u64,
    /// Ticks whose measured flush cost exceeded the estimate by more
    /// than the drift ratio.
    pub cost_overruns: u64,
    /// Cost-model recalibrations triggered by sustained overruns.
    pub recalibrations: u64,
    /// Times this runtime's state was rebuilt from WAL + checkpoint.
    pub recoveries: u64,
    /// Records appended to the attached WAL (0 without one).
    pub wal_records: u64,
    /// WAL records appended but not yet fsynced — the window of events
    /// a crash could lose. Bounded by the writer's sync interval.
    pub wal_fsync_lag: u64,
    /// The attached WAL writer's fsync interval (0 without a WAL;
    /// 1 = every record, `u64::MAX` = never).
    pub wal_sync_every: u64,
    /// True once the runtime has entered graceful degradation: the
    /// flush policy was permanently demoted to `NaiveFlush` after a
    /// panic, an overdrawing decision, or an injected flush error.
    pub degraded: bool,
    /// Sheddable ingest messages dropped by the overloaded queue
    /// (threaded server only).
    pub shed_events: u64,
    /// Ingest messages the scheduler rejected with an error (threaded
    /// server only; e.g. DML for an unknown table).
    pub ingest_errors: u64,
    /// The most recent scheduler-loop error, if any (threaded server
    /// only). A non-`None` value means the scheduler hit a hard engine
    /// error and stopped maintaining.
    pub last_error: Option<String>,
    /// The refresh budget `C` currently in force (a shard coordinator
    /// may rebalance it mid-run).
    pub budget: f64,
    /// Times the budget was changed mid-run by
    /// [`MaintenanceRuntime::set_budget`](crate::MaintenanceRuntime::set_budget).
    pub budget_rebalances: u64,
}

/// Per-view counters in a [`MultiMetricsSnapshot`].
#[derive(Clone, Debug, Default)]
pub struct ViewMetricsSnapshot {
    /// Registry view id.
    pub view: u32,
    /// Sharing-group index.
    pub group: u32,
    /// Flushes this view has closed (its snapshot seq head).
    pub flushes: u64,
    /// Pending modifications not yet reflected in the view (its
    /// group's backlog, summed over tables).
    pub pending: u64,
    /// Ticks after which refreshing this view's group would have
    /// exceeded the budget `C`, plus fresh reads of it that did (must
    /// stay 0 for a correct policy).
    pub violations: u64,
    /// Delta batches published for this view.
    pub deltas_pushed: u64,
    /// Live push subscribers.
    pub subscribers: u64,
    /// Largest observed subscriber lag (seqs behind head).
    pub sub_lag_max: u64,
}

/// A [`MetricsSnapshot`] with the view axis attached.
#[derive(Clone, Debug, Default)]
pub struct MultiMetricsSnapshot {
    /// Runtime-global counters. Per-table vectors run over the
    /// (group × table) cell axis.
    pub global: MetricsSnapshot,
    /// Per-view rows, indexed by view id.
    pub views: Vec<ViewMetricsSnapshot>,
    /// Sharing groups in the registry.
    pub groups: u64,
    /// Join propagations actually executed.
    pub propagations: u64,
    /// Propagations saved by sharing (each would have been paid by an
    /// independent runtime).
    pub shared_propagations: u64,
}

/// Mutable counter state owned by the runtime.
#[derive(Clone, Debug, Default)]
pub(crate) struct Metrics {
    pub events_ingested: u64,
    pub ticks: u64,
    pub flushes_per_table: Vec<u64>,
    pub mods_flushed_per_table: Vec<u64>,
    pub flush_count: u64,
    pub max_flush_cost: f64,
    pub flush_cost_millis: LatencyHistogram,
    pub fresh_reads: u64,
    pub stale_reads: u64,
    pub refresh_latency_ns: LatencyHistogram,
    pub policy_demotions: u64,
    pub flush_errors: u64,
    pub cost_overruns: u64,
    pub recalibrations: u64,
    pub recoveries: u64,
    pub budget_rebalances: u64,
}

impl Metrics {
    pub(crate) fn new(n: usize) -> Self {
        Metrics {
            flushes_per_table: vec![0; n],
            mods_flushed_per_table: vec![0; n],
            ..Metrics::default()
        }
    }

    /// Records one executed flush action (model cost and per-table
    /// counts); zero actions are not flushes.
    pub(crate) fn record_flush(&mut self, action: &aivm_core::Counts, cost: f64) {
        if action.is_zero() {
            return;
        }
        self.flush_count += 1;
        self.max_flush_cost = self.max_flush_cost.max(cost);
        self.flush_cost_millis
            .record((cost * 1000.0).round() as u64);
        for i in 0..action.len() {
            if action[i] > 0 {
                self.flushes_per_table[i] += 1;
                self.mods_flushed_per_table[i] += action[i];
            }
        }
    }

    /// The counters this struct owns; the runtime and the server fill in
    /// what they own (the ledger's cost and violations, WAL position,
    /// queue depths, budget, …).
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            events_ingested: self.events_ingested,
            ticks: self.ticks,
            flushes_per_table: self.flushes_per_table.clone(),
            mods_flushed_per_table: self.mods_flushed_per_table.clone(),
            flush_count: self.flush_count,
            max_flush_cost: self.max_flush_cost,
            flush_cost_millis: self.flush_cost_millis.snapshot(),
            fresh_reads: self.fresh_reads,
            stale_reads: self.stale_reads,
            refresh_latency_ns: self.refresh_latency_ns.snapshot(),
            policy_demotions: self.policy_demotions,
            flush_errors: self.flush_errors,
            cost_overruns: self.cost_overruns,
            recalibrations: self.recalibrations,
            recoveries: self.recoveries,
            degraded: self.policy_demotions > 0,
            budget_rebalances: self.budget_rebalances,
            ..MetricsSnapshot::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let mut h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        let s = h.snapshot();
        assert!(s.p50 >= 500 / 2 && s.p50 <= 1023, "p50 = {}", s.p50);
        assert!(s.p99 >= 990 / 2, "p99 = {}", s.p99);
        assert_eq!(s.max, 1000);
        assert!((s.mean - 500.5).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = LatencyHistogram::new().snapshot();
        assert_eq!(s, HistogramSnapshot::default());
    }

    #[test]
    fn zero_sample_is_representable() {
        let mut h = LatencyHistogram::new();
        h.record(0);
        assert_eq!(h.quantile(1.0), 0);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let (mut a, mut b, mut both) = (
            LatencyHistogram::new(),
            LatencyHistogram::new(),
            LatencyHistogram::new(),
        );
        for v in [1u64, 7, 130, 9000, 3] {
            a.record(v);
            both.record(v);
        }
        for v in [2u64, 65_000, 12] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a.snapshot(), both.snapshot());
    }

    #[test]
    fn flush_recording_skips_zero_actions() {
        let mut m = Metrics::new(2);
        m.record_flush(&aivm_core::Counts::zero(2), 0.0);
        assert_eq!(m.flush_count, 0);
        m.record_flush(&aivm_core::Counts::from_slice(&[3, 0]), 2.5);
        assert_eq!(m.flush_count, 1);
        assert_eq!(m.flushes_per_table, vec![1, 0]);
        assert_eq!(m.mods_flushed_per_table, vec![3, 0]);
        assert_eq!(m.snapshot().flush_cost_millis.count, 1);
    }
}
