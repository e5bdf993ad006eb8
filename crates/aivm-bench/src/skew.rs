//! Skew sweep: heavy-light partitioned maintenance vs the plain
//! compensated index join under zipfian update streams.
//!
//! The driver materializes a two-table `MIN(supplycost)` view over
//! PartSupp ⋈ Supplier — the asymmetric pair of the paper's §5 view —
//! and replays identical pre-generated update streams through two
//! [`MaintenanceRuntime`]s that differ only in whether heavy-light
//! partitioning is enabled. `supplier.nationkey` is not referenced by
//! this view, so a supplier's nationkey churn is dead-column churn:
//! live-column propagation cancels it in the start delta for every key,
//! on either path, before any join fan-out. (Before that, only the heavy
//! path's column reduction did, and the plain path paid the full
//! `O(fan-out)` expansion per delta row — the p99 gain this sweep was
//! built to show. What still separates the paths is that heavy partials
//! are net processed-prefix rows, so a hot key's expansion emits no ±
//! compensation pairs.) Results are bit-identical by construction
//! ([`SkewRun::checksum`] must match across the pair), so the sweep
//! measures pure propagation cost: fresh-read latency quantiles per zipf
//! exponent.
//!
//! Latencies are timed in the driver (not read from the runtime's
//! histogram) so the classifier's warm-up reads — the first few
//! batches run at plain speed until the frequency sketch has seen
//! [`aivm_engine::HeavyLightConfig::min_observations`] keys — can be
//! excluded from the quantiles.

use aivm_core::CostFn;
use aivm_engine::{
    estimate_cost_functions, parse_view, CostConstants, EngineError, HeavyLightConfig,
    MaterializedView, MinStrategy,
};
use aivm_serve::{MaintenanceRuntime, OnlineFlush, ReadMode, ServeConfig};
use aivm_tpcr::{generate, pregenerate_streams_skewed, TpcrConfig};
use std::time::{Duration, Instant};

/// The sweep's two-table view: the paper view's asymmetric join pair
/// without the Nation/Region dimension arms, so `supplier` contributes
/// no referenced column besides the join key.
pub const SKEW_VIEW_SQL: &str = "\
SELECT MIN(ps.supplycost) \
FROM partsupp AS ps, supplier AS s \
WHERE s.suppkey = ps.suppkey";

/// The zipf exponents the default sweep visits; `0.0` is the uniform
/// stream (no key repeats its rank advantage, nothing goes heavy).
pub const SKEW_POINTS: [f64; 4] = [0.0, 0.6, 1.0, 1.4];

/// Options of a skew-sweep run.
#[derive(Clone, Debug)]
pub struct SkewOptions {
    /// Updates pre-generated per updated table.
    pub events_each: usize,
    /// Events ingested between forced fresh reads (the flush width the
    /// latency quantiles are measured over).
    pub batch: usize,
    /// Fresh reads excluded from the quantiles while the frequency
    /// sketch warms up (those run at plain speed by design).
    pub warmup_reads: usize,
    /// Small scale when set; the paper-shaped medium scale otherwise.
    pub quick: bool,
    /// Seed of the generated database and update streams.
    pub seed: u64,
    /// Refresh budget `C`; derived from measured costs when `None`.
    pub budget: Option<f64>,
}

impl Default for SkewOptions {
    fn default() -> Self {
        SkewOptions {
            events_each: 4_000,
            batch: 64,
            warmup_reads: 12,
            quick: false,
            seed: 2005,
            budget: None,
        }
    }
}

/// Measured outcome of one (skew, heavy-light) configuration.
#[derive(Clone, Debug)]
pub struct SkewRun {
    /// Zipf exponent of the update streams (0 = uniform).
    pub skew: f64,
    /// Whether heavy-light partitioning was enabled.
    pub heavy_light: bool,
    /// Final view checksum — must be bit-identical to the paired run.
    pub checksum: u64,
    /// Median fresh-read latency, warm-up excluded.
    pub fresh_p50_ns: u64,
    /// p99 fresh-read latency, warm-up excluded.
    pub fresh_p99_ns: u64,
    /// Fresh reads that entered the quantiles.
    pub measured_reads: u64,
    /// Validity-invariant violations (must be 0).
    pub violations: u64,
    /// Join steps that degraded to a scan (must be 0: the view is
    /// auto-indexed on its join columns).
    pub scan_fallbacks: u64,
    /// Join keys classified heavy at the end of the run.
    pub heavy_keys: u64,
    /// Promotions + demotions over the run.
    pub reclassifications: u64,
    /// Delta rows routed through materialized heavy partials.
    pub heavy_hits: u64,
    /// Delta rows routed through the compensated light index join.
    pub light_hits: u64,
    /// Join output rows emitted during propagation.
    pub rows_emitted: u64,
    /// Events ingested.
    pub events: u64,
    /// Wall-clock time of the replay.
    pub elapsed: Duration,
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Replays the skewed streams through one runtime configuration. The
/// database, view, streams, policy and budget are identical for a given
/// `(opts, skew)` regardless of `heavy_light`, so paired runs disagree
/// only in propagation strategy — never in results.
pub fn run_skew_config(
    opts: &SkewOptions,
    skew: f64,
    heavy_light: bool,
) -> Result<SkewRun, EngineError> {
    // The skew scales keep the PartSupp population of the stock scales
    // but spread it over 4x fewer suppliers (fan-out 80 quick, 320
    // full): the steeper join makes whatever a path fails to cancel
    // before the fan-out show in proportion to the asymmetry rather
    // than to flush bookkeeping.
    let scale = if opts.quick {
        TpcrConfig {
            suppliers: 25,
            ..TpcrConfig::small()
        }
    } else {
        TpcrConfig {
            suppliers: 250,
            ..TpcrConfig::medium()
        }
    };
    let mut data = generate(&scale, opts.seed);
    let def = parse_view(&data.db, "min_supplycost_ps_supp", SKEW_VIEW_SQL)?;
    let mut view = MaterializedView::register(&mut data.db, def, MinStrategy::Multiset)?;
    if heavy_light {
        view.set_heavy_light(&data.db, HeavyLightConfig::from_cost_model())?;
    }
    let costs = estimate_cost_functions(&data.db, view.def(), &CostConstants::default())?;
    let ps_pos = view
        .table_position("partsupp")
        .expect("view joins partsupp");
    let supp_pos = view
        .table_position("supplier")
        .expect("view joins supplier");
    // Same headroom rule as the serve experiments: a producer batch per
    // tick, times 3 so batching pays off (see `ServeExperiment::build`).
    let budget = opts.budget.unwrap_or_else(|| {
        3.0 * costs[ps_pos]
            .eval(opts.batch as u64)
            .max(costs[supp_pos].eval(opts.batch as u64))
    });
    let (ps_stream, supp_stream) = pregenerate_streams_skewed(
        &data,
        opts.events_each,
        opts.seed ^ 1,
        (skew > 0.0).then_some(skew),
    );
    let cfg = ServeConfig::new(costs, budget);
    let mut rt = MaintenanceRuntime::engine(cfg, Box::new(OnlineFlush::new()), data.db, view)?;

    let started = Instant::now();
    let mut events = 0u64;
    let mut latencies: Vec<u64> = Vec::new();
    let mut reads = 0usize;
    let mut ps_it = ps_stream.into_iter();
    let mut supp_it = supp_stream.into_iter();
    loop {
        let mut any = false;
        for _ in 0..(opts.batch / 2).max(1) {
            if let Some(m) = ps_it.next() {
                rt.ingest_dml(ps_pos, m)?;
                events += 1;
                any = true;
            }
            if let Some(m) = supp_it.next() {
                rt.ingest_dml(supp_pos, m)?;
                events += 1;
                any = true;
            }
        }
        if !any {
            break;
        }
        let read_started = Instant::now();
        rt.read_view_at(0, ReadMode::Fresh, read_started)?;
        reads += 1;
        if reads > opts.warmup_reads {
            latencies.push(read_started.elapsed().as_nanos() as u64);
        }
    }
    let elapsed = started.elapsed();

    let metrics = rt.metrics();
    let stats = *rt.maintenance_stats().expect("engine backend");
    latencies.sort_unstable();
    Ok(SkewRun {
        skew,
        heavy_light,
        checksum: rt.view_checksum().expect("engine backend"),
        fresh_p50_ns: percentile(&latencies, 0.50),
        fresh_p99_ns: percentile(&latencies, 0.99),
        measured_reads: latencies.len() as u64,
        violations: metrics.constraint_violations,
        scan_fallbacks: stats.exec.scan_fallbacks,
        heavy_keys: stats.heavy.heavy_keys,
        reclassifications: stats.heavy.reclassifications(),
        heavy_hits: stats.exec.heavy_hits,
        light_hits: stats.exec.light_hits,
        rows_emitted: stats.exec.rows_emitted,
        events,
        elapsed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> SkewOptions {
        SkewOptions {
            events_each: 400,
            warmup_reads: 4,
            quick: true,
            ..Default::default()
        }
    }

    #[test]
    fn paired_runs_are_bit_identical_and_clean() {
        let opts = quick_opts();
        let plain = run_skew_config(&opts, 1.4, false).expect("plain run");
        let heavy = run_skew_config(&opts, 1.4, true).expect("heavy run");
        assert_eq!(plain.checksum, heavy.checksum, "results must not diverge");
        assert_eq!(plain.violations, 0);
        assert_eq!(heavy.violations, 0);
        assert_eq!(plain.scan_fallbacks, 0);
        assert_eq!(heavy.scan_fallbacks, 0);
        assert_eq!(plain.heavy_keys, 0, "partitioning off tracks nothing");
        assert!(heavy.heavy_keys > 0, "zipf 1.4 promotes the hot suppliers");
        assert!(heavy.heavy_hits > 0, "hot-key deltas took the heavy path");
        assert!(
            heavy.rows_emitted < plain.rows_emitted,
            "net partials must shed the ± compensation pairs ({} vs {})",
            heavy.rows_emitted,
            plain.rows_emitted
        );
    }

    #[test]
    fn uniform_stream_promotes_nothing() {
        let heavy = run_skew_config(&quick_opts(), 0.0, true).expect("run");
        assert_eq!(heavy.violations, 0);
        assert_eq!(heavy.heavy_keys, 0, "uniform keys stay under threshold");
        assert_eq!(heavy.heavy_hits, 0);
    }
}
