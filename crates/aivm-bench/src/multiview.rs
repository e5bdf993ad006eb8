//! Shared-propagation head-to-head: one registry serving N views vs
//! N independent single-view runtimes fed the same stream.
//!
//! The paper's scheduler exploits per-table cost asymmetry for one
//! view; [`run_multiview`] measures what the multi-view generalization
//! buys. Both stacks ingest the identical pre-generated TPC-R update
//! stream with the identical batch/tick cadence and end with one fresh
//! read per view, so the only difference is propagation sharing: the
//! registry propagates each base-table delta batch once per sharing
//! group and fans the join delta out to every member, while each
//! independent runtime pays the full join propagation itself.
//!
//! The run is synchronous and single-threaded on both sides — no
//! sockets, no scheduler threads — so the wall-clock ratio isolates
//! the engine-level work, and every view's final checksum is asserted
//! equal between the two stacks (the shared flush path is
//! bit-identical to independent maintenance).

use crate::serve::ServeExperiment;
use aivm_engine::{EngineError, MaterializedView, MinStrategy, Modification};
use aivm_serve::{MaintenanceRuntime, ReadMode};
use std::time::{Duration, Instant};

/// Options of a multi-view comparison run.
#[derive(Clone, Debug)]
pub struct MultiviewOptions {
    /// Registered views (≥ 1); all share the paper view's SPJ core.
    pub views: usize,
    /// Events ingested between scheduler ticks, on both stacks.
    pub batch: usize,
    /// Flush policy driving both stacks (`naive`/`online`/`planned`).
    pub policy: String,
}

impl Default for MultiviewOptions {
    fn default() -> Self {
        MultiviewOptions {
            views: 64,
            batch: 64,
            policy: "online".into(),
        }
    }
}

/// What the head-to-head measured.
#[derive(Clone, Debug)]
pub struct MultiviewReport {
    /// Views registered (and independent runtimes run).
    pub views: usize,
    /// Sharing groups in the registry (1 for paper-view variants).
    pub groups: u64,
    /// Events of the shared base-delta stream (each independent
    /// runtime ingested all of them again).
    pub events: u64,
    /// Wall-clock of the registry stack (ingest + ticks + one fresh
    /// read per view).
    pub shared_elapsed: Duration,
    /// Summed wall-clock of the `views` independent runtimes driven
    /// through the identical loop.
    pub independent_elapsed: Duration,
    /// Join propagations the registry actually executed.
    pub propagations: u64,
    /// Propagations sharing saved (each one was paid for real by some
    /// independent runtime).
    pub shared_propagations: u64,
    /// Views whose final checksum differed between the stacks (must
    /// be 0).
    pub checksum_mismatches: u64,
    /// Registry-side violations: scheduler validity-invariant breaches
    /// plus per-view forced-refresh overruns (must be 0).
    pub violations: u64,
    /// Violations across the independent runtimes (must be 0).
    pub independent_violations: u64,
    /// Delta batches the registry published to its subscription hub.
    pub deltas_pushed: u64,
}

impl MultiviewReport {
    /// Stream events per second through the shared registry stack.
    pub fn shared_events_per_sec(&self) -> f64 {
        self.events as f64 / self.shared_elapsed.as_secs_f64().max(1e-9)
    }

    /// Stream events per second through the independent stack (the
    /// stream counts once; serving it to N views costs N runs).
    pub fn independent_events_per_sec(&self) -> f64 {
        self.events as f64 / self.independent_elapsed.as_secs_f64().max(1e-9)
    }

    /// Wall-clock advantage of shared propagation.
    pub fn speedup(&self) -> f64 {
        self.independent_elapsed.as_secs_f64() / self.shared_elapsed.as_secs_f64().max(1e-9)
    }

    /// True when every invariant held: bit-identical final state per
    /// view and zero violations on either stack.
    pub fn ok(&self) -> bool {
        self.checksum_mismatches == 0 && self.violations == 0 && self.independent_violations == 0
    }
}

/// The interleaved (table, modification) stream both stacks replay:
/// alternating per-table batches, preserving each table's order.
fn interleave(exp: &ServeExperiment, batch: usize) -> Vec<(usize, Modification)> {
    let b = batch.max(1);
    let mut out = Vec::with_capacity(exp.ps_stream.len() + exp.supp_stream.len());
    let (mut pi, mut si) = (0, 0);
    while pi < exp.ps_stream.len() || si < exp.supp_stream.len() {
        for _ in 0..b {
            if pi >= exp.ps_stream.len() {
                break;
            }
            out.push((exp.ps_pos, exp.ps_stream[pi].clone()));
            pi += 1;
        }
        for _ in 0..b {
            if si >= exp.supp_stream.len() {
                break;
            }
            out.push((exp.supp_pos, exp.supp_stream[si].clone()));
            si += 1;
        }
    }
    out
}

/// Runs the head-to-head described in the module docs and returns the
/// measurements. Checksum equality and violation counts are recorded,
/// not asserted — callers gate on [`MultiviewReport::ok`].
pub fn run_multiview(
    exp: &ServeExperiment,
    opts: &MultiviewOptions,
) -> Result<MultiviewReport, EngineError> {
    let views = opts.views.max(1);
    let stream = interleave(exp, opts.batch);
    let batch = opts.batch.max(1);

    // Shared stack: one registry, every event ingested once.
    let mut rt = exp.registry_runtime(&opts.policy, views)?;
    let shared_started = Instant::now();
    for (i, (table, m)) in stream.iter().enumerate() {
        rt.ingest_dml(*table, m.clone())?;
        if (i + 1) % batch == 0 {
            rt.tick()?;
        }
    }
    let mut shared_checksums = Vec::with_capacity(views);
    let mut violations = 0u64;
    for v in 0..views {
        let r = rt.read_view(v, ReadMode::Fresh)?;
        if r.violated {
            violations += 1;
        }
        shared_checksums.push(rt.registry().result_checksum(v));
    }
    let shared_elapsed = shared_started.elapsed();
    let mm = rt.metrics();
    violations += mm.global.constraint_violations;
    violations += mm.views.iter().map(|v| v.violations).sum::<u64>();
    let deltas_pushed = mm.views.iter().map(|v| v.deltas_pushed).sum::<u64>();

    // Independent stack: the same loop once per view, full stream and
    // full propagation each time.
    let defs = exp.variant_view_defs(views);
    let mut independent_elapsed = Duration::ZERO;
    let mut checksum_mismatches = 0u64;
    let mut independent_violations = 0u64;
    for (v, def) in defs.into_iter().enumerate() {
        let db = exp.genesis_db();
        let view = MaterializedView::new(&db, def, MinStrategy::Multiset)?;
        let policy = exp
            .policy(&opts.policy)
            .unwrap_or_else(|| panic!("unknown policy {:?}", opts.policy));
        let mut solo = MaintenanceRuntime::engine(exp.config(), policy, db, view)?;
        let started = Instant::now();
        for (i, (table, m)) in stream.iter().enumerate() {
            solo.ingest_dml(*table, m.clone())?;
            if (i + 1) % batch == 0 {
                solo.tick()?;
            }
        }
        let r = solo.read(ReadMode::Fresh)?;
        if r.violated {
            independent_violations += 1;
        }
        independent_elapsed += started.elapsed();
        independent_violations += solo.metrics().constraint_violations;
        if solo.view_checksum() != Some(shared_checksums[v]) {
            checksum_mismatches += 1;
        }
    }

    Ok(MultiviewReport {
        views,
        groups: mm.groups,
        events: stream.len() as u64,
        shared_elapsed,
        independent_elapsed,
        propagations: mm.propagations,
        shared_propagations: mm.shared_propagations,
        checksum_mismatches,
        violations,
        independent_violations,
        deltas_pushed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::ServeOptions;

    #[test]
    fn shared_registry_matches_independent_runtimes() {
        let exp = ServeExperiment::build(ServeOptions {
            events_each: 200,
            quick: true,
            ..Default::default()
        })
        .expect("build");
        let r = run_multiview(
            &exp,
            &MultiviewOptions {
                views: 5,
                batch: 32,
                ..Default::default()
            },
        )
        .expect("multiview run");
        assert_eq!(r.views, 5);
        assert_eq!(r.groups, 1, "variants share one SPJ core");
        assert_eq!(r.events, 400);
        assert_eq!(r.checksum_mismatches, 0, "shared flush diverged");
        assert_eq!(r.violations, 0);
        assert_eq!(r.independent_violations, 0);
        assert!(
            r.shared_propagations > 0,
            "sharing saved no propagations: {r:?}"
        );
        assert!(r.ok());
    }
}
