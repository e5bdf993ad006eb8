//! Empirical cost-function measurement (the Fig. 1 / Fig. 4 harness).
//!
//! §2 of the paper: cost functions can be *"measured by experiments"*.
//! [`measure_cost_function`] runs real maintenance flushes against
//! cloned database/view states for a sweep of batch sizes and records
//! wall-clock time, producing samples that convert into
//! [`CostModel::Piecewise`] (faithful curve) or a fitted
//! [`CostModel::Linear`] (the §3.3 shape).

use crate::db::Database;
use crate::delta::Modification;
use crate::error::EngineError;
use crate::ivm::MaterializedView;
use aivm_core::CostModel;
use std::time::Instant;

/// Sweep configuration.
#[derive(Clone, Debug)]
pub struct MeasureConfig {
    /// Batch sizes to measure.
    pub batch_sizes: Vec<u64>,
    /// Trials per batch size; the median is kept.
    pub trials: usize,
}

impl Default for MeasureConfig {
    fn default() -> Self {
        MeasureConfig {
            batch_sizes: vec![1, 5, 10, 25, 50, 100, 200, 400],
            trials: 3,
        }
    }
}

/// A measured cost curve for one base table of a view.
#[derive(Clone, Debug)]
pub struct CostMeasurement {
    /// The measured base table's position in the view.
    pub table_pos: usize,
    /// `(batch size, median milliseconds)` samples, ascending in size.
    pub samples: Vec<(u64, f64)>,
    /// Executor work of the same flushes, one entry per sample: the
    /// median over trials of rows scanned + index probes + rows emitted.
    /// Counted, so unlike the timings no machine load can reorder it.
    pub work: Vec<u64>,
}

impl CostMeasurement {
    /// The samples as a piecewise-linear cost model satisfying the §2
    /// axioms: monotone and subadditive.
    ///
    /// Raw medians can dip non-monotonically from timer noise, and a
    /// single scheduling spike at one batch size can make the raw curve
    /// convex — super-additive — which breaks the premise of the LGM
    /// search space (lazy plans are only guaranteed optimal under
    /// subadditive costs). The samples are first lifted to their running
    /// maximum (monotone), then to their upper concave envelope; a
    /// concave curve through the origin is subadditive, and the
    /// extrapolation beyond the last sample reuses the final segment's
    /// slope, so the property holds at every batch size. The envelope is
    /// a majorant of the samples: costs are never underestimated.
    pub fn to_piecewise(&self) -> CostModel {
        let mut lifted = Vec::with_capacity(self.samples.len() + 1);
        lifted.push((0u64, 0.0f64));
        let mut running = 0.0f64;
        for &(k, ms) in &self.samples {
            running = running.max(ms);
            lifted.push((k, running));
        }
        // Upper concave envelope via a monotone hull stack: a point on
        // or below the chord of its neighbours is dropped.
        let mut hull: Vec<(u64, f64)> = Vec::with_capacity(lifted.len());
        for p in lifted {
            while hull.len() >= 2 {
                let a = hull[hull.len() - 2];
                let b = hull[hull.len() - 1];
                let below = (b.1 - a.1) * (p.0 - a.0) as f64 <= (p.1 - a.1) * (b.0 - a.0) as f64;
                if below {
                    hull.pop();
                } else {
                    break;
                }
            }
            hull.push(p);
        }
        // Drop the explicit origin: `Piecewise` prepends it implicitly.
        hull.remove(0);
        CostModel::Piecewise { points: hull }
    }

    /// Least-squares linear fit of the samples (§3.3 form), `None` when
    /// fewer than two samples were taken.
    pub fn fit_linear(&self) -> Option<CostModel> {
        CostModel::fit_linear(&self.samples)
    }
}

/// Measures the cost of flushing batches of modifications of one base
/// table through the view.
///
/// `workload(&db)` is called once per modification and must return one
/// modification of table `table_pos` that is *valid against the current
/// database state* passed to it — typically an update of a randomly
/// chosen existing row. Modifications are applied as they are generated
/// (arrival-time semantics), so an update stream that hits the same row
/// twice in one batch observes the intermediate state, exactly like a
/// live system. Each trial runs against clones of the database and
/// view, so trials are independent and the caller's state is never
/// mutated.
pub fn measure_cost_function<F>(
    db: &Database,
    view: &MaterializedView,
    table_pos: usize,
    mut workload: F,
    config: &MeasureConfig,
) -> Result<CostMeasurement, EngineError>
where
    F: FnMut(&Database) -> Modification,
{
    let table_name = view.def().tables[table_pos].clone();
    let mut samples = Vec::with_capacity(config.batch_sizes.len());
    let mut work = Vec::with_capacity(config.batch_sizes.len());
    for &k in &config.batch_sizes {
        let mut times = Vec::with_capacity(config.trials);
        let mut counted = Vec::with_capacity(config.trials);
        for _ in 0..config.trials.max(1) {
            let mut db2 = db.clone();
            let mut view2 = view.clone();
            let table_id = db2.table_id(&table_name)?;
            for _ in 0..k {
                let m = workload(&db2);
                db2.apply(table_id, &m)?;
                view2.enqueue(table_pos, m);
            }
            let mut counts = vec![0u64; view2.n()];
            counts[table_pos] = k;
            // Warm the freshly cloned storage (fault pages, populate
            // caches) so the timed flush sees steady-state memory, like
            // a long-running system would.
            let mut warm = 0u64;
            for name in &view2.def().tables.clone() {
                for (_, row) in db2.table_by_name(name)?.iter() {
                    warm = warm.wrapping_add(row.len() as u64);
                }
            }
            std::hint::black_box(warm);
            let start = Instant::now();
            let exec = view2.flush(&db2, &counts)?.exec;
            times.push(start.elapsed().as_secs_f64() * 1e3);
            counted.push(exec.rows_scanned + exec.index_probes + exec.rows_emitted);
        }
        times.sort_by(|a, b| a.total_cmp(b));
        samples.push((k, times[times.len() / 2]));
        counted.sort_unstable();
        work.push(counted[counted.len() / 2]);
    }
    Ok(CostMeasurement {
        table_pos,
        samples,
        work,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexKind;
    use crate::ivm::{JoinPred, MinStrategy, ViewDef};
    use crate::row;
    use crate::schema::Schema;
    use crate::value::DataType;
    use aivm_core::CostFn;

    fn setup() -> (Database, MaterializedView) {
        let mut db = Database::new();
        let r = db
            .create_table(
                "r",
                Schema::new(vec![("k", DataType::Int), ("x", DataType::Float)]),
            )
            .unwrap();
        let s = db
            .create_table(
                "s",
                Schema::new(vec![("k", DataType::Int), ("tag", DataType::Str)]),
            )
            .unwrap();
        db.table_mut(r).create_index(IndexKind::Hash, 0).unwrap();
        db.set_key_column(r, 1); // x is unique below
        for i in 0..200i64 {
            db.table_mut(r).insert(row![i % 20, i as f64]).unwrap();
        }
        for i in 0..500i64 {
            db.table_mut(s).insert(row![i % 20, "t"]).unwrap();
        }
        let def = ViewDef {
            name: "v".into(),
            tables: vec!["r".into(), "s".into()],
            join_preds: vec![JoinPred {
                left: (0, 0),
                right: (1, 0),
            }],
            filters: vec![None, None],
            residual: None,
            projection: None,
            aggregate: None,
            distinct: false,
        };
        let view = MaterializedView::new(&db, def, MinStrategy::Multiset).unwrap();
        (db, view)
    }

    #[test]
    fn measurement_produces_monotone_piecewise() {
        let (db, view) = setup();
        // Workload: insert fresh S rows (always valid).
        let mut next = 10_000i64;
        let cfg = MeasureConfig {
            batch_sizes: vec![1, 4, 16],
            trials: 2,
        };
        let m = measure_cost_function(
            &db,
            &view,
            1,
            |_| {
                next += 1;
                Modification::Insert(row![next % 20, "new"])
            },
            &cfg,
        )
        .unwrap();
        assert_eq!(m.samples.len(), 3);
        let pw = m.to_piecewise();
        assert!(pw.check_monotone(20));
        // Costs are positive.
        assert!(pw.eval(16) > 0.0);
    }

    #[test]
    fn convex_noise_is_lifted_to_a_subadditive_envelope() {
        // A scheduling spike at k = 15 makes the raw samples convex:
        // f(5) + f(5) = 0.2 < f(10) ≈ 5 under plain interpolation, so a
        // planner would wrongly prefer many tiny flushes. The envelope
        // replaces the sagging prefix with the chord from the origin.
        let m = CostMeasurement {
            table_pos: 0,
            samples: vec![(5, 0.1), (15, 10.0), (30, 10.5)],
            work: vec![],
        };
        let pw = m.to_piecewise();
        assert!(pw.check_monotone(100));
        assert!(pw.check_subadditive(100));
        // Majorant: never below a sample.
        assert!(pw.eval(5) >= 0.1);
        assert!(pw.eval(15) >= 10.0 - 1e-9);
        assert!(pw.eval(30) >= 10.5 - 1e-9);
        // Subadditivity at the point the raw curve violated it.
        assert!(pw.eval(10) <= pw.eval(5) + pw.eval(5) + 1e-9);
        // Dipping medians (non-monotone raw data) still work.
        let m2 = CostMeasurement {
            table_pos: 0,
            samples: vec![(5, 3.0), (15, 2.0), (30, 8.0)],
            work: vec![],
        };
        let pw2 = m2.to_piecewise();
        assert!(pw2.check_monotone(100));
        assert!(pw2.check_subadditive(100));
    }

    #[test]
    fn linear_fit_available_with_enough_samples() {
        let (db, view) = setup();
        let cfg = MeasureConfig {
            batch_sizes: vec![1, 8],
            trials: 1,
        };
        let mut next = 50_000i64;
        let m = measure_cost_function(
            &db,
            &view,
            0,
            |_| {
                next += 1;
                Modification::Insert(row![next % 20, next as f64])
            },
            &cfg,
        )
        .unwrap();
        assert!(m.fit_linear().is_some());
    }

    #[test]
    fn caller_state_is_untouched() {
        let (db, view) = setup();
        let rows_before = db.table_by_name("s").unwrap().len();
        let cfg = MeasureConfig {
            batch_sizes: vec![4],
            trials: 1,
        };
        let mut next = 0i64;
        measure_cost_function(
            &db,
            &view,
            1,
            |_| {
                next += 1;
                Modification::Insert(row![next % 20, "x"])
            },
            &cfg,
        )
        .unwrap();
        assert_eq!(db.table_by_name("s").unwrap().len(), rows_before);
        assert_eq!(view.pending_counts(), vec![0, 0]);
    }

    #[test]
    fn repeated_updates_of_same_row_in_one_batch_are_valid() {
        // The generator sees intermediate state, so chained updates of a
        // single row form a consistent delete/insert chain.
        let (db, view) = setup();
        let cfg = MeasureConfig {
            batch_sizes: vec![8],
            trials: 1,
        };
        let m = measure_cost_function(
            &db,
            &view,
            0,
            |db| {
                // Always update the row whose x-key is the current value
                // of row with k = 0 … chain updates on one physical row.
                let t = db.table_by_name("r").unwrap();
                let (_, row0) = t.iter().next().unwrap();
                let mut vals: Vec<_> = row0.values().to_vec();
                let old = row0.clone();
                let bumped = vals[1].as_float().unwrap() + 1000.0;
                vals[1] = crate::value::Value::Float(bumped);
                Modification::Update {
                    old,
                    new: crate::schema::Row::new(vals),
                }
            },
            &cfg,
        )
        .unwrap();
        assert_eq!(m.samples.len(), 1);
    }
}
