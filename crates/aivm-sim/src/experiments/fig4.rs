//! Figure 4: measured cost functions for the paper's evaluation view.
//!
//! The view is `MIN(ps.supplycost)` over the four-way join
//! PartSupp ⋈ Supplier ⋈ Nation ⋈ Region with `R.name = 'MIDDLE EAST'`
//! (§5). Batches of PartSupp `supplycost` updates and Supplier
//! `nationkey` updates are flushed through the live engine and timed;
//! the paper observes PartSupp updates staying fairly stable after an
//! initial increase and Supplier updates costing more because PartSupp
//! (the table their propagation must scan) is much larger.

use crate::report::{fnum, ExpTable};
use aivm_core::CostModel;
use aivm_engine::{measure_cost_function, CostMeasurement, MeasureConfig, MinStrategy};
use aivm_tpcr::{generate, install_paper_view, TpcrConfig, UpdateGen};

/// Configuration of the Fig. 4 measurement.
#[derive(Clone, Debug)]
pub struct Fig4Config {
    /// Database scale.
    pub scale: TpcrConfig,
    /// Batch sizes to measure.
    pub batch_sizes: Vec<u64>,
    /// Trials per size (median kept).
    pub trials: usize,
    /// Which MIN maintenance strategy the view uses (the paper's SQL
    /// statements behave like `Recompute`).
    pub strategy: MinStrategy,
    /// Seed for data and update generation.
    pub seed: u64,
}

impl Default for Fig4Config {
    fn default() -> Self {
        Fig4Config {
            scale: TpcrConfig::medium(),
            batch_sizes: vec![25, 50, 100, 200, 400, 800],
            trials: 3,
            strategy: MinStrategy::Recompute,
            seed: 4,
        }
    }
}

/// Measurement results for the two updated tables.
#[derive(Clone, Debug)]
pub struct Fig4Result {
    /// PartSupp `supplycost` update batches.
    pub partsupp: CostMeasurement,
    /// Supplier `nationkey` update batches.
    pub supplier: CostMeasurement,
}

impl Fig4Result {
    /// Linear fits `(f_PartSupp, f_Supplier)` in milliseconds.
    pub fn fits(&self) -> (Option<CostModel>, Option<CostModel>) {
        (self.partsupp.fit_linear(), self.supplier.fit_linear())
    }

    /// The measured curves as monotone subadditive piecewise cost models
    /// `[f_PartSupp, f_Supplier]`, ready to drive the simulator.
    pub fn piecewise(&self) -> Vec<CostModel> {
        vec![self.partsupp.to_piecewise(), self.supplier.to_piecewise()]
    }
}

/// Runs the measurement.
pub fn run(config: &Fig4Config) -> Fig4Result {
    let mut data = generate(&config.scale, config.seed);
    let view = install_paper_view(&mut data.db, config.strategy).expect("paper view installs");
    let ps_pos = view.table_position("partsupp").expect("partsupp in view");
    let s_pos = view.table_position("supplier").expect("supplier in view");
    let cfg = MeasureConfig {
        batch_sizes: config.batch_sizes.clone(),
        trials: config.trials,
    };

    let mut gen_ps = UpdateGen::new(&data, config.seed + 1);
    let partsupp = measure_cost_function(
        &data.db,
        &view,
        ps_pos,
        |db| gen_ps.partsupp_update(db),
        &cfg,
    )
    .expect("partsupp measurement");

    let mut gen_s = UpdateGen::new(&data, config.seed + 2);
    let supplier =
        measure_cost_function(&data.db, &view, s_pos, |db| gen_s.supplier_update(db), &cfg)
            .expect("supplier measurement");

    Fig4Result { partsupp, supplier }
}

/// Runs and renders the two series.
pub fn table(config: &Fig4Config) -> ExpTable {
    let r = run(config);
    let mut t = ExpTable::new(
        "Figure 4: measured maintenance cost of the 4-way MIN view",
        &["batch", "PartSupp upd (ms)", "Supplier upd (ms)"],
    );
    t.note(format!(
        "scale: {} suppliers, {} partsupp rows; MIN strategy: {:?}",
        config.scale.suppliers,
        config.scale.parts * config.scale.partsupp_per_part,
        config.strategy
    ));
    for (&(k, ps), &(_, s)) in r.partsupp.samples.iter().zip(&r.supplier.samples) {
        t.row(vec![k.to_string(), fnum(ps), fnum(s)]);
    }
    if let (Some(CostModel::Linear { a: ap, b: bp }), Some(CostModel::Linear { a: as_, b: bs })) =
        r.fits()
    {
        t.note(format!(
            "linear fits: f_PS ≈ {:.4}·k + {:.2}, f_S ≈ {:.4}·k + {:.2}",
            ap, bp, as_, bs
        ));
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Fig4Config {
        Fig4Config {
            scale: TpcrConfig::small(),
            batch_sizes: vec![5, 20, 60],
            trials: 2,
            strategy: MinStrategy::Multiset,
            seed: 14,
        }
    }

    #[test]
    fn supplier_updates_cost_more_than_partsupp() {
        // The paper's headline asymmetry: ΔSupplier propagation scans
        // PartSupp (the big table); ΔPartSupp probes indexes only. At
        // the smallest batches the flush-time delta consolidation can
        // cancel repeated updates to the same supplier (few suppliers
        // at this scale), so only batches large enough for the per-row
        // propagation cost to dominate carry the asymmetry. It is
        // asserted on the executor work the timed flushes counted:
        // their wall-clock medians can swap under machine load.
        let r = run(&quick());
        let batches = r.partsupp.samples.iter().map(|&(k, _)| k);
        for (k, (ps, s)) in batches.zip(r.partsupp.work.iter().zip(&r.supplier.work)) {
            if k < 20 {
                continue;
            }
            assert!(
                s > ps,
                "batch {k}: supplier work {s} must exceed partsupp work {ps}"
            );
        }
    }

    #[test]
    fn piecewise_models_are_usable() {
        use aivm_core::CostFn;
        let r = run(&quick());
        let models = r.piecewise();
        assert_eq!(models.len(), 2);
        for m in &models {
            assert!(m.check_monotone(100));
            assert!(m.eval(60) > 0.0);
        }
    }

    #[test]
    fn recompute_strategy_also_measures() {
        let cfg = Fig4Config {
            strategy: MinStrategy::Recompute,
            batch_sizes: vec![5, 20],
            trials: 1,
            scale: TpcrConfig::small(),
            seed: 15,
        };
        let r = run(&cfg);
        assert_eq!(r.partsupp.samples.len(), 2);
    }
}
