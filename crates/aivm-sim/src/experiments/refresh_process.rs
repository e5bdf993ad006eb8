//! Refresh-process experiment (extension): the operational pub/sub
//! setting with *multiple, condition-driven* refresh instants.
//!
//! The paper's model refreshes once at a known/estimated `T`; a running
//! pub/sub server instead refreshes whenever a subscriber's notification
//! condition fires (§1). This experiment drives NAIVE and ONLINE through
//! streams whose refresh instants come from three condition kinds —
//! periodic, memoryless (Bernoulli), and drift-threshold over a random
//! walk — and compares against the episodic optimum (per-episode A\*,
//! exactly optimal for linear costs).

use crate::report::{fnum, ExpTable};
use crate::runner::episodic_optimal;
use aivm_core::{Arrivals, CostModel, Counts, Instance};
use aivm_solver::{run_policy_with_refreshes, NaivePolicy, OnlinePolicy};
use aivm_workload::{refresh_times, Bernoulli, DriftThreshold, Periodic};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the refresh-process experiment.
#[derive(Clone, Debug)]
pub struct RefreshProcessConfig {
    /// Stream horizon.
    pub horizon: usize,
    /// Response-time budget.
    pub budget: f64,
    /// Per-table cost functions.
    pub costs: Vec<CostModel>,
    /// Seed for the drift random walk and Bernoulli draws.
    pub seed: u64,
}

impl Default for RefreshProcessConfig {
    fn default() -> Self {
        RefreshProcessConfig {
            horizon: 1000,
            budget: super::FIG6_BUDGET,
            costs: super::default_costs(),
            seed: 31,
        }
    }
}

/// One refresh process's results.
#[derive(Clone, Debug)]
pub struct RefreshProcessRow {
    /// Condition label.
    pub condition: String,
    /// Number of refresh instants that fired.
    pub refreshes: usize,
    /// NAIVE's total cost.
    pub naive: f64,
    /// ONLINE's total cost.
    pub online: f64,
    /// The episodic optimum (lower bound).
    pub opt: f64,
}

/// Generates a bounded random walk (the "oil price") for the drift
/// condition.
fn random_walk(horizon: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut v = 100.0f64;
    (0..=horizon)
        .map(|_| {
            v = (v + rng.gen_range(-2.0..2.0)).max(1.0);
            v
        })
        .collect()
}

/// Runs all three refresh processes on the same arrival stream.
pub fn run(config: &RefreshProcessConfig) -> Vec<RefreshProcessRow> {
    let inst = Instance::new(
        config.costs.clone(),
        Arrivals::uniform(Counts::from_slice(&[1, 1]), config.horizon),
        config.budget,
    );
    let walk = random_walk(config.horizon, config.seed);
    let conditions: Vec<(String, Vec<usize>)> = vec![
        (
            "periodic(250)".into(),
            refresh_times(&mut Periodic::new(250), walk.iter().copied()),
        ),
        (
            "bernoulli(1/200)".into(),
            refresh_times(
                &mut Bernoulli::new(1.0 / 200.0, config.seed + 1),
                walk.iter().copied(),
            ),
        ),
        (
            "drift(5%)".into(),
            refresh_times(&mut DriftThreshold::new(0.05), walk.iter().copied()),
        ),
    ];
    conditions
        .into_iter()
        .map(|(condition, instants)| {
            let naive = run_policy_with_refreshes(&inst, &mut NaivePolicy::new(), &instants)
                .expect("naive valid")
                .1
                .total_cost;
            let online = run_policy_with_refreshes(&inst, &mut OnlinePolicy::new(), &instants)
                .expect("online valid")
                .1
                .total_cost;
            let opt = episodic_optimal(&inst, &instants);
            RefreshProcessRow {
                condition,
                refreshes: instants.len(),
                naive,
                online,
                opt,
            }
        })
        .collect()
}

/// Runs and renders the experiment.
pub fn table(config: &RefreshProcessConfig) -> ExpTable {
    let rows = run(config);
    let mut t = ExpTable::new(
        "Refresh processes (extension): condition-driven notification instants",
        &[
            "condition",
            "refreshes",
            "NAIVE",
            "ONLINE",
            "OPT (episodic)",
            "NAIVE/OPT",
            "ONLINE/OPT",
        ],
    );
    t.note(format!(
        "C = {}; T = {}; 1+1 updates/step; conditions observe a seeded random walk",
        config.budget, config.horizon
    ));
    for r in &rows {
        t.row(vec![
            r.condition.clone(),
            r.refreshes.to_string(),
            fnum(r.naive),
            fnum(r.online),
            fnum(r.opt),
            fnum(r.naive / r.opt),
            fnum(r.online / r.opt),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> RefreshProcessConfig {
        RefreshProcessConfig {
            horizon: 400,
            ..Default::default()
        }
    }

    #[test]
    fn policies_stay_valid_and_bounded_by_optimum() {
        for r in run(&quick()) {
            assert!(r.opt > 0.0, "{}", r.condition);
            assert!(r.naive + 1e-9 >= r.opt, "{}", r.condition);
            assert!(r.online + 1e-9 >= r.opt, "{}", r.condition);
            assert!(
                r.online <= r.naive + 1e-9,
                "{}: ONLINE {} should not lose to NAIVE {}",
                r.condition,
                r.online,
                r.naive
            );
        }
    }

    #[test]
    fn conditions_fire_different_patterns() {
        let rows = run(&quick());
        assert_eq!(rows.len(), 3);
        let periodic = &rows[0];
        assert_eq!(periodic.refreshes, 1, "one periodic instant in 400 steps");
    }

    #[test]
    fn table_renders() {
        let t = table(&quick());
        assert_eq!(t.rows.len(), 3);
    }
}
