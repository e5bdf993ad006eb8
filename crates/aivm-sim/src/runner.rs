//! Counts-only simulation of maintenance plans and policies.
//!
//! §5 of the paper: *"In order to speed up experiments over long update
//! arrival sequences, we simulate the execution of maintenance plans
//! instead of actually running them"*, charging each action its cost
//! under the measured cost functions. This module is that simulator; the
//! engine-backed validation lives in [`crate::actual`].

use aivm_core::{Counts, Instance, Plan, PlanError, PlanStats};
use aivm_solver::{run_policy, Policy};

/// Summary of a simulated plan execution.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanSummary {
    /// Label (NAIVE / OPT^LGM / ADAPT / ONLINE …).
    pub name: String,
    /// Total maintenance cost `f(P)`.
    pub total_cost: f64,
    /// Number of non-zero actions taken.
    pub actions: usize,
    /// Actions touching each table (`|P(i)|`).
    pub actions_per_table: Vec<usize>,
    /// Total modifications processed.
    pub total_mods: u64,
}

impl PlanSummary {
    /// Average cost per modification (the §1 example's headline metric).
    pub fn cost_per_mod(&self) -> f64 {
        if self.total_mods == 0 {
            0.0
        } else {
            self.total_cost / self.total_mods as f64
        }
    }
}

/// Simulates a precomputed plan: validates it against the instance and
/// summarizes.
pub fn simulate_plan(name: &str, inst: &Instance, plan: &Plan) -> Result<PlanSummary, PlanError> {
    Ok(summary(name, inst, plan.validate(inst)?))
}

/// Runs a policy through the instance's arrivals and summarizes the
/// realized plan.
pub fn simulate_policy(
    name: &str,
    inst: &Instance,
    policy: &mut dyn Policy,
) -> Result<(Plan, PlanSummary), PlanError> {
    let (plan, stats) = run_policy(inst, policy)?;
    Ok((plan, summary(name, inst, stats)))
}

fn summary(name: &str, inst: &Instance, stats: PlanStats) -> PlanSummary {
    PlanSummary {
        name: name.to_string(),
        total_cost: stats.total_cost,
        actions: stats.action_count,
        actions_per_table: stats.actions_per_table,
        total_mods: inst.arrivals.totals().total(),
    }
}

/// A lower bound on any strategy's cost under multiple refresh instants:
/// refreshes reset the state to zero, so episodes are independent and
/// the per-episode A\* optimum sums to a global optimum over LGM-style
/// schedules (exactly optimal for linear costs by Theorem 2).
pub fn episodic_optimal(inst: &Instance, refresh_times: &[usize]) -> f64 {
    let horizon = inst.horizon();
    let mut boundaries: Vec<usize> = refresh_times
        .iter()
        .copied()
        .filter(|&t| t < horizon)
        .collect();
    boundaries.push(horizon);
    boundaries.dedup();
    let mut windows: Vec<(usize, usize)> = Vec::with_capacity(boundaries.len());
    let mut start = 0usize;
    for &end in &boundaries {
        windows.push((start, end));
        start = end + 1;
        if start > horizon {
            break;
        }
    }
    // Episodes are independent A* problems; solve them on the configured
    // worker threads and sum in window order (deterministic).
    crate::par::par_map(&windows, |&(start, end)| {
        let steps: Vec<Counts> = (start..=end).map(|t| inst.arrivals.at(t)).collect();
        let episode = Instance::new(
            inst.costs.clone(),
            aivm_core::Arrivals::new(steps),
            inst.budget,
        );
        aivm_solver::optimal_lgm_plan(&episode).cost
    })
    .into_iter()
    .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aivm_core::{naive_plan, Arrivals, CostModel, Counts};
    use aivm_solver::NaivePolicy;

    fn inst() -> Instance {
        Instance::new(
            vec![CostModel::linear(1.0, 1.0), CostModel::linear(1.0, 3.0)],
            Arrivals::uniform(Counts::from_slice(&[1, 1]), 20),
            10.0,
        )
    }

    #[test]
    fn plan_and_policy_summaries_agree_for_naive() {
        let inst = inst();
        let plan = naive_plan(&inst);
        let a = simulate_plan("NAIVE", &inst, &plan).unwrap();
        let (_, b) = simulate_policy("NAIVE", &inst, &mut NaivePolicy::new()).unwrap();
        assert_eq!(a.total_cost, b.total_cost);
        assert_eq!(a.actions, b.actions);
        assert_eq!(a.total_mods, 42);
        assert!(a.cost_per_mod() > 0.0);
    }

    #[test]
    fn episodic_optimal_lower_bounds_the_refresh_runner() {
        let inst = inst();
        let mut policy = NaivePolicy::new();
        let (_, stats) =
            aivm_solver::run_policy_with_refreshes(&inst, &mut policy, &[5, 12]).expect("valid");
        // Refreshes at 5, 12 and the horizon 20 all force full flushes;
        // NAIVE may act in between as well.
        assert!(stats.action_count >= 3);
        // The episodic optimum lower-bounds the realized cost.
        let opt = episodic_optimal(&inst, &[5, 12]);
        assert!(opt <= stats.total_cost + 1e-9);
        assert!(opt > 0.0);
    }

    #[test]
    fn episodic_optimal_with_no_refreshes_matches_astar() {
        let inst = inst();
        let single = episodic_optimal(&inst, &[]);
        let direct = aivm_solver::optimal_lgm_plan(&inst).cost;
        assert!((single - direct).abs() < 1e-9);
    }

    #[test]
    fn invalid_plan_is_rejected() {
        let inst = inst();
        let empty = Plan {
            actions: vec![Counts::zero(2); 21],
        };
        assert!(simulate_plan("BAD", &inst, &empty).is_err());
    }
}
