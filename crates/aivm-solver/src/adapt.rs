//! ADAPT (§4.2): executing a plan optimized for an estimated refresh
//! time `T_0` when the actual refresh happens at some other time `T`.
//!
//! * `T = T_0`: the precomputed optimal LGM plan runs as-is.
//! * `T < T_0`: execution stops at `T` and all remaining modifications
//!   are processed then.
//! * `T > T_0`: the plan is executed repeatedly (assuming arrivals are
//!   periodic with period `T_0 + 1` steps) until `T`, where everything
//!   remaining is processed.
//!
//! For linear cost functions Theorem 4 bounds the adapted plan's cost by
//! `OPT_T + Σ b_i` when `T < T_0` and `OPT_T + ⌈T/T_0⌉·Σ b_i` when
//! `T > T_0`; [`theorem4_bound`] computes that bound so experiments can
//! check it.

use crate::astar::optimal_lgm_plan;
use crate::online::OnlinePolicy;
use crate::policy::{drive, Ledger, Policy, PolicyContext};
use aivm_core::{CostModel, Counts, Instance, Plan};

/// A precomputed schedule adapted to arbitrary refresh times.
#[derive(Clone, Debug)]
pub struct AdaptSchedule {
    /// The horizon `T_0` the base plan was optimized for.
    pub t0: usize,
    /// Flush subsets per step `t ∈ [0, T_0]` of the base plan.
    pub subsets: Vec<Vec<usize>>,
    /// Cost of the base plan on its own instance (diagnostics).
    pub base_cost: f64,
}

impl AdaptSchedule {
    /// Computes the optimal LGM plan for the estimation instance
    /// (horizon `T_0`) and wraps it as an adaptable schedule.
    pub fn precompute(estimation_instance: &Instance) -> Self {
        let sol = optimal_lgm_plan(estimation_instance);
        AdaptSchedule {
            t0: estimation_instance.horizon(),
            subsets: sol.plan.actions.iter().map(|p| p.support()).collect(),
            base_cost: sol.cost,
        }
    }

    /// Builds the schedule from an explicit plan (e.g. for tests).
    pub fn from_plan(t0: usize, plan: &Plan, base_cost: f64) -> Self {
        AdaptSchedule {
            t0,
            subsets: plan.actions.iter().map(|p| p.support()).collect(),
            base_cost,
        }
    }

    /// The flush subset scheduled at absolute time `t`, repeating with
    /// period `T_0 + 1` beyond the base horizon.
    pub fn subset_at(&self, t: usize) -> &[usize] {
        &self.subsets[t % (self.t0 + 1)]
    }

    /// The scheduled action at `t`: everything pending on
    /// [`AdaptSchedule::subset_at`]'s tables.
    fn flush_at(&self, t: usize, pre_state: &Counts) -> Counts {
        let mut p = Counts::zero(pre_state.len());
        for &i in self.subset_at(t) {
            p[i] = pre_state[i];
        }
        p
    }
}

/// The ADAPT policy: replays the precomputed flush subsets (cyclically
/// when `T > T_0`); the runner's forced final flush implements the
/// process-everything-at-`T` step for both `T < T_0` and `T > T_0`.
///
/// When the actual arrivals deviate from the predicted ones, the
/// scheduled subsets may no longer keep the budget. The paper does not
/// need a guard (it assumes periodic arrivals); a serving stream does.
/// [`AdaptPolicy::with_fallback`] hands the rest of the run to a freshly
/// reset ONLINE policy at the first step whose scheduled action would
/// leave the state full ([`AdaptPolicy::diverged`] reports it).
#[derive(Clone, Debug)]
pub struct AdaptPolicy {
    schedule: AdaptSchedule,
    fallback: Option<OnlinePolicy>,
    ctx: Option<PolicyContext>,
    diverged_at: Option<usize>,
}

impl AdaptPolicy {
    /// Creates a strict ADAPT policy (paper semantics; assumes the real
    /// arrivals match the predicted periodic sequence).
    pub fn new(schedule: AdaptSchedule) -> Self {
        AdaptPolicy {
            schedule,
            fallback: None,
            ctx: None,
            diverged_at: None,
        }
    }

    /// Creates an ADAPT policy that falls back to ONLINE for good once
    /// the stream outruns the schedule — the serving `planned` policy.
    pub fn with_fallback(schedule: AdaptSchedule) -> Self {
        AdaptPolicy {
            fallback: Some(OnlinePolicy::new()),
            ..Self::new(schedule)
        }
    }

    /// The step at which the stream diverged from the schedule and the
    /// ONLINE fallback took over, if it did.
    pub fn diverged(&self) -> Option<usize> {
        self.diverged_at
    }
}

impl Policy for AdaptPolicy {
    fn reset(&mut self, ctx: &PolicyContext) {
        self.ctx = Some(ctx.clone());
        self.diverged_at = None;
        if let Some(fallback) = &mut self.fallback {
            fallback.reset(ctx);
        }
    }

    fn act(&mut self, t: usize, pre_state: &Counts) -> Counts {
        let Some(fallback) = &mut self.fallback else {
            return self.schedule.flush_at(t, pre_state);
        };
        if self.diverged_at.is_some() {
            return fallback.act(t, pre_state);
        }
        let p = self.schedule.flush_at(t, pre_state);
        let post = pre_state.checked_sub(&p).expect("greedy flush ≤ pending");
        let ctx = self.ctx.as_ref().expect("reset before act");
        if ctx.is_full(&post) {
            // The live arrivals outran the plan's assumptions: ONLINE
            // takes over, reset so its rate estimates start from the
            // divergence point rather than stale zeros.
            self.diverged_at = Some(t);
            fallback.reset(ctx);
            return fallback.act(t, pre_state);
        }
        p
    }

    fn name(&self) -> &str {
        if self.fallback.is_some() {
            "planned"
        } else {
            "adapt"
        }
    }
}

/// Builds the adapted *plan* for an actual instance (horizon `T`) from a
/// schedule precomputed for `T_0`, using strict paper semantics. The
/// returned plan replays the scheduled subsets through `T − 1` and
/// flushes everything at `T`. It is not validated: callers do that.
pub fn adapt_plan(schedule: &AdaptSchedule, actual: &Instance) -> Plan {
    let mut policy = AdaptPolicy::new(schedule.clone());
    let ledger = Ledger::counting(PolicyContext::of(actual));
    drive(actual, &mut policy, ledger, &[]).expect("greedy flushes never overdraw")
}

/// The Theorem 4 additive bound for linear cost functions: given the
/// optimal cost `opt_t` over `[0, T]`, returns the upper bound on the
/// adapted plan's cost.
pub fn theorem4_bound(costs: &[CostModel], opt_t: f64, t: usize, t0: usize) -> f64 {
    let sum_b: f64 = costs
        .iter()
        .map(|c| match c {
            CostModel::Linear { b, .. } => *b,
            _ => panic!("Theorem 4 requires linear cost functions"),
        })
        .sum();
    if t <= t0 {
        opt_t + sum_b
    } else {
        opt_t + (t as f64 / t0 as f64).ceil() * sum_b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::astar::optimal_lgm_plan;
    use aivm_core::{Arrivals, CostModel};

    fn instance(horizon: usize) -> Instance {
        Instance::new(
            vec![CostModel::linear(1.0, 0.5), CostModel::linear(1.0, 4.0)],
            Arrivals::uniform(Counts::from_slice(&[1, 1]), horizon),
            8.0,
        )
    }

    #[test]
    fn adapt_at_t0_reproduces_base_plan_cost() {
        let inst = instance(20);
        let schedule = AdaptSchedule::precompute(&inst);
        let plan = adapt_plan(&schedule, &inst);
        let stats = plan.validate(&inst).expect("valid at T = T0");
        assert!((stats.total_cost - schedule.base_cost).abs() < 1e-9);
    }

    #[test]
    fn adapt_shorter_horizon_within_theorem4_bound() {
        let base = instance(500);
        let schedule = AdaptSchedule::precompute(&base);
        for t in [100usize, 250, 400] {
            let actual = instance(t);
            let plan = adapt_plan(&schedule, &actual);
            let stats = plan.validate(&actual).expect("valid for T < T0");
            let opt = optimal_lgm_plan(&actual); // linear ⇒ OPT^LGM = OPT
            let bound = theorem4_bound(&actual.costs, opt.cost, t, 500);
            assert!(
                stats.total_cost <= bound + 1e-9,
                "T={t}: adapted {} > bound {bound}",
                stats.total_cost
            );
            assert!(stats.total_cost + 1e-9 >= opt.cost);
        }
    }

    #[test]
    fn adapt_longer_horizon_within_theorem4_bound() {
        let base = instance(100);
        let schedule = AdaptSchedule::precompute(&base);
        for t in [150usize, 303, 500] {
            let actual = instance(t);
            let plan = adapt_plan(&schedule, &actual);
            let stats = plan.validate(&actual).expect("valid for T > T0");
            let opt = optimal_lgm_plan(&actual);
            let bound = theorem4_bound(&actual.costs, opt.cost, t, 100);
            assert!(
                stats.total_cost <= bound + 1e-9,
                "T={t}: adapted {} > bound {bound}",
                stats.total_cost
            );
        }
    }

    #[test]
    fn subset_cycles_with_period_t0_plus_one() {
        let inst = instance(10);
        let schedule = AdaptSchedule::precompute(&inst);
        for t in 0..=10 {
            assert_eq!(schedule.subset_at(t), schedule.subset_at(t + 11));
        }
    }

    #[test]
    fn fallback_policy_survives_heavier_arrivals() {
        let base = instance(50);
        let schedule = AdaptSchedule::precompute(&base);
        // Heavier arrivals than predicted: strict replay would violate
        // the budget; the fallback hands over to ONLINE instead.
        let heavy = Instance::new(
            base.costs.clone(),
            Arrivals::uniform(Counts::from_slice(&[2, 2]), 50),
            base.budget,
        );
        let mut policy = AdaptPolicy::with_fallback(schedule.clone());
        let (_, stats) =
            crate::policy::run_policy(&heavy, &mut policy).expect("fallback keeps validity");
        assert!(stats.total_cost > 0.0);
        assert!(policy.diverged().is_some());
        assert!(crate::policy::run_policy(&heavy, &mut AdaptPolicy::new(schedule)).is_err());
    }

    #[test]
    fn planned_follows_schedule_then_falls_back() {
        let inst = instance(20);
        let schedule = AdaptSchedule::precompute(&inst);
        let mut p = AdaptPolicy::with_fallback(schedule);
        p.reset(&PolicyContext::of(&inst));
        // Replay the plan's own arrivals: never diverges.
        let mut s = Counts::zero(2);
        for t in 0..=20 {
            s.add_assign(&inst.arrivals.at(t));
            let q = p.act(t, &s);
            s = s.checked_sub(&q).expect("no overdraw");
        }
        assert_eq!(p.diverged(), None);
        // A flood the plan never anticipated triggers the fallback.
        let flood = Counts::from_slice(&[40, 40]);
        let q = p.act(21, &flood);
        assert_eq!(p.diverged(), Some(21));
        assert!(!q.is_zero(), "fallback must act on a full state");
    }

    #[test]
    #[should_panic(expected = "linear cost functions")]
    fn theorem4_bound_rejects_nonlinear() {
        theorem4_bound(
            &[CostModel::Step {
                block: 2,
                cost_per_block: 1.0,
            }],
            10.0,
            5,
            5,
        );
    }
}
