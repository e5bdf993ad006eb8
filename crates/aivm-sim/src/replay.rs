//! Deterministic re-execution of recorded live traces.
//!
//! `aivm-serve` records a live run as a sequence of [`TraceStep`]s, each
//! with the arrivals closed into that step, the action taken, and a flag
//! marking *forced* refreshes (fresh reads, which bypass the policy).
//! This module replays such a recording offline:
//!
//! * [`replay_policy`] — re-runs a policy over the recorded arrivals
//!   through a counting [`Ledger`], reproducing the live run's decisions
//!   bit-for-bit when given the same (deterministic) policy. This is how
//!   the serve layer's `planned` policy is verified: a fresh instance of
//!   the policy, driven over the recorded trace, must emit the same
//!   flush schedule and total cost as the live run.
//! * [`verify_recovery_prefix`] — checks a crash-recovered recording
//!   against its uncrashed reference and re-prices it through
//!   [`Plan::validate_recorded`], the checker independent of the ledger.
//!
//! Unlike [`run_policy`](aivm_solver::run_policy), replays do not force
//! a final flush-everything action: live runs end with whatever was
//! still pending, and the replay preserves that (`leftover`).

use aivm_core::{CostModel, Counts, Plan, PlanStats, TraceStep};
use aivm_solver::{Choice, Ledger, Policy, PolicyContext};

/// Outcome of a replay.
#[derive(Clone, Debug)]
pub struct ReplayOutcome {
    /// The action taken at each step.
    pub actions: Vec<Counts>,
    /// Total model cost of all actions.
    pub total_cost: f64,
    /// Steps that broke the budget, judged as the live runtime judges
    /// them (0 for any correct policy).
    pub violations: u64,
    /// Pending counts remaining after the last step.
    pub leftover: Counts,
}

/// Re-runs `policy` over recorded steps. A forced step takes its
/// recorded action without consulting the policy — on a view registry
/// that is the read view's sharing group, not everything pending — but
/// still advances the step clock `t`.
///
/// # Panics
///
/// If an action overdraws: a policy returning more than is pending
/// (solver policies never do), or a recorded forced action after the
/// policy's decisions diverged from the recording's.
pub fn replay_policy(
    costs: &[CostModel],
    budget: f64,
    steps: &[TraceStep],
    policy: &mut dyn Policy,
) -> ReplayOutcome {
    let mut ledger = Ledger::counting(PolicyContext {
        costs: costs.to_vec(),
        budget,
    });
    policy.reset(ledger.ctx());
    let mut actions = Vec::with_capacity(steps.len());
    for step in steps {
        let choice = if step.forced {
            Choice::Forced(step.action.clone())
        } else {
            Choice::Policy(&mut *policy)
        };
        let done = (ledger.step(&step.arrivals, choice)).unwrap_or_else(|e| panic!("replay: {e}"));
        actions.push(done.action);
    }
    ReplayOutcome {
        actions,
        total_cost: ledger.total_cost(),
        violations: ledger.violations(),
        leftover: ledger.state().clone(),
    }
}

/// Cross-checks a crash-recovered run against its uncrashed reference.
///
/// The recovered run's recorded steps must be an *exact prefix* of the
/// reference recording (recovery replays a prefix of the same event
/// log, and the runtime is deterministic), and independently
/// re-executing the recovered schedule through
/// [`Plan::validate_recorded`] must reproduce the cost the recovered
/// runtime accounted — a third implementation of the cost arithmetic
/// catching either side lying.
///
/// Returns the re-execution's statistics on success; on divergence, a
/// description of the first mismatching step.
pub fn verify_recovery_prefix(
    costs: &[CostModel],
    budget: f64,
    reference: &[TraceStep],
    recovered: &[TraceStep],
) -> Result<PlanStats, String> {
    if recovered.len() > reference.len() {
        return Err(format!(
            "recovered run has {} steps, longer than the reference's {}",
            recovered.len(),
            reference.len()
        ));
    }
    for (t, (rec, refr)) in recovered.iter().zip(reference).enumerate() {
        if rec != refr {
            return Err(format!(
                "recovered step {t} diverges: reference {refr:?}, recovered {rec:?}"
            ));
        }
    }
    Plan::validate_recorded(costs, budget, recovered)
        .map_err(|e| format!("recovered schedule fails re-execution: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aivm_core::{Arrivals, CostModel, Instance, PlanError};
    use aivm_solver::{optimal_lgm_plan, AdaptPolicy, AdaptSchedule, NaivePolicy};

    fn costs() -> Vec<CostModel> {
        vec![CostModel::linear(1.0, 0.5), CostModel::linear(1.0, 4.0)]
    }

    fn step(arrivals: &[u64], action: &[u64], forced: bool) -> TraceStep {
        TraceStep {
            arrivals: Counts::from_slice(arrivals),
            action: Counts::from_slice(action),
            forced,
        }
    }

    #[test]
    fn policy_replay_matches_recorded_run_check() {
        let inst = Instance::new(
            costs(),
            Arrivals::uniform(Counts::from_slice(&[1, 1]), 20),
            8.0,
        );
        let sol = optimal_lgm_plan(&inst);
        // ADAPT's own schedule flushes at T what the plan flushed there,
        // so no step needs forcing.
        let mut steps: Vec<TraceStep> = (sol.plan.actions.iter())
            .map(|p| step(&[1, 1], p.as_slice(), false))
            .collect();
        let schedule = AdaptSchedule::from_plan(20, &sol.plan, sol.cost);
        let by_policy = replay_policy(&costs(), 8.0, &steps, &mut AdaptPolicy::new(schedule));
        for (s, a) in steps.iter_mut().zip(&by_policy.actions) {
            s.action = a.clone();
        }
        let checked = Plan::validate_recorded(&costs(), 8.0, &steps).unwrap();
        assert_eq!(by_policy.actions, sol.plan.actions);
        assert!((by_policy.total_cost - checked.total_cost).abs() < 1e-9);
        assert!((by_policy.total_cost - sol.cost).abs() < 1e-9);
        assert_eq!((by_policy.violations, checked.violations), (0, 0));
        assert!(by_policy.leftover.is_zero() && checked.leftover.is_zero());
    }

    #[test]
    fn forced_steps_take_the_recorded_action() {
        // NAIVE would do nothing at these low counts; the forced step
        // flushes what the recording flushed — here one table of two.
        let steps = vec![step(&[1, 0], &[0, 0], false), step(&[0, 1], &[0, 1], true)];
        let out = replay_policy(&costs(), 100.0, &steps, &mut NaivePolicy::new());
        assert!(out.actions[0].is_zero());
        assert_eq!(out.actions[1], Counts::from_slice(&[0, 1]));
        assert_eq!(out.leftover, Counts::from_slice(&[1, 0]));
    }

    #[test]
    fn recorded_check_reports_overdraw() {
        let steps = vec![step(&[1, 1], &[5, 0], false), step(&[1, 1], &[0, 0], false)];
        match Plan::validate_recorded(&costs(), 8.0, &steps) {
            Err(PlanError::Overdraw { t: 0, table: 0 }) => {}
            other => panic!("expected overdraw, got {other:?}"),
        }
    }

    #[test]
    fn leftover_and_violations_are_reported() {
        // A lazy schedule that never flushes: pending accumulates and
        // eventually busts the small budget; then a fresh read of all
        // of it costs more than C too.
        let mut steps = vec![step(&[1, 1], &[0, 0], false); 11];
        let out = Plan::validate_recorded(&costs(), 8.0, &steps).unwrap();
        assert_eq!(out.leftover, Counts::from_slice(&[11, 11]));
        assert_eq!(out.violations, 10, "full from the state (2, 2) on");
        assert_eq!(out.total_cost, 0.0);
        steps.push(step(&[0, 0], &[11, 11], true));
        let out = Plan::validate_recorded(&costs(), 8.0, &steps).unwrap();
        assert_eq!(out.violations, 11);
        assert!(out.leftover.is_zero());
    }

    #[test]
    fn recovery_prefix_must_match_the_reference() {
        let reference = vec![step(&[1, 0], &[0, 0], false), step(&[0, 1], &[1, 1], true)];
        let stats = verify_recovery_prefix(&costs(), 100.0, &reference, &reference[..1]);
        assert_eq!(stats.unwrap().leftover, Counts::from_slice(&[1, 0]));
        let forged = vec![step(&[1, 0], &[1, 0], false)];
        let err = verify_recovery_prefix(&costs(), 100.0, &reference, &forged).unwrap_err();
        assert!(err.contains("step 0 diverges"), "{err}");
    }
}
