//! Runtime maintenance policies, and the ledger every run steps through.
//!
//! A [`Policy`] decides, step by step, which pending modifications to
//! flush. Unlike precomputed [`Plan`]s, policies see only the past: the
//! current time, the pre-action state, and whatever they have recorded.
//! This is the execution model of the paper's ONLINE algorithm (§4.3)
//! and of ADAPT (§4.2); NAIVE fits trivially. The serving runtime runs
//! the same trait.
//!
//! A [`Ledger`] is §2's step written once: the step's arrivals join the
//! state, an action `p_t ≤ s_t` is taken, the post-action state must not
//! be full, and the cost grows by `f(p_t)`. [`run_policy`], the refresh
//! runner, ADAPT's plan builder, trace replay and the serving runtime
//! all step through one. `Plan::validate` checks runs independently.

use aivm_core::{fits, Counts, Instance, Plan, PlanError, PlanStats};

/// What a policy is allowed to know about the problem *a priori*: the
/// cost functions and the budget, but not the arrival sequence or the
/// refresh time.
#[derive(Clone, Debug)]
pub struct PolicyContext {
    /// Per-table cost functions.
    pub costs: Vec<aivm_core::CostModel>,
    /// The response-time budget `C`.
    pub budget: f64,
}

impl PolicyContext {
    /// Extracts the policy-visible part of an instance.
    pub fn of(inst: &Instance) -> Self {
        PolicyContext {
            costs: inst.costs.clone(),
            budget: inst.budget,
        }
    }

    /// Number of base tables.
    pub fn n(&self) -> usize {
        self.costs.len()
    }

    /// Aggregate refresh cost of a state under the known cost functions.
    pub fn refresh_cost(&self, v: &Counts) -> f64 {
        aivm_core::total_cost(&self.costs, v)
    }

    /// Whether a state busts the budget.
    pub fn is_full(&self, v: &Counts) -> bool {
        !aivm_core::fits(self.refresh_cost(v), self.budget)
    }
}

/// A step-by-step maintenance decision procedure.
pub trait Policy: Send {
    /// Called once before a run (and again whenever the context changes);
    /// resets internal state.
    fn reset(&mut self, ctx: &PolicyContext);

    /// Called at every step *after* the step's arrivals have joined the
    /// state. `pre_state` is the pre-action state `s_t`. Returns the
    /// action `p_t`, which may be zero and must not overdraw. Forced
    /// refreshes (the flush at `T`, a fresh read) bypass the policy: it
    /// sees them only through the shrunken state at its next call.
    fn act(&mut self, t: usize, pre_state: &Counts) -> Counts;

    /// A short human-readable name for reports.
    fn name(&self) -> &str;
}

/// How a step's action is chosen.
pub enum Choice<'a> {
    /// Ask the policy for `p_t` given the pre-action state.
    Policy(&'a mut dyn Policy),
    /// An action chosen outside the ledger — by a recording, or by a
    /// policy call the caller guards itself — judged like a policy's.
    Recorded(Counts),
    /// A forced refresh that bypasses the policy: the flush at `T` or at
    /// a refresh instant offline, a fresh read when serving.
    Forced(Counts),
}

/// One step taken by a [`Ledger`].
#[derive(Clone, Debug)]
pub struct Step {
    /// The step's time `t`.
    pub t: usize,
    /// The action `p_t`.
    pub action: Counts,
    /// Its cost `f(p_t)`.
    pub cost: f64,
    /// Whether the step broke the budget (see [`Ledger::counting`]).
    pub violated: bool,
}

/// §2's step, written once: the state `s`, the policy context (cost
/// functions and `C`), the time `t`, the total cost and the violation
/// count. [`Ledger::arrive`] is the cheap per-arrival half and
/// [`Ledger::act`] the per-step half; [`Ledger::step`] is both.
#[derive(Clone, Debug)]
pub struct Ledger {
    ctx: PolicyContext,
    state: Counts,
    t: usize,
    total_cost: f64,
    violations: u64,
    strict: bool,
}

impl Ledger {
    /// A ledger with offline plan semantics: a post-action state left
    /// full fails the step with [`PlanError::BudgetViolated`]. Forced
    /// steps are refreshes whose cost `C` does not bound.
    pub(crate) fn strict(ctx: PolicyContext) -> Self {
        Self::build(ctx, true)
    }

    /// A ledger with serving semantics: violations are counted, never
    /// fatal. An unforced step violates when it leaves the state full, a
    /// forced step (a fresh read) when it itself costs more than `C`.
    pub fn counting(ctx: PolicyContext) -> Self {
        Self::build(ctx, false)
    }

    fn build(ctx: PolicyContext, strict: bool) -> Self {
        Ledger {
            state: Counts::zero(ctx.n()),
            ctx,
            t: 0,
            total_cost: 0.0,
            violations: 0,
            strict,
        }
    }

    /// The cost functions and budget in force.
    #[inline]
    pub fn ctx(&self) -> &PolicyContext {
        &self.ctx
    }

    /// Mutable access to the context (a budget change, a recalibration).
    pub fn ctx_mut(&mut self) -> &mut PolicyContext {
        &mut self.ctx
    }

    /// The current state `s`: pending modifications per table.
    #[inline]
    pub fn state(&self) -> &Counts {
        &self.state
    }

    /// The time of the next step.
    #[inline]
    pub fn t(&self) -> usize {
        self.t
    }

    /// `Σ f(p_t)` over the steps so far, added in step order.
    pub fn total_cost(&self) -> f64 {
        self.total_cost
    }

    /// Steps that broke the budget so far (a counting ledger's).
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// `k` modifications of table `i` join the state.
    #[inline]
    pub fn arrive_at(&mut self, i: usize, k: u64) {
        self.state[i] += k;
    }

    /// The arrivals `d` join the state.
    pub fn arrive(&mut self, d: &Counts) {
        self.state.add_assign(d);
    }

    /// Takes the step's action and closes the step. An overdrawing
    /// action fails with [`PlanError::Overdraw`] and changes nothing; a
    /// strict ledger's [`PlanError::BudgetViolated`] ends the run.
    pub fn act(&mut self, choice: Choice<'_>) -> Result<Step, PlanError> {
        let t = self.t;
        let (action, forced) = match choice {
            Choice::Policy(policy) => (policy.act(t, &self.state), false),
            Choice::Recorded(action) => (action, false),
            Choice::Forced(action) => (action, true),
        };
        if !self.state.checked_sub_assign(&action) {
            let table = (0..action.len())
                .find(|&i| action[i] > self.state[i])
                .unwrap_or(0);
            return Err(PlanError::Overdraw { t, table });
        }
        let cost = if action.is_zero() {
            0.0
        } else {
            self.ctx.refresh_cost(&action)
        };
        self.total_cost += cost;
        let violated = if forced {
            !self.strict && !fits(cost, self.ctx.budget)
        } else {
            let post = self.ctx.refresh_cost(&self.state);
            let full = !fits(post, self.ctx.budget);
            if full && self.strict {
                return Err(PlanError::BudgetViolated { t, cost: post });
            }
            full
        };
        self.violations += u64::from(violated);
        self.t += 1;
        Ok(Step {
            t,
            action,
            cost,
            violated,
        })
    }

    /// One whole step: `arrivals` join the state, then [`Ledger::act`].
    pub fn step(&mut self, arrivals: &Counts, choice: Choice<'_>) -> Result<Step, PlanError> {
        self.arrive(arrivals);
        self.act(choice)
    }
}

/// Drives `policy` over the instance's arrivals, forcing the final flush
/// at `T`, and validates the realized plan.
///
/// Returns the realized plan and its statistics, or the first error: an
/// overdraw or a budget violation.
pub fn run_policy(
    inst: &Instance,
    policy: &mut dyn Policy,
) -> Result<(Plan, PlanStats), PlanError> {
    run_policy_with_refreshes(inst, policy, &[])
}

/// [`run_policy`] that also flushes everything pending at each of the
/// ascending `refresh_times` — the operational pub/sub setting, where
/// the policy keeps the budget only between notifications.
pub fn run_policy_with_refreshes(
    inst: &Instance,
    policy: &mut dyn Policy,
    refresh_times: &[usize],
) -> Result<(Plan, PlanStats), PlanError> {
    let ledger = Ledger::strict(PolicyContext::of(inst));
    let plan = drive(inst, policy, ledger, refresh_times)?;
    let stats = plan.validate(inst)?;
    Ok((plan, stats))
}

/// Steps `policy` through `ledger` over the instance's arrivals, forcing
/// a flush of everything pending at each of the ascending
/// `refresh_times` and at `T`, and returns the realized plan.
pub(crate) fn drive(
    inst: &Instance,
    policy: &mut dyn Policy,
    mut ledger: Ledger,
    refresh_times: &[usize],
) -> Result<Plan, PlanError> {
    policy.reset(ledger.ctx());
    let horizon = inst.horizon();
    let mut refreshes = refresh_times.iter().peekable();
    let mut actions = Vec::with_capacity(horizon + 1);
    for t in 0..=horizon {
        ledger.arrive(&inst.arrivals.at(t));
        while refreshes.next_if(|&&r| r < t).is_some() {}
        let choice = if t == horizon || refreshes.peek() == Some(&&t) {
            Choice::Forced(ledger.state().clone())
        } else {
            Choice::Policy(&mut *policy)
        };
        actions.push(ledger.act(choice)?.action);
    }
    Ok(Plan { actions })
}

/// The NAIVE symmetric policy (§1/§5): flush everything whenever the
/// pre-action state is full.
#[derive(Clone, Debug, Default)]
pub struct NaivePolicy {
    ctx: Option<PolicyContext>,
}

impl NaivePolicy {
    /// Creates a NAIVE policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Policy for NaivePolicy {
    fn reset(&mut self, ctx: &PolicyContext) {
        self.ctx = Some(ctx.clone());
    }

    fn act(&mut self, _t: usize, pre_state: &Counts) -> Counts {
        let ctx = self.ctx.as_ref().expect("reset before act");
        if ctx.is_full(pre_state) {
            pre_state.clone()
        } else {
            Counts::zero(pre_state.len())
        }
    }

    fn name(&self) -> &str {
        "naive"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapt::{AdaptPolicy, AdaptSchedule};
    use crate::astar::optimal_lgm_plan;
    use aivm_core::{naive_plan, Arrivals, CostModel};

    fn inst() -> Instance {
        Instance::new(
            vec![CostModel::linear(1.0, 0.0), CostModel::linear(1.0, 4.0)],
            Arrivals::uniform(Counts::from_slice(&[1, 1]), 11),
            8.0,
        )
    }

    /// Replays a plan's flush subsets: ADAPT at its own horizon.
    fn replay(plan: &Plan) -> AdaptPolicy {
        AdaptPolicy::new(AdaptSchedule::from_plan(plan.horizon(), plan, 0.0))
    }

    #[test]
    fn naive_policy_reproduces_naive_plan() {
        let inst = inst();
        let mut policy = NaivePolicy::new();
        let (plan, stats) = run_policy(&inst, &mut policy).expect("valid");
        let reference = naive_plan(&inst);
        assert_eq!(plan, reference);
        assert!((stats.total_cost - reference.validate(&inst).unwrap().total_cost).abs() < 1e-9);
    }

    #[test]
    fn naive_flushes_all_when_full() {
        let mut p = NaivePolicy::new();
        p.reset(&PolicyContext {
            costs: vec![CostModel::linear(1.0, 0.5), CostModel::linear(1.0, 4.0)],
            budget: 8.0,
        });
        let low = Counts::from_slice(&[1, 1]);
        assert!(p.act(0, &low).is_zero());
        let high = Counts::from_slice(&[4, 4]);
        assert_eq!(p.act(1, &high), high);
    }

    #[test]
    fn replay_of_astar_plan_reproduces_it() {
        let inst = inst();
        let sol = optimal_lgm_plan(&inst);
        let (plan, stats) = run_policy(&inst, &mut replay(&sol.plan)).expect("valid");
        assert_eq!(plan, sol.plan);
        assert!((stats.total_cost - sol.cost).abs() < 1e-9);
    }

    #[test]
    fn replay_under_heavier_arrivals_can_fail_validation() {
        let inst = inst();
        let sol = optimal_lgm_plan(&inst);
        // Triple the arrivals; the replayed subsets no longer keep the
        // budget, and run_policy reports it instead of silently passing.
        let heavy = Instance::new(
            inst.costs.clone(),
            Arrivals::uniform(Counts::from_slice(&[3, 3]), 11),
            inst.budget,
        );
        match run_policy(&heavy, &mut replay(&sol.plan)) {
            Err(PlanError::BudgetViolated { .. }) => {}
            other => panic!("expected budget violation, got {other:?}"),
        }
    }

    /// A policy that never flushes.
    struct Idle;
    impl Policy for Idle {
        fn reset(&mut self, _ctx: &PolicyContext) {}
        fn act(&mut self, _t: usize, s: &Counts) -> Counts {
            Counts::zero(s.len())
        }
        fn name(&self) -> &str {
            "idle"
        }
    }

    #[test]
    fn runner_forces_final_flush() {
        // A do-nothing policy is valid when nothing ever fills up,
        // because the runner flushes everything at T.
        let small = Instance::new(
            vec![CostModel::linear(1.0, 0.0)],
            Arrivals::uniform(Counts::from_slice(&[1]), 3),
            100.0,
        );
        let (plan, stats) = run_policy(&small, &mut Idle).expect("valid");
        assert_eq!(stats.action_count, 1);
        assert_eq!(plan.actions[3], Counts::from_slice(&[4]));
    }

    #[test]
    fn refresh_instants_flush_everything() {
        // Idle never flushes, so a state of ⟨3,3⟩ (cost 10 > 8) must
        // never outlive its step: every third step refreshes.
        let refreshes = [2, 5, 8];
        let (plan, stats) =
            run_policy_with_refreshes(&inst(), &mut Idle, &refreshes).expect("valid");
        assert_eq!(stats.action_count, 4);
        for t in [2, 5, 8, 11] {
            assert_eq!(plan.actions[t], Counts::from_slice(&[3, 3]));
        }
        let late = run_policy_with_refreshes(&inst(), &mut Idle, &[2, 5]);
        assert_eq!(
            late.unwrap_err(),
            PlanError::BudgetViolated { t: 8, cost: 10.0 }
        );
    }

    #[test]
    fn counting_ledger_judges_forced_steps_by_their_own_cost() {
        let ctx = PolicyContext {
            costs: vec![CostModel::linear(1.0, 0.0)],
            budget: 2.0,
        };
        let mut ledger = Ledger::counting(ctx.clone());
        // Left full by the policy: a violation, counted.
        let step = ledger.step(&Counts::from_slice(&[3]), Choice::Policy(&mut Idle));
        assert!(step.unwrap().violated);
        // A fresh read of all three costs 3 > C: a second one.
        let step = ledger
            .act(Choice::Forced(Counts::from_slice(&[3])))
            .unwrap();
        assert!(step.violated && step.cost == 3.0);
        assert_eq!((ledger.t(), ledger.violations()), (2, 2));
        assert_eq!(ledger.total_cost(), 3.0);
        // An overdraw fails and changes nothing.
        let over = ledger.act(Choice::Recorded(Counts::from_slice(&[1])));
        assert_eq!(over.unwrap_err(), PlanError::Overdraw { t: 2, table: 0 });
        assert_eq!(ledger.t(), 2);
        // A strict ledger turns the full post-action state into an error.
        let mut strict = Ledger::strict(ctx);
        let err = strict.step(&Counts::from_slice(&[3]), Choice::Policy(&mut Idle));
        assert_eq!(
            err.unwrap_err(),
            PlanError::BudgetViolated { t: 0, cost: 3.0 }
        );
    }
}
