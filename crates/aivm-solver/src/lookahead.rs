//! Rolling-horizon lookahead policy (extension).
//!
//! Between the paper's two extremes — A\* with perfect future knowledge
//! (§4.1) and the myopic ONLINE heuristic (§4.3) — sits receding-horizon
//! control: when an action is forced, *predict* the next `window` steps
//! of arrivals from recent rates, solve that small instance optimally
//! with A\*, execute only the first action, and repeat. No future
//! knowledge is required; the predictor is the same EWMA ONLINE uses.

use crate::astar::{optimal_lgm_plan_with, HeuristicMode};
use crate::policy::{Policy, PolicyContext};
use aivm_core::{Arrivals, Counts, Instance};

/// Configuration for [`LookaheadPolicy`].
#[derive(Clone, Debug)]
pub struct LookaheadConfig {
    /// Number of future steps planned over.
    pub window: usize,
    /// EWMA smoothing factor for the arrival-rate predictor.
    pub alpha: f64,
    /// Heuristic driving the inner A\* (Subadditive is safe for any
    /// cost model).
    pub heuristic: HeuristicMode,
}

impl Default for LookaheadConfig {
    fn default() -> Self {
        LookaheadConfig {
            window: 64,
            alpha: 0.2,
            heuristic: HeuristicMode::Subadditive,
        }
    }
}

/// The rolling-horizon policy.
#[derive(Clone, Debug)]
pub struct LookaheadPolicy {
    config: LookaheadConfig,
    ctx: Option<PolicyContext>,
    rates: Vec<f64>,
    prev_post: Counts,
    steps_seen: usize,
}

impl LookaheadPolicy {
    /// Creates a lookahead policy with the default configuration.
    pub fn new() -> Self {
        Self::with_config(LookaheadConfig::default())
    }

    /// Creates a lookahead policy with an explicit configuration.
    pub fn with_config(config: LookaheadConfig) -> Self {
        LookaheadPolicy {
            config,
            ctx: None,
            rates: Vec::new(),
            prev_post: Counts::zero(0),
            steps_seen: 0,
        }
    }

    /// Builds the predicted window instance: the current pending state
    /// arrives at `t = 0`, then `window` steps at the predicted rates.
    fn window_instance(&self, ctx: &PolicyContext, pre_state: &Counts) -> Instance {
        let n = ctx.n();
        let mut steps = Vec::with_capacity(self.config.window + 1);
        steps.push(pre_state.clone());
        let predicted: Counts = self
            .rates
            .iter()
            .map(|&r| r.round().max(0.0) as u64)
            .collect();
        for _ in 0..self.config.window {
            steps.push(predicted.clone());
        }
        let _ = n;
        Instance::new(ctx.costs.clone(), Arrivals::new(steps), ctx.budget)
    }
}

impl Default for LookaheadPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl Policy for LookaheadPolicy {
    fn reset(&mut self, ctx: &PolicyContext) {
        self.rates = vec![0.0; ctx.n()];
        self.prev_post = Counts::zero(ctx.n());
        self.steps_seen = 0;
        self.ctx = Some(ctx.clone());
    }

    fn act(&mut self, _t: usize, pre_state: &Counts) -> Counts {
        let ctx = self.ctx.as_ref().expect("reset before act").clone();
        // Update the rate predictor from the observed arrivals.
        if let Some(d) = pre_state.checked_sub(&self.prev_post) {
            for i in 0..d.len() {
                if self.steps_seen == 0 {
                    self.rates[i] = d[i] as f64;
                } else {
                    self.rates[i] =
                        self.config.alpha * d[i] as f64 + (1.0 - self.config.alpha) * self.rates[i];
                }
            }
        }
        self.steps_seen += 1;

        if !ctx.is_full(pre_state) {
            self.prev_post = pre_state.clone();
            return Counts::zero(pre_state.len());
        }

        // Forced: plan the predicted window optimally, execute only the
        // first action.
        let window = self.window_instance(&ctx, pre_state);
        let sol = optimal_lgm_plan_with(&window, self.config.heuristic);
        let q = sol.plan.actions[0].clone();
        debug_assert!(
            !q.is_zero(),
            "window instance is full at t=0, the plan must act there"
        );
        self.prev_post = pre_state
            .checked_sub(&q)
            .expect("planned action flushes at most the pending count");
        q
    }

    fn name(&self) -> &str {
        "lookahead"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::astar::optimal_lgm_plan;
    use crate::policy::{run_policy, NaivePolicy};
    use aivm_core::CostModel;

    fn asym_instance(horizon: usize) -> Instance {
        Instance::new(
            vec![
                CostModel::linear(0.06, 0.24),
                CostModel::linear(0.0048, 7.2),
            ],
            Arrivals::uniform(Counts::from_slice(&[1, 1]), horizon),
            12.0,
        )
    }

    #[test]
    fn lookahead_is_valid_and_beats_naive() {
        let inst = asym_instance(400);
        let (_, la) = run_policy(&inst, &mut LookaheadPolicy::new()).expect("valid");
        let (_, nv) = run_policy(&inst, &mut NaivePolicy::new()).expect("valid");
        assert!(
            la.total_cost < nv.total_cost,
            "LOOKAHEAD {} vs NAIVE {}",
            la.total_cost,
            nv.total_cost
        );
    }

    #[test]
    fn lookahead_tracks_optimum_on_uniform_streams() {
        let inst = asym_instance(300);
        let (_, la) = run_policy(&inst, &mut LookaheadPolicy::new()).expect("valid");
        let opt = optimal_lgm_plan(&inst).cost;
        assert!(la.total_cost + 1e-9 >= opt);
        assert!(
            la.total_cost <= 1.25 * opt,
            "LOOKAHEAD {} too far from OPT {opt}",
            la.total_cost
        );
    }

    #[test]
    fn small_windows_still_respect_budget() {
        let inst = asym_instance(200);
        let mut policy = LookaheadPolicy::with_config(LookaheadConfig {
            window: 4,
            ..LookaheadConfig::default()
        });
        let (_, summary) = run_policy(&inst, &mut policy).expect("valid even with W=4");
        assert!(summary.total_cost > 0.0);
    }
}
