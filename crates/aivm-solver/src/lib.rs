//! Plan search and runtime policies for asymmetric batch incremental
//! view maintenance (He, Xie, Yang, Yu — ICDE 2005, §4).
//!
//! Four ways to decide *when to flush which delta table*:
//!
//! * [`astar`] — the optimal LGM plan via A\* over the plan graph, with
//!   the paper's consistent heuristic (§4.1). Needs full knowledge of the
//!   arrival sequence and the refresh time.
//! * [`adapt`] — ADAPT (§4.2): run a plan optimized for an estimated
//!   refresh time `T_0` at any actual refresh time, with Theorem 4's
//!   additive bounds for linear costs.
//! * [`online`] — the ONLINE heuristic (§4.3): no future knowledge,
//!   minimizes amortized cost with a `TimeToFull` rate predictor.
//! * [`lookahead`] — receding-horizon control (extension): plan a
//!   predicted window optimally, execute one action, repeat.
//! * [`policy::NaivePolicy`] — the symmetric flush-everything baseline.
//!
//! Every policy implements the one [`Policy`] trait, and every run —
//! offline, replayed or live in `aivm-serve` — steps through a
//! [`Ledger`], §2's step written once.
//!
//! [`exhaustive`] provides a ground-truth optimal solver (all lazy plans,
//! arbitrary actions) for small instances, used to verify Theorems 1
//! and 2 empirically. [`actions`] holds the shared enumeration of
//! greedy/minimal/valid flush sets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actions;
pub mod adapt;
pub mod astar;
pub mod exhaustive;
pub mod lookahead;
pub mod online;
pub mod policy;

pub use actions::{minimal_greedy_actions, valid_greedy_actions};
pub use adapt::{adapt_plan, theorem4_bound, AdaptPolicy, AdaptSchedule};
pub use aivm_core::TraceStep;
pub use astar::{
    optimal_lgm_plan, optimal_lgm_plan_dijkstra, optimal_lgm_plan_with, HeuristicMode, SearchStats,
    Solution,
};
pub use exhaustive::optimal_plan;
pub use lookahead::{LookaheadConfig, LookaheadPolicy};
pub use online::{CandidateSet, OnlineConfig, OnlinePolicy, RateEstimator};
pub use policy::{
    run_policy, run_policy_with_refreshes, Choice, Ledger, NaivePolicy, Policy, PolicyContext, Step,
};
