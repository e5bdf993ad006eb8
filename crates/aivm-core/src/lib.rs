//! Problem model for **asymmetric batch incremental view maintenance**.
//!
//! This crate implements the formal framework of He, Xie, Yang and Yu,
//! *Asymmetric Batch Incremental View Maintenance* (ICDE 2005): a
//! materialized view over base tables `R_1 … R_n` is maintained in
//! batches; modifications accumulate in delta tables and a *maintenance
//! plan* decides, at each discrete time step, how many pending
//! modifications of each table to flush into the view. Every post-action
//! state must be refreshable within a response-time budget `C`; the goal
//! is to minimize total maintenance cost, where flushing `k` pending
//! modifications of table `R_i` costs `f_i(k)` for a monotone,
//! subadditive cost function `f_i`.
//!
//! Layout:
//!
//! * [`counts`] — the n-vectors of pending/processed modification counts.
//! * [`cost`] — cost-function shapes (`Linear`, `Step`, `Power`,
//!   `Piecewise`, `Capped`) and the budget comparison helpers.
//! * [`instance`] — arrival sequences and complete problem instances.
//! * [`plan`] — plans, validity (Definition 1), the lazy/greedy/minimal
//!   predicates (Definitions 2–3), and the NAIVE baseline.
//! * [`transform`] — `MakeLazyPlan`, `MinimizeAction`, `MakeLGMPlan`
//!   (the constructive proofs of Lemma 1 and Theorem 1).
//! * [`bound`] — the bipartite intersection graph used by Theorem 1's
//!   proof, executable for verification.
//! * [`tightness`] — the §3.2 instance showing the factor-2 bound is
//!   tight.
//!
//! Plan *search* (A\*, the exhaustive optimum, ONLINE, ADAPT) lives in
//! the `aivm-solver` crate; execution substrates live in `aivm-engine`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bound;
pub mod cost;
pub mod counts;
pub mod fxhash;
pub mod instance;
pub mod plan;
pub mod tightness;
pub mod transform;

pub use cost::{fits, total_cost, CostFn, CostModel, COST_EPS};
pub use counts::Counts;
pub use instance::{Arrivals, Instance};
pub use plan::{naive_plan, Plan, PlanError, PlanStats, TraceStep};
pub use transform::{make_lazy_plan, make_lgm_plan, minimize_action};
