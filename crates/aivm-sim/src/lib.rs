//! Discrete-time simulation, engine-backed actual execution, and the
//! paper's experiment drivers.
//!
//! * [`runner`] — the counts-only simulator of §5 ("we simulate the
//!   execution of maintenance plans … and use the cost functions to
//!   calculate costs").
//! * [`actual`] — the validation mode: plans executed for real against
//!   an `aivm-engine` TPC-R database with wall-clock timing.
//! * [`experiments`] — one driver per paper figure (1, 4, 5, 6, 7), the
//!   §1 worked example, and the Theorem 1/2 bounds table.
//! * [`report`] — text/CSV rendering of the reproduced series.
//! * [`par`] — the deterministic parallel fan-out the sweep drivers run
//!   on (`AIVM_THREADS` / `--threads` configurable).
//! * [`replay`] — deterministic re-execution of live traces recorded by
//!   `aivm-serve`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actual;
pub mod experiments;
pub mod par;
pub mod replay;
pub mod report;
pub mod runner;

pub use actual::{run_plan_actual, ActionTiming, ActualRun};
pub use par::{configured_threads, par_map, set_thread_override};
pub use replay::{replay_policy, verify_recovery_prefix, ReplayOutcome};
pub use report::{fnum, ExpTable};
pub use runner::{simulate_plan, simulate_policy, PlanSummary};
