//! Benchmark harness support for the AIVM reproduction.
//!
//! The interesting entry points are:
//!
//! * the `repro` binary (`cargo run -p aivm-bench --bin repro --release`),
//!   which regenerates every paper figure as a text table, and
//! * the benches (`cargo bench -p aivm-bench`): `solver` (A\*/ONLINE
//!   kernels), `engine` (operator microbenches), `maintenance` (flush
//!   batches on the TPC-R view) and `sweep` (serial-vs-parallel figure
//!   sweeps), each printing its timings (see [`harness`]).
//!
//! The serving stack's performance — throughput, latencies and the
//! per-layer cost ladder — is measured by the separate `perf` package
//! (`perf run`), not here.
//!
//! This library crate hosts the shared instance builders and the
//! hand-rolled [`harness`] those targets run on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod harness;
pub mod proxy;
pub mod serve;

use aivm_core::{Arrivals, CostModel, Counts, Instance};

/// A deterministic two-table instance with the repository's default
/// asymmetric cost shape, used by benches and the repro binary.
pub fn standard_instance(horizon: usize, budget: f64) -> Instance {
    Instance::new(
        aivm_sim::experiments::default_costs(),
        Arrivals::uniform(Counts::from_slice(&[1, 1]), horizon),
        budget,
    )
}

/// A wider instance (n tables) for solver scaling benches: table `i`
/// has per-mod cost `0.01·(i+1)` and setup `i` cost units.
pub fn wide_instance(n: usize, horizon: usize, budget: f64) -> Instance {
    let costs = (0..n)
        .map(|i| CostModel::linear(0.01 * (i + 1) as f64, i as f64))
        .collect();
    Instance::new(
        costs,
        Arrivals::uniform(Counts::from_slice(&vec![1; n]), horizon),
        budget,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_instance_is_solvable() {
        let inst = standard_instance(200, 12.0);
        let sol = aivm_solver::optimal_lgm_plan(&inst);
        assert!(sol.plan.validate(&inst).is_ok());
    }

    #[test]
    fn wide_instance_has_n_tables() {
        let inst = wide_instance(3, 24, 6.0);
        assert_eq!(inst.n(), 3);
        let sol = aivm_solver::optimal_lgm_plan(&inst);
        assert!(sol.plan.validate(&inst).is_ok());
    }
}
