//! Solver kernels: A\* under each heuristic, the ONLINE policy loop,
//! and the action-enumeration primitive it is built on.

use aivm_bench::harness::Suite;
use aivm_bench::{standard_instance, wide_instance};
use aivm_core::Counts;
use aivm_solver::{
    minimal_greedy_actions, optimal_lgm_plan_with, run_policy, HeuristicMode, OnlinePolicy,
};
use std::hint::black_box;

fn bench_astar(s: &mut Suite) {
    for horizon in [200usize, 400, 800] {
        let inst = standard_instance(horizon, 12.0);
        for (label, mode) in [
            ("paper", HeuristicMode::Paper),
            ("subadditive", HeuristicMode::Subadditive),
            ("dijkstra", HeuristicMode::None),
        ] {
            s.bench(&format!("astar/{label}/{horizon}"), || {
                black_box(optimal_lgm_plan_with(&inst, mode).cost)
            });
        }
    }
}

fn bench_online(s: &mut Suite) {
    for horizon in [400usize, 1600] {
        let inst = standard_instance(horizon, 12.0);
        s.bench(&format!("online_policy/{horizon}"), || {
            let (_, stats) = run_policy(&inst, &mut OnlinePolicy::new()).expect("valid");
            black_box(stats.total_cost)
        });
    }
}

fn bench_action_enumeration(s: &mut Suite) {
    for n in [2usize, 4, 8, 12] {
        // A full state with every table pending: worst-case 2^n sweep.
        let inst = wide_instance(n, 10, 3.0);
        let state: Counts = (0..n).map(|i| (i as u64 % 3) + 2).collect();
        s.bench(&format!("minimal_greedy_actions/{n}"), || {
            black_box(minimal_greedy_actions(&inst, &state).len())
        });
    }
}

fn bench_exhaustive_vs_astar(s: &mut Suite) {
    let inst = standard_instance(60, 12.0);
    s.bench("ground_truth/astar_T60", || {
        black_box(optimal_lgm_plan_with(&inst, HeuristicMode::Paper).cost)
    });
    s.bench("ground_truth/exhaustive_T60", || {
        black_box(aivm_solver::optimal_plan(&inst, 5_000_000).unwrap().1)
    });
}

fn main() {
    let mut s = Suite::new("solver");
    bench_astar(&mut s);
    bench_online(&mut s);
    bench_action_enumeration(&mut s);
    bench_exhaustive_vs_astar(&mut s);
}
