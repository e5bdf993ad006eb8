//! End-to-end determinism of the serving runtime's trace recorder: a
//! live run with the `planned` policy, recorded step by step, must
//! replay bit-for-bit through `aivm-sim`'s replay machinery — same flush
//! schedule, same total cost — and the trace text format must round-trip.

use aivm::core::{Arrivals, Counts, Instance};
use aivm::serve::{MaintenanceRuntime, ReadMode, ServeConfig, Trace};
use aivm::sim::replay::replay_policy;
use aivm::solver::{AdaptPolicy, AdaptSchedule};
use aivm::workload::bursty_arrivals;

fn costs() -> Vec<aivm::core::CostModel> {
    vec![
        aivm::core::CostModel::linear(0.06, 0.2),
        aivm::core::CostModel::linear(0.05, 7.0),
    ]
}

const BUDGET: f64 = 12.0;

fn recorded_live_run() -> Trace {
    let est = Instance::new(
        costs(),
        Arrivals::uniform(Counts::from_slice(&[1, 1]), 40),
        BUDGET,
    );
    let schedule = AdaptSchedule::precompute(&est);
    let mut cfg = ServeConfig::new(costs(), BUDGET);
    cfg.strict = true;
    let mut rt = MaintenanceRuntime::model(cfg, Box::new(AdaptPolicy::with_fallback(schedule)));
    // A bursty stream the uniform estimation instance did not predict,
    // with fresh reads sprinkled in: exercises the schedule, the ONLINE
    // fallback after divergence, and forced flushes.
    let arrivals = bursty_arrivals(&[3, 3], 4, 200);
    for t in 0..=200usize {
        let a = arrivals.at(t);
        for table in 0..2 {
            if a[table] > 0 {
                rt.ingest_count(table, a[table]);
            }
        }
        if t % 31 == 0 {
            let r = rt.read(ReadMode::Fresh).expect("fresh read");
            assert!(!r.violated);
            assert!(r.flush_cost <= BUDGET + 1e-9);
        } else {
            rt.tick().expect("tick");
        }
    }
    rt.into_trace().expect("tracing on")
}

#[test]
fn planned_live_trace_replays_with_identical_schedule_and_cost() {
    let trace = recorded_live_run();
    assert!(trace.steps.iter().any(|s| s.forced), "fresh reads recorded");
    // A *fresh* policy instance over the recorded arrivals must make the
    // same decisions the live run made.
    let est = Instance::new(
        costs(),
        Arrivals::uniform(Counts::from_slice(&[1, 1]), 40),
        BUDGET,
    );
    let mut policy = AdaptPolicy::with_fallback(AdaptSchedule::precompute(&est));
    let outcome = replay_policy(&trace.costs, trace.budget, &trace.steps, &mut policy);
    assert_eq!(outcome.actions, trace.actions());
    assert!((outcome.total_cost - trace.total_cost()).abs() < 1e-9);
    assert_eq!(outcome.violations, 0);
}

#[test]
fn live_trace_text_round_trips() {
    let trace = recorded_live_run();
    let text = trace.to_text();
    let parsed = Trace::parse(&text).expect("well-formed trace text");
    assert_eq!(parsed.steps, trace.steps);
    assert_eq!(parsed.budget, trace.budget);
    assert_eq!(parsed.costs, trace.costs);
    // And the parsed trace replays identically too.
    assert_eq!(parsed.actions(), trace.actions());
}
