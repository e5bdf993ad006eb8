//! The simulator, the trace replay and the live runtime step through one
//! ledger, so they agree on the paper's semantics exactly:
//!
//! * the counts-only runtime, driven tick by tick over an instance's
//!   arrivals with one fresh read at `T`, takes `run_policy`'s actions
//!   and accrues its total cost;
//! * a trace recorded on a two-group registry, where a fresh read
//!   refreshes only its own view's sharing group, replays through a
//!   fresh policy to the live actions and cost.

use aivm::core::{CostModel, Counts, Instance};
use aivm::engine::{
    parse_view, row, DataType, Database, MinStrategy, Modification, Schema, ViewRegistry,
};
use aivm::serve::{FlushPolicy, MaintenanceRuntime, ReadMode, ServeConfig};
use aivm::sim::replay::replay_policy;
use aivm::solver::{run_policy, NaivePolicy, OnlinePolicy};
use aivm::workload::{preset_arrivals, StreamKind};

/// Costs in quarters, so every sum of them is exact in `f64` and the
/// comparison below can be bitwise whatever the summation order.
fn costs() -> Vec<CostModel> {
    vec![
        CostModel::linear(1.0, 4.0),
        CostModel::linear(0.25, 10.0),
        CostModel::linear(0.5, 2.0),
    ]
}

/// Drives a counts-only runtime over `inst`'s arrivals: a tick per step
/// before `T`, and a fresh read at `T`. Returns the actions per step and
/// the runtime's total cost. The fresh read is the runtime's tick at `T`
/// followed by its forced refresh; together they are the plan's action
/// at `T`.
fn live(inst: &Instance, policy: Box<dyn FlushPolicy>) -> (Vec<Counts>, f64) {
    let cfg = ServeConfig::new(inst.costs.clone(), inst.budget);
    let mut rt = MaintenanceRuntime::model(cfg, policy);
    let horizon = inst.horizon();
    for t in 0..=horizon {
        let d = inst.arrivals.at(t);
        for i in 0..inst.n() {
            if d[i] > 0 {
                rt.ingest_count(i, d[i]);
            }
        }
        if t < horizon {
            rt.tick().expect("tick");
        } else {
            let r = rt.read(ReadMode::Fresh).expect("fresh read");
            assert!(r.lag == 0 && rt.pending().is_zero());
        }
    }
    let steps = &rt.trace().expect("tracing on").steps;
    assert_eq!(steps.len(), horizon + 2);
    assert!(steps[..=horizon].iter().all(|s| !s.forced) && steps[horizon + 1].forced);
    let mut actions: Vec<Counts> = steps.iter().map(|s| s.action.clone()).collect();
    let refresh = actions.pop().expect("the forced refresh");
    actions[horizon].add_assign(&refresh);
    (actions, rt.metrics().total_flush_cost)
}

#[test]
fn simulator_and_live_runtime_agree_step_for_step() {
    for (k, kind) in StreamKind::all().into_iter().enumerate() {
        let arrivals = preset_arrivals(kind, 3, 400, 70 + k as u64);
        let inst = Instance::new(costs(), arrivals, 60.0);
        let (naive_plan, naive) = run_policy(&inst, &mut NaivePolicy::new()).expect("valid");
        let (online_plan, online) = run_policy(&inst, &mut OnlinePolicy::new()).expect("valid");
        assert_ne!(
            naive_plan,
            online_plan,
            "{}: the policies must differ",
            kind.label()
        );
        for (name, plan, stats, policy) in [
            (
                "naive",
                &naive_plan,
                &naive,
                Box::new(NaivePolicy::new()) as Box<dyn FlushPolicy>,
            ),
            (
                "online",
                &online_plan,
                &online,
                Box::new(OnlinePolicy::new()),
            ),
        ] {
            let (actions, cost) = live(&inst, policy);
            assert_eq!(actions, plan.actions, "{name} on {}", kind.label());
            assert_eq!(cost, stats.total_cost, "{name} on {}", kind.label());
            assert!(stats.action_count > 10, "{name} on {}", kind.label());
        }
    }
}

#[test]
fn forced_reads_of_one_group_replay_exactly() {
    let mut db = Database::new();
    db.create_table(
        "r",
        Schema::new(vec![("k", DataType::Int), ("x", DataType::Float)]),
    )
    .unwrap();
    db.create_table(
        "s",
        Schema::new(vec![("k", DataType::Int), ("y", DataType::Int)]),
    )
    .unwrap();
    let mut registry = ViewRegistry::new(db);
    for (name, sql) in [
        ("joined", "SELECT r.k, r.x, s.y FROM r, s WHERE r.k = s.k"),
        (
            "positive",
            "SELECT r.k, r.x, s.y FROM r, s WHERE r.k = s.k AND s.y > 0",
        ),
    ] {
        let def = parse_view(registry.db(), name, sql).unwrap();
        registry.register_view(def, MinStrategy::Multiset).unwrap();
    }
    assert_eq!(
        registry.group_count(),
        2,
        "different filters, different cores"
    );
    let cfg = ServeConfig::new(
        vec![CostModel::linear(0.05, 0.2), CostModel::linear(0.02, 0.5)],
        3.0,
    );
    let mut rt = MaintenanceRuntime::new(cfg, Box::new(OnlinePolicy::new()), registry).unwrap();
    let mut partial_reads = 0;
    for i in 0..300i64 {
        rt.ingest_dml(0, Modification::Insert(row![i % 7, (i as f64) * 0.5]))
            .unwrap();
        rt.ingest_dml(1, Modification::Insert(row![i % 7, i - 20]))
            .unwrap();
        if i % 5 == 4 {
            rt.ingest_dml(1, Modification::Delete(row![(i - 1) % 7, i - 21]))
                .unwrap();
        }
        if i % 6 == 5 {
            let r = rt.read_view(0, ReadMode::Fresh).unwrap();
            assert!(!r.violated && r.lag == 0);
            // The other group's pending work survives view 0's read.
            partial_reads += usize::from(!rt.pending().is_zero());
        } else {
            rt.tick().unwrap();
        }
    }
    assert!(
        partial_reads > 10,
        "only {partial_reads} reads left work pending"
    );
    let trace = rt.trace().expect("tracing on");
    let m = rt.metrics();
    let replay = replay_policy(
        &trace.costs,
        trace.budget,
        &trace.steps,
        &mut OnlinePolicy::new(),
    );
    assert_eq!(replay.actions, trace.actions());
    assert_eq!(replay.total_cost, m.total_flush_cost);
    assert_eq!(replay.violations, m.constraint_violations);
    assert_eq!(&replay.leftover, rt.pending());
}
