//! Multi-view integration: several subscriptions over one TPC-R
//! database, each maintained by its own ONLINE policy under its own
//! response-time budget — the paper's pub/sub system in miniature.

use aivm::core::{total_cost, CostModel, Counts};
use aivm::engine::{MinStrategy, ViewRegistry};
use aivm::solver::{OnlinePolicy, Policy, PolicyContext};
use aivm::tpcr::{generate, TpcrConfig, UpdateGen, UpdateKind};

/// Three subscriptions with different shapes and budgets, all fed by the
/// same update stream; each must stay within its own budget and end
/// consistent with direct evaluation. Their SPJ cores differ, so each is
/// a sharing group of its own and flushes independently of the others.
#[test]
fn independent_policies_maintain_independent_views() {
    let data = generate(&TpcrConfig::small(), 88);
    let mut cat = ViewRegistry::new(data.db.clone());

    let sqls = [
        // The paper's view.
        aivm::tpcr::paper_view_sql().to_string(),
        // A grouped aggregate over the same join core.
        "SELECT n.name, COUNT(*) AS suppliers FROM supplier AS s, nation AS n \
         WHERE s.nationkey = n.nationkey GROUP BY n.name"
            .to_string(),
        // A filtered two-way join.
        "SELECT ps.pskey, ps.supplycost FROM partsupp AS ps, supplier AS s \
         WHERE s.suppkey = ps.suppkey AND ps.supplycost < 100.0"
            .to_string(),
    ];
    let mut views = Vec::new();
    for (i, sql) in sqls.iter().enumerate() {
        let def = aivm::engine::parse_view(cat.db(), &format!("v{i}"), sql).unwrap();
        views.push(cat.register_view(def, MinStrategy::Multiset).unwrap());
    }
    assert_eq!(cat.group_count(), 3);

    // Per-view scheduling contexts: synthetic linear costs over the two
    // updated tables (partsupp, supplier), different budgets per view.
    let contexts: Vec<PolicyContext> = (0..views.len())
        .map(|i| PolicyContext {
            costs: vec![CostModel::linear(0.5, 0.2), CostModel::linear(0.8, 4.0)],
            budget: 30.0 + 20.0 * i as f64,
        })
        .collect();
    let mut policies: Vec<OnlinePolicy> = contexts
        .iter()
        .map(|ctx| {
            let mut p = OnlinePolicy::new();
            p.reset(ctx);
            p
        })
        .collect();

    let mut gen = UpdateGen::new(&data, 89);
    for step in 0..300usize {
        let (kind, m) = {
            let db = cat.db();
            // Generate against the registry's live db state.
            let mut g = gen.clone();
            let out = g.random_update(db);
            gen = g;
            out
        };
        let table = match kind {
            UpdateKind::PartSuppCost => data.partsupp,
            UpdateKind::SupplierNation => data.supplier,
        };
        cat.ingest(table, m).unwrap();

        // Each view's policy watches its own (partsupp, supplier) counts.
        for (vi, &view_id) in views.iter().enumerate() {
            let view = cat.view(view_id);
            let ps = view.table_position("partsupp");
            let s = view.table_position("supplier");
            let pending = cat.pending_counts(view_id);
            let state = Counts::from_slice(&[
                ps.map(|p| pending[p]).unwrap_or(0),
                s.map(|p| pending[p]).unwrap_or(0),
            ]);
            let action = policies[vi].act(step, &state);
            if !action.is_zero() {
                let mut counts = vec![0u64; cat.cells().len()];
                let cells = cat.cells_of_view(view_id);
                if let Some(p) = ps {
                    counts[cells[p]] = action[0];
                }
                if let Some(p) = s {
                    counts[cells[p]] = action[1];
                }
                cat.flush_cells(&counts).unwrap();
            }
            // The budget invariant holds for every view at every step.
            let pending = cat.pending_counts(view_id);
            let state = Counts::from_slice(&[
                ps.map(|p| pending[p]).unwrap_or(0),
                s.map(|p| pending[p]).unwrap_or(0),
            ]);
            assert!(
                total_cost(&contexts[vi].costs, &state) <= contexts[vi].budget + 1e-9,
                "view {vi} busted its budget at step {step}"
            );
        }
    }

    // Final consistency for every view.
    cat.refresh_all().unwrap();
    for (i, &view_id) in views.iter().enumerate() {
        let direct = aivm::engine::parse_query(cat.db(), &sqls[i])
            .unwrap()
            .execute(cat.db())
            .unwrap();
        let mut got = aivm::engine::exec::consolidate(cat.result(view_id));
        let mut want = aivm::engine::exec::consolidate(direct);
        got.sort();
        want.sort();
        assert_eq!(got, want, "view {i} diverged");
    }
}

/// DML statements drive multiple views at once through the registry.
#[test]
fn dml_drives_all_registered_views() {
    let data = generate(&TpcrConfig::small(), 90);
    let mut cat = ViewRegistry::new(data.db);
    let min_view = {
        let def = aivm::engine::parse_view(cat.db(), "m", aivm::tpcr::paper_view_sql()).unwrap();
        cat.register_view(def, MinStrategy::Multiset).unwrap()
    };
    let count_view = {
        let def = aivm::engine::parse_view(
            cat.db(),
            "c",
            "SELECT COUNT(*) FROM partsupp AS ps WHERE ps.supplycost < 500.0",
        )
        .unwrap();
        cat.register_view(def, MinStrategy::Multiset).unwrap()
    };
    let before = cat.view(count_view).scalar().unwrap();
    // Push every qualifying supplycost above the count view's threshold
    // and below the min view's current minimum — both views must move.
    let n = cat
        .execute_sql("UPDATE partsupp SET supplycost = 600.0 WHERE supplycost < 500.0")
        .unwrap();
    assert!(n > 0);
    cat.refresh_all().unwrap();
    let after = cat.view(count_view).scalar().unwrap();
    assert_ne!(before, after);
    assert_eq!(after, aivm::engine::Value::Int(0));
    // The MIN view reflects the new floor of 500+.
    match cat.view(min_view).scalar().unwrap() {
        aivm::engine::Value::Float(f) => assert!(f >= 500.0, "min {f}"),
        other => panic!("{other:?}"),
    }
}
