//! Multi-view maintenance with shared delta propagation.
//!
//! The paper schedules maintenance for one view by exploiting per-table
//! cost asymmetry; serving many views over the same base tables adds a
//! second axis. [`ViewRegistry`] owns the database plus any number of
//! registered views and:
//!
//! * groups views by their *SPJ signature* — identical `(tables,
//!   join_preds, filters, residual)` — into sharing groups. A group is
//!   one SPJ core (pending delta tables and join plans compiled for the
//!   union of the members' live columns) finished by
//!   one leaf per member (projection / aggregate / distinct, state,
//!   snapshot). A group of `m` views holds each pending modification
//!   once and propagates each start-table delta batch once; every leaf
//!   folds the one prepared join delta. Propagation (the join fan-out
//!   with compensation) is the dominant maintenance cost, so the group
//!   pays ~1/m of the independent cost;
//! * routes every base-table modification into the core of exactly the
//!   groups that reference that table (arrival-time application happens
//!   once, to the shared database);
//! * exposes a flattened *(group × table)* cell axis so a scheduler can
//!   run the paper's knapsack over "which view × which table to flush"
//!   directly: a cell's pending count is its core's per-table backlog,
//!   and flushing a cell advances every member.
//!
//! A group is flushed by the same walk a lone [`MaterializedView`] runs,
//! over its core and all its leaves. A view registered later joins its
//! group whatever the group has pending: the core widens to the new live
//! columns and the new leaf initialises from the processed prefix.
//!
//! The sharing rule is exact-SPJ-core equality, not proper join-tree
//! prefixes: splicing a shared prefix into differently-shaped suffixes
//! would need per-view residual compensation mid-tree. Exact matching
//! captures the production case — many dashboards/aggregations over one
//! canonical join — and degrades to fully independent maintenance when
//! every view is distinct.

use crate::db::{Database, TableId};
use crate::delta::Modification;
use crate::dml::compile_dml;
use crate::error::EngineError;
use crate::exec::{ExecStats, WRow};
use crate::ivm::{MaterializedView, MinStrategy, SpjCore, ViewDef, ViewLeaf, ViewSnapshot};
use std::sync::Arc;

/// Identifier of a view within a [`ViewRegistry`].
pub type ViewId = usize;

/// One coordinate of the flattened scheduling axis: flushing this cell
/// consumes pending modifications of one base table for every view in
/// one sharing group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cell {
    /// Sharing-group index.
    pub group: usize,
    /// Base-table position within the group's (shared) view definition.
    pub table: usize,
}

/// Cumulative sharing counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Join propagations actually executed.
    pub propagations: u64,
    /// Propagations *saved* by sharing — one per member beyond the first
    /// each time a group's delta is propagated (an independent runtime
    /// would have paid each of these).
    pub shared_propagations: u64,
}

/// Report of one [`ViewRegistry::flush_cells`] invocation.
#[derive(Clone, Debug, Default)]
pub struct RegistryFlushReport {
    /// Modifications consumed, summed over member views (matching the
    /// accounting of independent per-view runtimes).
    pub mods_processed: u64,
    /// Executor counters for the propagations this flush ran (shared
    /// propagations appear once, under the group's first member).
    pub exec: ExecStats,
    /// Views whose flush sequence advanced (any cell of their group had
    /// a non-zero count).
    pub touched: Vec<ViewId>,
}

/// A group of views sharing one SPJ core.
#[derive(Clone, Debug)]
struct ShareGroup {
    core: SpjCore,
    /// One finisher leaf per member, parallel to `members`.
    leaves: Vec<ViewLeaf>,
    members: Vec<ViewId>,
}

/// A database bundled with registered views, sharing groups and the
/// flattened (group × table) scheduling axis.
#[derive(Clone, Debug)]
pub struct ViewRegistry {
    db: Database,
    groups: Vec<ShareGroup>,
    /// View id → (its group, its position among the group's members).
    slots: Vec<(usize, usize)>,
    /// The flattened scheduling axis, one entry per (group, table). Group
    /// cells are created together, so each group's cells form one
    /// contiguous run in table order, and groups follow in index order.
    cells: Vec<Cell>,
    stats: RegistryStats,
}

/// Whether two definitions share an SPJ core (propagation output is
/// identical given identical pending state): same tables in the same
/// order, same equi-join predicates, same per-table filters, same
/// residual. Projection, aggregate, distinct and the MIN/MAX strategy
/// are applied per view *after* propagation and may differ freely.
fn same_spj_core(a: &ViewDef, b: &ViewDef) -> bool {
    a.tables == b.tables
        && a.join_preds == b.join_preds
        && a.filters == b.filters
        && a.residual == b.residual
}

impl ViewRegistry {
    /// Wraps a database with no views yet.
    pub fn new(db: Database) -> Self {
        ViewRegistry {
            db,
            groups: Vec::new(),
            slots: Vec::new(),
            cells: Vec::new(),
            stats: RegistryStats::default(),
        }
    }

    /// Read access to the database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Number of registered views.
    pub fn view_count(&self) -> usize {
        self.slots.len()
    }

    /// Number of sharing groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The sharing group a view belongs to.
    pub fn group_of(&self, id: ViewId) -> usize {
        self.slots[id].0
    }

    /// Member views of a sharing group, in registration order.
    pub fn group_members(&self, group: usize) -> &[ViewId] {
        &self.groups[group].members
    }

    /// Registers a view (auto-creating join indexes and turning on
    /// snapshot publication, like [`MaterializedView::register`]). A view
    /// whose SPJ core matches an existing group joins it, pending
    /// modifications and all: the core widens to the view's live columns
    /// and its leaf initialises from the processed prefix. Otherwise the
    /// view opens a new group.
    pub fn register_view(
        &mut self,
        def: ViewDef,
        strategy: MinStrategy,
    ) -> Result<ViewId, EngineError> {
        if self.view_id(&def.name).is_some() {
            return Err(EngineError::Unsupported {
                message: format!("view {} already exists", def.name),
            });
        }
        MaterializedView::ensure_join_indexes(&mut self.db, &def)?;
        let same_core = |g: &ShareGroup| same_spj_core(&g.core.def, &def);
        let (g, leaf) = match self.groups.iter().position(same_core) {
            Some(g) => {
                let group = &mut self.groups[g];
                let cols = def.live_columns(&self.db)?;
                group.core.widen(&self.db, cols, &mut group.leaves);
                (g, group.core.new_leaf(&self.db, def, strategy)?)
            }
            None => {
                let core = SpjCore::new(&self.db, &def)?;
                let leaf = core.new_leaf(&self.db, def, strategy)?;
                (self.open_group(core), leaf)
            }
        };
        Ok(self.add_member(g, leaf))
    }

    /// A registry of one: wraps `db` and a view already built over it,
    /// keeping whatever the caller configured on the view (MIN/MAX
    /// strategy, physical design) and turning on
    /// snapshot publication. This is how a single view becomes the N = 1
    /// of the multi-view serving runtime.
    pub fn adopt(db: Database, mut view: MaterializedView) -> Result<Self, EngineError> {
        view.set_snapshot_publishing(true);
        let mut reg = ViewRegistry::new(db);
        let g = reg.open_group(view.core);
        reg.add_member(g, view.leaf);
        Ok(reg)
    }

    /// Opens a sharing group around `core`, with one cell per table.
    fn open_group(&mut self, core: SpjCore) -> usize {
        let g = self.groups.len();
        let cells = (0..core.n()).map(|table| Cell { group: g, table });
        self.cells.extend(cells);
        self.groups.push(ShareGroup {
            core,
            leaves: Vec::new(),
            members: Vec::new(),
        });
        g
    }

    /// Appends a leaf to group `g` as a new publishing member view.
    fn add_member(&mut self, g: usize, mut leaf: ViewLeaf) -> ViewId {
        let id = self.slots.len();
        leaf.snapshot_publishing = true;
        let group = &mut self.groups[g];
        self.slots.push((g, group.leaves.len()));
        group.leaves.push(leaf);
        group.members.push(id);
        id
    }

    /// Resolves a view by name.
    pub fn view_id(&self, name: &str) -> Option<ViewId> {
        (0..self.view_count()).find(|&v| self.view(v).def().name == name)
    }

    /// Read access to a view's finisher leaf: its definition, contents,
    /// snapshot and counters.
    pub fn view(&self, id: ViewId) -> &ViewLeaf {
        let (g, j) = self.slots[id];
        &self.groups[g].leaves[j]
    }

    /// A view's latest flush-boundary snapshot (O(1) `Arc` clone).
    pub fn snapshot(&self, id: ViewId) -> Arc<ViewSnapshot> {
        self.view(id).snapshot()
    }

    /// Sets the propagation width of every group.
    pub fn set_flush_threads(&mut self, threads: usize) {
        for group in &mut self.groups {
            group.core.set_flush_threads(threads);
        }
    }

    /// Cumulative sharing counters.
    pub fn stats(&self) -> RegistryStats {
        self.stats
    }

    /// The flattened scheduling axis.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Number of member views in each cell's group, parallel to
    /// [`ViewRegistry::cells`] — the fan-out a scheduler's cost model
    /// should charge for the per-member apply share.
    pub fn cell_fanout(&self) -> Vec<usize> {
        self.cells
            .iter()
            .map(|c| self.groups[c.group].members.len())
            .collect()
    }

    /// Pending modification counts per cell — the paper's state vector
    /// `s` over the flattened (group × table) axis.
    pub fn cell_counts(&self) -> Vec<u64> {
        (self.groups.iter())
            .flat_map(|g| g.core.pending_counts())
            .collect()
    }

    /// The pending modifications per cell, in arrival order — a
    /// durability checkpoint's delta payload. A registry of one yields
    /// exactly its view's per-table layout.
    pub fn pending_snapshot(&self) -> Vec<Vec<Modification>> {
        (self.groups.iter())
            .flat_map(|g| g.core.pending_snapshot())
            .collect()
    }

    /// Restores every view from a checkpoint: pending deltas per cell (as
    /// [`ViewRegistry::pending_snapshot`] took them, installed into the
    /// cell's group core) and each view's flush sequence, so republished
    /// snapshots carry the seqs the checkpointed run had reached. The
    /// database must already hold every arrival, pending ones included
    /// (§2 arrival semantics).
    pub fn restore_pending(
        &mut self,
        cells: Vec<Vec<Modification>>,
        seqs: &[u64],
    ) -> Result<(), EngineError> {
        if cells.len() != self.cells.len() || seqs.len() != self.slots.len() {
            return Err(EngineError::Maintenance {
                message: format!(
                    "checkpoint holds {} cells and {} seqs; registry has {} and {}",
                    cells.len(),
                    seqs.len(),
                    self.cells.len(),
                    self.slots.len()
                ),
            });
        }
        let mut cells = cells.into_iter();
        for group in &mut self.groups {
            for (leaf, &v) in group.leaves.iter_mut().zip(&group.members) {
                leaf.stats.flushes = seqs[v];
            }
            let mods = cells.by_ref().take(group.core.n()).collect();
            group.core.restore(&self.db, &mut group.leaves, mods)?;
        }
        Ok(())
    }

    /// Pending counts of one view (its group core's).
    pub fn pending_counts(&self, id: ViewId) -> Vec<u64> {
        self.groups[self.group_of(id)].core.pending_counts()
    }

    /// The cell indices belonging to one view's group, in table order.
    pub fn cells_of_view(&self, id: ViewId) -> Vec<usize> {
        let g = self.group_of(id);
        self.cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.group == g)
            .map(|(i, _)| i)
            .collect()
    }

    /// Applies a modification to the base table once and defers it into
    /// the core of every group referencing that table. Returns the
    /// fan-out (number of dependent views).
    pub fn ingest(&mut self, table: TableId, m: Modification) -> Result<usize, EngineError> {
        self.db.apply(table, &m)?;
        let mut fanout = 0;
        for group in &mut self.groups {
            for pos in 0..group.core.n() {
                if group.core.table_ids[pos] == table {
                    group.core.enqueue(pos, m.clone());
                    fanout += group.members.len();
                }
            }
        }
        Ok(fanout)
    }

    /// [`ViewRegistry::ingest`] by table name.
    pub fn ingest_by_name(&mut self, table: &str, m: Modification) -> Result<usize, EngineError> {
        let id = self.db.table_id(table)?;
        self.ingest(id, m)
    }

    /// Executes a DML statement (`INSERT` / `UPDATE` / `DELETE`),
    /// applying it to the base table and routing every implied
    /// modification into the dependent groups' delta tables. Returns the
    /// number of modifications.
    pub fn execute_sql(&mut self, sql: &str) -> Result<usize, EngineError> {
        let stmt = compile_dml(&self.db, sql)?;
        let count = stmt.modifications.len();
        for m in stmt.modifications {
            self.ingest(stmt.table, m)?;
        }
        Ok(count)
    }

    /// Flushes `counts[c]` pending modifications for each cell `c` of
    /// the flattened axis: every group with a non-zero cell runs the
    /// flush walk of [`MaterializedView::flush`] once over its core and
    /// all its leaves, with its own run of counts. Every member of a
    /// touched group closes out exactly one flush (sequence bump +
    /// snapshot publication).
    pub fn flush_cells(&mut self, counts: &[u64]) -> Result<RegistryFlushReport, EngineError> {
        if counts.len() != self.cells.len() {
            return Err(EngineError::Maintenance {
                message: format!(
                    "flush counts arity {} != {} cells",
                    counts.len(),
                    self.cells.len()
                ),
            });
        }
        let mut report = RegistryFlushReport::default();
        let mut rest = counts;
        for group in &mut self.groups {
            let (own, tail) = rest.split_at(group.core.n());
            rest = tail;
            if own.iter().all(|&k| k == 0) {
                continue;
            }
            let (own, propagations) = group.core.flush(&self.db, &mut group.leaves, own)?;
            let members = group.members.len() as u64;
            self.stats.propagations += propagations;
            self.stats.shared_propagations += propagations * (members - 1);
            report.mods_processed += own.mods_processed * members;
            report.exec.merge(&own.exec);
            report.touched.extend(&group.members);
        }
        report.touched.sort_unstable();
        Ok(report)
    }

    /// Fully flushes one view's group (the refresh action at time `T`
    /// for that view — every member of the group comes fresh too).
    pub fn refresh_view(&mut self, id: ViewId) -> Result<RegistryFlushReport, EngineError> {
        let g = self.group_of(id);
        let counts: Vec<u64> = (self.cells.iter().zip(self.cell_counts()))
            .map(|(cell, k)| if cell.group == g { k } else { 0 })
            .collect();
        self.flush_cells(&counts)
    }

    /// Fully flushes every group.
    pub fn refresh_all(&mut self) -> Result<RegistryFlushReport, EngineError> {
        let counts = self.cell_counts();
        self.flush_cells(&counts)
    }

    /// A view's current result.
    pub fn result(&self, id: ViewId) -> Vec<WRow> {
        self.view(id).result()
    }

    /// A view's order-independent content checksum.
    pub fn result_checksum(&self, id: ViewId) -> u64 {
        self.view(id).result_checksum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::ivm::{AggSpec, JoinPred};
    use crate::logical::AggFunc;
    use crate::row;
    use crate::schema::Schema;
    use crate::value::{DataType, Value};

    fn base() -> Database {
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
        db
    }

    fn join_def(name: &str) -> ViewDef {
        ViewDef {
            name: name.into(),
            tables: vec!["r".into(), "s".into()],
            join_preds: vec![JoinPred {
                left: (0, 0),
                right: (1, 0),
            }],
            filters: vec![None, None],
            residual: None,
            projection: None,
            aggregate: None,
            distinct: false,
        }
    }

    fn min_def(name: &str) -> ViewDef {
        ViewDef {
            aggregate: Some(AggSpec {
                group_by: vec![],
                aggs: vec![(AggFunc::Min, Expr::col(1), "m".into())],
            }),
            ..join_def(name)
        }
    }

    fn sum_def(name: &str) -> ViewDef {
        ViewDef {
            aggregate: Some(AggSpec {
                group_by: vec![0],
                aggs: vec![(AggFunc::Sum, Expr::col(3), "s".into())],
            }),
            ..join_def(name)
        }
    }

    fn filtered_def(name: &str) -> ViewDef {
        ViewDef {
            filters: vec![
                None,
                Some(Expr::Cmp(
                    crate::expr::CmpOp::Gt,
                    Box::new(Expr::col(1)),
                    Box::new(Expr::lit(0i64)),
                )),
            ],
            ..join_def(name)
        }
    }

    /// Drives the same stream through a registry and through
    /// independent views, asserting bit-identical contents.
    fn assert_equivalent(defs: Vec<ViewDef>, flush_steps: &[u64]) {
        let mut reg = ViewRegistry::new(base());
        let ids: Vec<ViewId> = defs
            .iter()
            .map(|d| reg.register_view(d.clone(), MinStrategy::Multiset).unwrap())
            .collect();

        let mut solo_db = base();
        let mut solos: Vec<MaterializedView> = defs
            .iter()
            .map(|d| {
                MaterializedView::register(&mut solo_db, d.clone(), MinStrategy::Multiset).unwrap()
            })
            .collect();

        let mods: Vec<(String, Modification)> = (0..40i64)
            .flat_map(|i| {
                let mut v = vec![
                    (
                        "r".to_string(),
                        Modification::Insert(row![i % 7, (i as f64) * 0.5]),
                    ),
                    ("s".to_string(), Modification::Insert(row![i % 7, i - 20])),
                ];
                if i % 5 == 4 {
                    v.push((
                        "s".to_string(),
                        Modification::Delete(row![(i - 1) % 7, i - 21]),
                    ));
                }
                v
            })
            .collect();

        let mut step = 0;
        for (chunk_no, chunk) in mods.chunks(9).enumerate() {
            for (t, m) in chunk {
                reg.ingest_by_name(t, m.clone()).unwrap();
                let tid = solo_db.table_id(t).unwrap();
                solo_db.apply(tid, m).unwrap();
                for solo in &mut solos {
                    let pos = solo.table_position(t).unwrap();
                    solo.enqueue(pos, m.clone());
                }
            }
            // Partial flush: a different per-table split each chunk.
            let k = flush_steps[chunk_no % flush_steps.len()];
            let cell_counts = reg.cell_counts();
            let counts: Vec<u64> = cell_counts.iter().map(|&c| c.min(k)).collect();
            reg.flush_cells(&counts).unwrap();
            for (vi, solo) in solos.iter_mut().enumerate() {
                let cells = reg.cells_of_view(vi);
                let per_table: Vec<u64> = cells.iter().map(|&c| counts[c]).collect();
                solo.flush(&solo_db, &per_table).unwrap();
            }
            step += 1;
            for (vi, solo) in solos.iter().enumerate() {
                assert_eq!(
                    reg.result_checksum(ids[vi]),
                    solo.result_checksum(),
                    "view {vi} diverged at step {step}"
                );
            }
        }
        reg.refresh_all().unwrap();
        for solo in &mut solos {
            solo.refresh(&solo_db).unwrap();
        }
        for (vi, solo) in solos.iter().enumerate() {
            assert_eq!(reg.result_checksum(ids[vi]), solo.result_checksum());
            assert_eq!(reg.pending_counts(ids[vi]), solo.pending_counts());
        }
    }

    #[test]
    fn same_core_views_share_one_group() {
        let mut reg = ViewRegistry::new(base());
        reg.register_view(join_def("a"), MinStrategy::Multiset)
            .unwrap();
        reg.register_view(min_def("b"), MinStrategy::Multiset)
            .unwrap();
        reg.register_view(sum_def("c"), MinStrategy::Multiset)
            .unwrap();
        assert_eq!(reg.view_count(), 3);
        assert_eq!(reg.group_count(), 1, "shared SPJ core → one group");
        assert_eq!(reg.cells().len(), 2, "one cell per base table");
        assert_eq!(reg.cell_fanout(), vec![3, 3]);
    }

    #[test]
    fn different_filters_split_groups() {
        let mut reg = ViewRegistry::new(base());
        reg.register_view(join_def("a"), MinStrategy::Multiset)
            .unwrap();
        reg.register_view(filtered_def("b"), MinStrategy::Multiset)
            .unwrap();
        assert_eq!(reg.group_count(), 2);
        assert_eq!(reg.cells().len(), 4);
    }

    #[test]
    fn mid_stream_registration_joins_its_group() {
        let mut reg = ViewRegistry::new(base());
        let a = reg
            .register_view(join_def("a"), MinStrategy::Multiset)
            .unwrap();
        reg.ingest_by_name("r", Modification::Insert(row![1i64, 1.0f64]))
            .unwrap();
        reg.ingest_by_name("s", Modification::Insert(row![1i64, 2i64]))
            .unwrap();
        reg.flush_cells(&[1, 0]).unwrap();
        // The newcomer joins with the s insert still pending and starts
        // at the processed prefix, where r's row has no partner yet.
        let late = reg
            .register_view(min_def("late"), MinStrategy::Multiset)
            .unwrap();
        assert_eq!(reg.group_count(), 1);
        assert_eq!(reg.pending_counts(late), vec![0, 1]);
        assert_eq!(reg.view(late).scalar(), Some(Value::Null));
        reg.ingest_by_name("r", Modification::Insert(row![1i64, 0.5f64]))
            .unwrap();
        reg.refresh_all().unwrap();
        for (id, def) in [(a, join_def("a")), (late, min_def("late"))] {
            let direct = MaterializedView::new(reg.db(), def, MinStrategy::Multiset).unwrap();
            assert_eq!(reg.result_checksum(id), direct.result_checksum());
        }
        assert_eq!(reg.view(late).scalar(), Some(Value::Float(0.5)));
    }

    #[test]
    fn shared_flush_matches_independent_views() {
        assert_equivalent(
            vec![join_def("a"), min_def("b"), sum_def("c")],
            &[2, 64, 1, 3],
        );
    }

    #[test]
    fn mixed_groups_match_independent_views() {
        assert_equivalent(
            vec![join_def("a"), filtered_def("b"), min_def("c"), sum_def("d")],
            &[64, 2, 5],
        );
    }

    #[test]
    fn sharing_counters_count_saved_propagations() {
        let mut reg = ViewRegistry::new(base());
        for i in 0..4 {
            reg.register_view(min_def(&format!("v{i}")), MinStrategy::Multiset)
                .unwrap();
        }
        reg.ingest_by_name("r", Modification::Insert(row![1i64, 2.0f64]))
            .unwrap();
        reg.ingest_by_name("s", Modification::Insert(row![1i64, 3i64]))
            .unwrap();
        reg.refresh_all().unwrap();
        let stats = reg.stats();
        assert_eq!(stats.propagations, 2, "one per table, not per view");
        assert_eq!(stats.shared_propagations, 6, "3 members saved × 2 tables");
    }

    #[test]
    fn refresh_view_freshens_its_whole_group() {
        let mut reg = ViewRegistry::new(base());
        let a = reg
            .register_view(join_def("a"), MinStrategy::Multiset)
            .unwrap();
        let b = reg
            .register_view(min_def("b"), MinStrategy::Multiset)
            .unwrap();
        let c = reg
            .register_view(filtered_def("c"), MinStrategy::Multiset)
            .unwrap();
        reg.ingest_by_name("r", Modification::Insert(row![1i64, 2.0f64]))
            .unwrap();
        reg.ingest_by_name("s", Modification::Insert(row![1i64, 3i64]))
            .unwrap();
        let rep = reg.refresh_view(a).unwrap();
        assert_eq!(
            rep.touched,
            vec![a, b],
            "the group's other member comes along"
        );
        assert_eq!(reg.pending_counts(a), vec![0, 0]);
        assert_eq!(reg.pending_counts(b), vec![0, 0]);
        assert_eq!(reg.pending_counts(c), vec![1, 1], "other group untouched");
    }

    #[test]
    fn snapshots_publish_per_member_seq_and_staleness() {
        let mut reg = ViewRegistry::new(base());
        let a = reg
            .register_view(join_def("a"), MinStrategy::Multiset)
            .unwrap();
        let b = reg
            .register_view(min_def("b"), MinStrategy::Multiset)
            .unwrap();
        reg.ingest_by_name("r", Modification::Insert(row![1i64, 2.0f64]))
            .unwrap();
        assert_eq!(reg.snapshot(a).seq, 0);
        reg.refresh_all().unwrap();
        let (sa, sb) = (reg.snapshot(a), reg.snapshot(b));
        assert_eq!((sa.seq, sb.seq), (1, 1));
        assert_eq!(sa.staleness, vec![0, 0]);
        assert!(!sa.rows.is_empty() || sa.checksum == 0);
        assert_eq!(sb.rows.len(), 1, "scalar aggregate has one row");
    }

    #[test]
    fn a_stale_modification_is_rejected_before_anything_moves() {
        let mut db = base();
        let r = db.table_id("r").unwrap();
        db.set_key_column(r, 0);
        let mut reg = ViewRegistry::new(db);
        let v = reg
            .register_view(min_def("m"), MinStrategy::Multiset)
            .unwrap();
        for (t, m) in [
            ("r", row![1i64, 4.0f64]),
            ("r", row![2i64, 8.0f64]),
            ("s", row![1i64, 1i64]),
            ("s", row![2i64, 2i64]),
        ] {
            reg.ingest_by_name(t, Modification::Insert(m)).unwrap();
        }
        let update = Modification::Update {
            old: row![1i64, 4.0f64],
            new: row![1i64, 6.0f64],
        };
        reg.ingest_by_name("r", update.clone()).unwrap();
        // Replayed, the update names an old row key 1 no longer holds;
        // a delete naming the wrong non-key value is just as stale.
        let (db_before, pending_before) = (reg.db().content_checksum(), reg.cell_counts());
        for stale in [update, Modification::Delete(row![2i64, 9.0f64])] {
            let err = reg.ingest_by_name("r", stale).unwrap_err();
            assert!(matches!(err, EngineError::StaleRow { .. }), "{err}");
        }
        assert_eq!(reg.db().content_checksum(), db_before);
        assert_eq!(reg.cell_counts(), pending_before, "nothing enqueued");
        reg.refresh_all().unwrap();
        let direct = MaterializedView::new(reg.db(), min_def("m"), MinStrategy::Multiset).unwrap();
        assert_eq!(reg.result_checksum(v), direct.result_checksum());
    }

    #[test]
    fn duplicate_view_names_rejected() {
        let mut reg = ViewRegistry::new(base());
        reg.register_view(join_def("v"), MinStrategy::Multiset)
            .unwrap();
        assert!(reg
            .register_view(join_def("v"), MinStrategy::Multiset)
            .is_err());
        assert_eq!(reg.view_id("v"), Some(0));
        assert_eq!(reg.view_id("zz"), None);
    }

    #[test]
    fn modifications_route_to_dependent_views_only() {
        let mut reg = ViewRegistry::new(base());
        let join = reg
            .register_view(join_def("join"), MinStrategy::Multiset)
            .unwrap();
        let solo_def = ViewDef {
            tables: vec!["r".into()],
            join_preds: vec![],
            filters: vec![None],
            projection: Some(vec![(Expr::col(1), "x".into())]),
            ..join_def("solo")
        };
        let solo = reg.register_view(solo_def, MinStrategy::Multiset).unwrap();
        let r = Modification::Insert(row![1i64, 10.0f64]);
        assert_eq!(reg.ingest_by_name("r", r).unwrap(), 2);
        let s = Modification::Insert(row![1i64, 5i64]);
        assert_eq!(reg.ingest_by_name("s", s).unwrap(), 1);
        assert_eq!(reg.pending_counts(join), vec![1, 1]);
        assert_eq!(reg.pending_counts(solo), vec![1]);
        reg.refresh_view(solo).unwrap();
        assert_eq!(reg.result(solo), vec![(row![10.0f64], 1)]);
        assert_eq!(reg.pending_counts(join), vec![1, 1], "flushed apart");
        reg.refresh_all().unwrap();
        assert_eq!(reg.result(join).len(), 1);
    }

    #[test]
    fn sql_dml_routes_through_views() {
        let mut reg = ViewRegistry::new(base());
        let v = reg
            .register_view(min_def("m"), MinStrategy::Multiset)
            .unwrap();
        let n1 = reg
            .execute_sql("INSERT INTO r VALUES (1, 5.0), (1, 3.0)")
            .unwrap();
        let n2 = reg.execute_sql("INSERT INTO s VALUES (1, 7)").unwrap();
        assert_eq!((n1, n2), (2, 1));
        for (dml, min) in [
            ("", Value::Float(3.0)),
            ("UPDATE r SET x = 10.0 WHERE x < 4", Value::Float(5.0)),
            ("DELETE FROM s", Value::Null),
        ] {
            if !dml.is_empty() {
                reg.execute_sql(dml).unwrap();
            }
            reg.refresh_view(v).unwrap();
            assert_eq!(reg.view(v).scalar(), Some(min), "after {dml:?}");
        }
    }
}
