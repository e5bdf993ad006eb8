//! Multi-view maintenance with shared delta propagation.
//!
//! The paper schedules maintenance for one view by exploiting per-table
//! cost asymmetry; serving many views over the same base tables adds a
//! second axis. [`ViewRegistry`] owns the database plus any number of
//! registered views and:
//!
//! * routes every base-table modification into the delta tables of
//!   exactly the views that reference that table (arrival-time
//!   application happens once, to the shared database);
//! * groups views by their *SPJ signature* — identical `(tables,
//!   join_preds, filters, residual)` — and propagates each start-table
//!   delta batch **once per group**, carrying the union of the members'
//!   live columns. The join delta is consolidated once and every member
//!   folds its own projection / aggregate / distinct from that one
//!   shared slice. Propagation (the join fan-out with compensation) is
//!   the dominant maintenance cost, so a group of `m` views pays ~1/m
//!   of the independent cost;
//! * exposes a flattened *(group × table)* cell axis so a scheduler can
//!   run the paper's knapsack over "which view × which table to flush"
//!   directly: each cell's pending count is the group's (lockstep)
//!   per-table backlog, and flushing a cell advances every member.
//!
//! The sharing rule is exact-SPJ-core equality, not proper join-tree
//! prefixes: compensation state is per view, and splicing a shared
//! prefix into differently-shaped suffixes would need per-view residual
//! compensation mid-tree. Exact matching captures the production case —
//! many dashboards/aggregations over one canonical join — and degrades
//! to fully independent maintenance when every view is distinct.
//!
//! **Lockstep invariant.** Members of a group always hold identical
//! pending delta tables: ingest fans out clones of the same
//! modification, and flushes consume identical prefixes group-wide. A
//! view can therefore only *join* an existing group while that group has
//! nothing pending (in practice: register views before streaming); a
//! signature match against a mid-stream group starts a new group
//! instead, which is conservative but never wrong.

use crate::db::{Database, TableId};
use crate::delta::Modification;
use crate::error::EngineError;
use crate::exec::{ExecStats, WRow};
use crate::ivm::{FlushReport, MaterializedView, MinStrategy, ViewDef, ViewSnapshot};
use std::collections::HashMap;
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
    /// Propagations *saved* by sharing — one per non-leader member each
    /// time a group's delta is propagated (an independent runtime would
    /// have paid each of these).
    pub shared_propagations: u64,
}

/// Report of one [`ViewRegistry::flush_cells`] invocation.
#[derive(Clone, Debug, Default)]
pub struct RegistryFlushReport {
    /// Modifications consumed, summed over member views (matching the
    /// accounting of independent per-view runtimes).
    pub mods_processed: u64,
    /// Executor counters for the propagations this flush ran (shared
    /// propagations appear once, under the group leader).
    pub exec: ExecStats,
    /// Views whose flush sequence advanced (any cell of their group had
    /// a non-zero count).
    pub touched: Vec<ViewId>,
    /// Full recomputations triggered (dirty extremum resolution).
    pub recomputes: u64,
}

/// A group of views sharing one SPJ core (and, by the lockstep
/// invariant, identical pending delta tables).
#[derive(Clone, Debug)]
struct ShareGroup {
    /// Member view ids; `members[0]` is the leader whose delta tables
    /// and compensation state drive the shared propagation.
    members: Vec<ViewId>,
}

/// A database bundled with registered views, sharing groups and the
/// flattened (group × table) scheduling axis.
#[derive(Clone, Debug)]
pub struct ViewRegistry {
    db: Database,
    views: Vec<MaterializedView>,
    names: HashMap<String, ViewId>,
    /// `routes[table_id]` = views referencing that base table, with the
    /// table's position inside each view.
    routes: Vec<Vec<(ViewId, usize)>>,
    groups: Vec<ShareGroup>,
    /// View id → its group's index.
    group_of: Vec<usize>,
    /// The flattened scheduling axis, one entry per (group, table).
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
        let tables = db.table_count();
        ViewRegistry {
            db,
            views: Vec::new(),
            names: HashMap::new(),
            routes: vec![Vec::new(); tables],
            groups: Vec::new(),
            group_of: Vec::new(),
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
        self.views.len()
    }

    /// Number of sharing groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The sharing group a view belongs to.
    pub fn group_of(&self, id: ViewId) -> usize {
        self.group_of[id]
    }

    /// Member views of a sharing group (the leader first).
    pub fn group_members(&self, group: usize) -> &[ViewId] {
        &self.groups[group].members
    }

    /// Registers a view (auto-creating join indexes and turning on
    /// snapshot publication, like [`MaterializedView::register`]) and
    /// assigns it to a sharing group: an existing group with the same
    /// SPJ core and nothing pending, else a new one.
    pub fn register_view(
        &mut self,
        def: ViewDef,
        strategy: MinStrategy,
    ) -> Result<ViewId, EngineError> {
        if self.names.contains_key(&def.name) {
            return Err(EngineError::Unsupported {
                message: format!("view {} already exists", def.name),
            });
        }
        let view = MaterializedView::register(&mut self.db, def, strategy)?;
        self.insert(view)
    }

    /// A registry of one: wraps `db` and a view already built over it,
    /// keeping whatever the caller configured on the view (heavy-light
    /// sketches, MIN/MAX strategy, physical design) and turning on
    /// snapshot publication. This is how a single view becomes the N = 1
    /// of the multi-view serving runtime.
    pub fn adopt(db: Database, mut view: MaterializedView) -> Result<Self, EngineError> {
        view.set_snapshot_publishing(true);
        let mut reg = ViewRegistry::new(db);
        reg.insert(view)?;
        Ok(reg)
    }

    /// Routes a new view's tables, assigns its sharing group and
    /// rebases the group onto the union of its members' live columns.
    fn insert(&mut self, view: MaterializedView) -> Result<ViewId, EngineError> {
        let id = self.views.len();
        for (pos, table_name) in view.def().tables.iter().enumerate() {
            let table_id = self.db.table_id(table_name)?;
            if table_id >= self.routes.len() {
                self.routes.resize(table_id + 1, Vec::new());
            }
            self.routes[table_id].push((id, pos));
        }
        let group = self.assign_group(id, view.def());
        self.group_of.push(group);
        self.names.insert(view.def().name.clone(), id);
        self.views.push(view);
        // A group's shared deltas carry the union of its members' live
        // columns. Membership changed, so every member recompiles its
        // plans and rebases its finisher onto the new union.
        let members = &self.groups[group].members;
        if members.len() > 1 {
            let mut live = [self.views[members[0]].live(), self.views[id].live()].concat();
            live.sort_unstable();
            live.dedup();
            for &v in members {
                self.views[v].set_live(&self.db, live.clone());
            }
        }
        Ok(id)
    }

    /// Finds (or creates) the sharing group for a new view. Joining an
    /// existing group requires the lockstep invariant to hold from the
    /// start: the group must have no pending modifications, because the
    /// new view's (empty) delta tables must match its members'.
    fn assign_group(&mut self, id: ViewId, def: &ViewDef) -> usize {
        for (g, group) in self.groups.iter_mut().enumerate() {
            let leader = &self.views[group.members[0]];
            if same_spj_core(leader.def(), def) && leader.pending_counts().iter().all(|&c| c == 0) {
                group.members.push(id);
                return g;
            }
        }
        let g = self.groups.len();
        for table in 0..def.tables.len() {
            self.cells.push(Cell { group: g, table });
        }
        self.groups.push(ShareGroup { members: vec![id] });
        g
    }

    /// Resolves a view by name.
    pub fn view_id(&self, name: &str) -> Option<ViewId> {
        self.names.get(name).copied()
    }

    /// Read access to a view.
    pub fn view(&self, id: ViewId) -> &MaterializedView {
        &self.views[id]
    }

    /// A view's latest flush-boundary snapshot (O(1) `Arc` clone).
    pub fn snapshot(&self, id: ViewId) -> Arc<ViewSnapshot> {
        self.views[id].snapshot()
    }

    /// Sets the propagation width on every view (group leaders do the
    /// propagating, but membership can change).
    pub fn set_flush_threads(&mut self, threads: usize) {
        for v in &mut self.views {
            v.set_flush_threads(threads);
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
    /// `s` over the flattened (group × table) axis. By the lockstep
    /// invariant the group leader's counts stand for every member's.
    pub fn cell_counts(&self) -> Vec<u64> {
        self.cells
            .iter()
            .map(|c| self.views[self.groups[c.group].members[0]].pending_counts()[c.table])
            .collect()
    }

    /// The pending modifications per cell, in arrival order — a
    /// durability checkpoint's delta payload. By lockstep the group
    /// leader's delta tables stand for every member's, so a registry of
    /// one yields exactly its view's per-table layout.
    pub fn pending_snapshot(&self) -> Vec<Vec<Modification>> {
        (self.groups.iter())
            .flat_map(|g| self.views[g.members[0]].pending_snapshot())
            .collect()
    }

    /// Restores every view from a checkpoint: pending deltas per cell
    /// (as [`ViewRegistry::pending_snapshot`] took them, installed into
    /// each member of the cell's group) and each view's flush sequence,
    /// so republished snapshots carry the seqs the checkpointed run had
    /// reached. The database must already hold every arrival, pending
    /// ones included (§2 arrival semantics).
    pub fn restore_pending(
        &mut self,
        cells: Vec<Vec<Modification>>,
        seqs: &[u64],
    ) -> Result<(), EngineError> {
        if cells.len() != self.cells.len() || seqs.len() != self.views.len() {
            return Err(EngineError::Maintenance {
                message: format!(
                    "checkpoint holds {} cells and {} seqs; registry has {} and {}",
                    cells.len(),
                    seqs.len(),
                    self.cells.len(),
                    self.views.len()
                ),
            });
        }
        let mut cells = cells.into_iter();
        for group in &self.groups {
            let leader = &self.views[group.members[0]];
            let mods: Vec<Vec<Modification>> = cells.by_ref().take(leader.n()).collect();
            for &v in &group.members {
                self.views[v].stats.flushes = seqs[v];
                self.views[v].restore_pending(&self.db, mods.clone())?;
            }
        }
        Ok(())
    }

    /// Pending counts of one view (its group's, by lockstep).
    pub fn pending_counts(&self, id: ViewId) -> Vec<u64> {
        self.views[id].pending_counts()
    }

    /// The cell indices belonging to one view's group, in table order.
    pub fn cells_of_view(&self, id: ViewId) -> Vec<usize> {
        let g = self.group_of[id];
        self.cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.group == g)
            .map(|(i, _)| i)
            .collect()
    }

    /// Applies a modification to the base table once and defers it into
    /// every dependent view's delta table. Returns the fan-out (number
    /// of dependent views).
    pub fn ingest(&mut self, table: TableId, m: Modification) -> Result<usize, EngineError> {
        self.db.apply(table, &m)?;
        let routes = &self.routes[table];
        match routes.len() {
            0 => {}
            1 => {
                let (vid, pos) = routes[0];
                self.views[vid].enqueue(pos, m);
            }
            _ => {
                for &(vid, pos) in routes {
                    self.views[vid].enqueue(pos, m.clone());
                }
            }
        }
        Ok(self.routes[table].len())
    }

    /// [`ViewRegistry::ingest`] by table name.
    pub fn ingest_by_name(&mut self, table: &str, m: Modification) -> Result<usize, EngineError> {
        let id = self.db.table_id(table)?;
        self.ingest(id, m)
    }

    /// Flushes `counts[c]` pending modifications for each cell `c` of
    /// the flattened axis (cells processed in ascending index order).
    ///
    /// One cell flush runs the leader's propagation once and folds the
    /// resulting join delta into every member; each member's own delta
    /// cursor advances by the same prefix, preserving lockstep. Views
    /// touched by at least one non-zero cell then close out exactly one
    /// flush (sequence bump + snapshot publication), mirroring a
    /// single-view [`MaterializedView::flush`] over its per-table
    /// counts.
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
        let mut per_view: HashMap<ViewId, FlushReport> = HashMap::new();
        // Every touched group's leader (the member whose heavy-light
        // state drives the shared propagation) reclassifies first, at
        // the flush boundary — exactly where `MaterializedView::flush`
        // does.
        let mut touched_groups: Vec<usize> = (self.cells.iter().zip(counts))
            .filter(|&(_, &k)| k > 0)
            .map(|(cell, _)| cell.group)
            .collect();
        touched_groups.dedup();
        for g in touched_groups {
            let leader = self.groups[g].members[0];
            self.views[leader].reclassify_heavy(&self.db);
        }
        for (c, &count) in counts.iter().enumerate() {
            let k = count as usize;
            if k == 0 {
                continue;
            }
            let Cell { group, table } = self.cells[c];
            self.flush_cell(group, table, k, &mut per_view)?;
        }
        // Close out each touched view once, in id order (deterministic
        // snapshot sequence across members).
        let mut touched: Vec<ViewId> = per_view.keys().copied().collect();
        touched.sort_unstable();
        for &v in &touched {
            let mut r = per_view.remove(&v).expect("touched view has a report");
            self.views[v].finish_flush(&self.db, &mut r)?;
            report.mods_processed += r.mods_processed;
            report.exec.merge(&r.exec);
            if r.recomputed {
                report.recomputes += 1;
            }
        }
        report.touched = touched;
        Ok(report)
    }

    /// One cell's shared flush step: the leader takes and propagates the
    /// prefix; members discard the identical prefix and apply the shared
    /// join delta through their own projection/aggregate.
    fn flush_cell(
        &mut self,
        group: usize,
        table: usize,
        k: usize,
        per_view: &mut HashMap<ViewId, FlushReport>,
    ) -> Result<(), EngineError> {
        let members = self.groups[group].members.clone();
        let leader = members[0];
        debug_assert!(
            members
                .iter()
                .all(|&v| self.views[v].pending_counts() == self.views[leader].pending_counts()),
            "sharing group {group} lost lockstep"
        );
        let delta = self.views[leader].take_start_delta(&self.db, table, k)?;
        for &v in &members[1..] {
            self.views[v].discard_start_prefix(table, k)?;
        }
        for &v in &members {
            per_view.entry(v).or_default().mods_processed += k as u64;
        }
        if delta.is_empty() {
            return Ok(());
        }
        let mut stats = ExecStats::default();
        let dj = self.views[leader].propagate_chunked(&self.db, table, delta, &mut stats)?;
        self.stats.propagations += 1;
        self.stats.shared_propagations += (members.len() - 1) as u64;
        per_view
            .get_mut(&leader)
            .expect("leader report exists")
            .exec
            .merge(&stats);
        // Prepared once, for the group's most demanding member, then
        // folded by every member from the one shared slice.
        let prep = members.iter().map(|&v| self.views[v].prep()).max();
        let dj = prep.expect("groups are non-empty").apply(dj);
        for &v in &members {
            self.views[v].apply_delta(&dj)?;
        }
        Ok(())
    }

    /// Fully flushes one view's group (the refresh action at time `T`
    /// for that view — by lockstep every member comes fresh too).
    pub fn refresh_view(&mut self, id: ViewId) -> Result<RegistryFlushReport, EngineError> {
        let mut counts = vec![0u64; self.cells.len()];
        let g = self.group_of[id];
        let leader = self.groups[g].members[0];
        let pending = self.views[leader].pending_counts();
        for (c, cell) in self.cells.iter().enumerate() {
            if cell.group == g {
                counts[c] = pending[cell.table];
            }
        }
        self.flush_cells(&counts)
    }

    /// Fully flushes every group.
    pub fn refresh_all(&mut self) -> Result<RegistryFlushReport, EngineError> {
        let counts = self.cell_counts();
        self.flush_cells(&counts)
    }

    /// A view's current result.
    pub fn result(&self, id: ViewId) -> Vec<WRow> {
        self.views[id].result()
    }

    /// A view's order-independent content checksum.
    pub fn result_checksum(&self, id: ViewId) -> u64 {
        self.views[id].result_checksum()
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
    use crate::value::DataType;

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
    fn mid_stream_registration_starts_a_new_group() {
        let mut reg = ViewRegistry::new(base());
        reg.register_view(join_def("a"), MinStrategy::Multiset)
            .unwrap();
        reg.ingest_by_name("r", Modification::Insert(row![1i64, 1.0f64]))
            .unwrap();
        // "a" has pending deltas the newcomer never saw: no lockstep.
        reg.register_view(min_def("late"), MinStrategy::Multiset)
            .unwrap();
        assert_eq!(reg.group_count(), 2);
        // Once both groups are drained, a third registrant may join
        // either; it matches the first group with the same core.
        reg.refresh_all().unwrap();
        reg.register_view(sum_def("later"), MinStrategy::Multiset)
            .unwrap();
        assert_eq!(reg.group_count(), 2);
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
        assert_eq!(rep.touched, vec![a, b], "lockstep member comes along");
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
}
