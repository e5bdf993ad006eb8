//! Incremental view maintenance with state-bug-safe compensation.
//!
//! A [`MaterializedView`] is an SPJ core — one FIFO delta table per base
//! table (§2 of the paper), the compiled join plans — finished by a
//! [`ViewLeaf`] holding the incrementally maintained result state. A
//! [`registry`](crate::registry) sharing group is one core finished by
//! many leaves. Flushing a batch of `k` pending modifications of table
//! `R_i` propagates their join delta into every leaf's state:
//!
//! ```text
//! ΔV = δ_i ⋈ ⨝_{j≠i} (physical(R_j) − pending(ΔR_j))
//! ```
//!
//! Base tables are updated immediately on arrival, so a naive join of
//! `δ_i` against the *physical* other tables would double-count the
//! interaction of two pending deltas — the classic *state bug* [Colby et
//! al. 1996] the paper's footnote 1 refers to. Subtracting each table's
//! still-pending delta (algebraically, with negated weights) restores
//! the correct semantics: at every instant the view equals the query
//! evaluated over each table's *processed prefix*.
//!
//! `MIN`/`MAX` maintenance comes in two flavours (§5 discusses the
//! paper's choice):
//!
//! * [`MinStrategy::Multiset`] — an ordered multiset (`BTreeMap`) per
//!   group makes deletions exact; the production approach.
//! * [`MinStrategy::Recompute`] — the paper-faithful fallback: deleting
//!   the current extremum marks the state dirty and the view is
//!   recomputed from the processed-prefix states at the end of the
//!   flush.

use crate::db::{Database, TableId};
use crate::delta::{DeltaTable, Modification};
use crate::error::EngineError;
use crate::exec::{self, ExecStats, JoinShape, WRow};
use crate::expr::Expr;
use crate::fxhash::FxHashMap;
use crate::index::IndexKind;
use crate::logical::{AggFunc, LogicalPlan};
use crate::schema::Row;
use crate::value::Value;
use std::collections::{btree_map, hash_map, BTreeMap};
use std::sync::Arc;

/// Below this many weighted delta rows a flush propagates serially even
/// when more threads are configured: thread spawn overhead dominates
/// tiny batches.
const MIN_PARALLEL_DELTA: usize = 64;

/// An equi-join predicate between two base tables of a view:
/// `tables[left.0].col(left.1) = tables[right.0].col(right.1)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JoinPred {
    /// `(table index, column index)` of the left side.
    pub left: (usize, usize),
    /// `(table index, column index)` of the right side.
    pub right: (usize, usize),
}

/// An aggregate specification over the canonical joined schema.
#[derive(Clone, Debug, PartialEq)]
pub struct AggSpec {
    /// Grouping columns (canonical joined-schema positions).
    pub group_by: Vec<usize>,
    /// `(function, argument, output name)` triples.
    pub aggs: Vec<(AggFunc, Expr, String)>,
}

/// A view definition: a select-project-join core over `n` base tables
/// with an optional aggregate on top.
///
/// The *canonical joined schema* is the concatenation of the base-table
/// schemas in `tables` order; `filters`, `residual`, `projection` and
/// `aggregate` are all expressed against it (except `filters`, which are
/// per-table).
#[derive(Clone, Debug)]
pub struct ViewDef {
    /// View name.
    pub name: String,
    /// Base tables, in canonical order.
    pub tables: Vec<String>,
    /// Equi-join predicates connecting the tables.
    pub join_preds: Vec<JoinPred>,
    /// Optional per-table local filter (over that table's schema).
    pub filters: Vec<Option<Expr>>,
    /// Optional residual predicate over the canonical joined schema
    /// (non-equi or multi-table conditions).
    pub residual: Option<Expr>,
    /// Optional projection over the canonical joined schema; `None`
    /// keeps every column. Ignored when `aggregate` is set.
    pub projection: Option<Vec<(Expr, String)>>,
    /// Optional aggregate on top of the join.
    pub aggregate: Option<AggSpec>,
    /// `SELECT DISTINCT` semantics: the result exposes each distinct
    /// output row once. The maintained state still tracks exact
    /// multiplicities (that is what makes DISTINCT views incrementally
    /// maintainable under deletions); only reads collapse them.
    pub distinct: bool,
}

impl ViewDef {
    /// Per-table column offsets in the canonical joined schema.
    pub fn offsets(&self, db: &Database) -> Result<Vec<usize>, EngineError> {
        let mut offsets = Vec::with_capacity(self.tables.len());
        let mut acc = 0;
        for name in &self.tables {
            offsets.push(acc);
            acc += db.table_by_name(name)?.schema().arity();
        }
        Ok(offsets)
    }

    /// The canonical columns the view's finisher reads — group-by,
    /// aggregate arguments, projection, residual; every column for a
    /// `SELECT *` bag — ascending. Delta propagation carries only these
    /// (plus, mid-join, the columns a predicate still needs).
    pub(crate) fn live_columns(&self, db: &Database) -> Result<Vec<usize>, EngineError> {
        let mut width = 0;
        for name in &self.tables {
            width += db.table_by_name(name)?.schema().arity();
        }
        let mut cols = Vec::new();
        if let Some(residual) = &self.residual {
            residual.columns(&mut cols);
        }
        match (&self.aggregate, &self.projection) {
            (Some(agg), _) => {
                cols.extend(&agg.group_by);
                agg.aggs
                    .iter()
                    .for_each(|(_, arg, _)| arg.columns(&mut cols));
            }
            (None, Some(proj)) => proj.iter().for_each(|(e, _)| e.columns(&mut cols)),
            (None, None) => cols.extend(0..width),
        }
        cols.sort_unstable();
        cols.dedup();
        match cols.last() {
            Some(&c) if c >= width => Err(EngineError::Unsupported {
                message: format!("view reads column {c} of a {width}-column join"),
            }),
            _ => Ok(cols),
        }
    }

    /// Builds the left-deep logical plan of the view's SPJ core (no
    /// aggregate), used for recomputation and as the test oracle.
    pub fn spj_plan(&self, db: &Database) -> Result<LogicalPlan, EngineError> {
        let offsets = self.offsets(db)?;
        let mut plan = LogicalPlan::Scan {
            table: self.tables[0].clone(),
            filter: self.filters[0].clone(),
        };
        for (idx, name) in self.tables.iter().enumerate().skip(1) {
            // Equi-join conditions between already-joined tables and this
            // one; canonical offsets equal left-deep offsets because we
            // join in canonical order.
            let mut on = Vec::new();
            for p in &self.join_preds {
                let (a, b) = (p.left, p.right);
                let (bound, new) = if b.0 == idx && a.0 < idx {
                    (a, b)
                } else if a.0 == idx && b.0 < idx {
                    (b, a)
                } else {
                    continue;
                };
                on.push((offsets[bound.0] + bound.1, new.1));
            }
            plan = LogicalPlan::Join {
                left: Box::new(plan),
                right: Box::new(LogicalPlan::Scan {
                    table: name.clone(),
                    filter: self.filters[idx].clone(),
                }),
                on,
            };
        }
        if let Some(residual) = &self.residual {
            plan = LogicalPlan::Filter {
                input: Box::new(plan),
                predicate: residual.clone(),
            };
        }
        Ok(plan)
    }

    /// The full logical plan including aggregate/projection, matching
    /// what [`ViewLeaf::result`] materializes.
    pub fn full_plan(&self, db: &Database) -> Result<LogicalPlan, EngineError> {
        let spj = self.spj_plan(db)?;
        let plan = if let Some(agg) = &self.aggregate {
            LogicalPlan::Aggregate {
                input: Box::new(spj),
                group_by: agg.group_by.clone(),
                aggs: agg.aggs.clone(),
            }
        } else if let Some(proj) = &self.projection {
            LogicalPlan::Project {
                input: Box::new(spj),
                exprs: proj.clone(),
            }
        } else {
            spj
        };
        if self.distinct && self.aggregate.is_none() {
            Ok(LogicalPlan::Distinct {
                input: Box::new(plan),
            })
        } else {
            Ok(plan)
        }
    }
}

/// How `MIN`/`MAX` deletions are handled.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MinStrategy {
    /// Ordered multiset per group: exact incremental deletes.
    #[default]
    Multiset,
    /// Track only the current extremum; deleting it forces a view
    /// recomputation (the paper's behaviour).
    Recompute,
}

/// Cumulative maintenance effort counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// Flush invocations.
    pub flushes: u64,
    /// Modifications propagated.
    pub mods_processed: u64,
    /// Executor counters accumulated across flushes.
    pub exec: ExecStats,
    /// Full recomputations triggered (Recompute strategy).
    pub recomputes: u64,
    /// Inert: always zero (see [`HeavyLightStats`]).
    pub heavy: HeavyLightStats,
}

/// Inert: heavy-light key partitioning was removed (every key takes the
/// one compensated index join). The name, [`HeavyLightStats`] and
/// [`MaterializedView::set_heavy_light`] remain only so the frozen
/// `perf/` package keeps compiling (ROADMAP 1(d)).
#[derive(Clone, Copy, Debug)]
pub struct HeavyLightConfig;

impl HeavyLightConfig {
    /// The one (inert) configuration.
    pub fn from_cost_model() -> Self {
        HeavyLightConfig
    }
}

/// Inert heavy-light counters: nothing is ever reclassified.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeavyLightStats;

impl HeavyLightStats {
    /// Always 0.
    pub fn reclassifications(&self) -> u64 {
        0
    }
}

/// Per-aggregate incremental state within one group.
#[derive(Clone, Debug)]
enum AggState {
    /// COUNT: derived from the group's net weight.
    Count,
    /// SUM / AVG share a weighted sum plus the net weight of non-null
    /// contributions (SQL semantics: SUM/AVG over only-NULL inputs is
    /// NULL, and AVG divides by the non-null count).
    Sum { sum: f64, non_null: i64 },
    /// MIN/MAX with an exact ordered multiset of argument values.
    Extremum { multiset: BTreeMap<Value, i64> },
    /// MIN/MAX tracking only the current extremum (Recompute strategy).
    ExtremumLight { current: Option<Value> },
}

/// One group's incremental state.
#[derive(Clone, Debug)]
struct GroupState {
    /// Net weight (number of join rows) in the group.
    weight: i64,
    aggs: Vec<AggState>,
}

/// One join step: the table bound next and the predicate probed —
/// `(bound side, target column)`, `None` for the cross product of a
/// disconnected join graph.
type JoinStep = (usize, Option<((usize, usize), usize)>);

/// The compiled propagation plan of one start table. The delta stream
/// holds the *live* columns of the tables bound so far, in canonical
/// order: a column is live while a finisher of the sharing group reads it
/// or a join predicate still connects it to an unbound table. After the
/// last step that is the view's live set, whichever table started.
#[derive(Clone, Debug)]
struct StartPlan {
    /// Kept so a flush can tell when table growth or a new index changed
    /// the preferred order and the plan needs a recompile.
    order: Vec<JoinStep>,
    /// Live columns of the start table, ascending.
    start_keep: Vec<usize>,
    /// Per step: probe key, the other predicates closing at this step
    /// (composite keys, cycles) and the cells to emit.
    shapes: Vec<JoinShape>,
}

/// A view's finishing step, rebased once onto the live layout.
#[derive(Clone, Debug)]
enum Finisher {
    /// `SELECT *` bag: every column is live, the delta row is the output.
    Whole,
    /// Bag projecting plain columns (no expression interpreter needed).
    Cols(Vec<usize>),
    /// Bag projecting expressions.
    Exprs(Vec<Expr>),
    /// Aggregate view. COUNT and multiset MIN/MAX are exact whatever the
    /// row order and granularity. Float SUM/AVG and Recompute-strategy
    /// extrema are not, so they fold the delta's *canonical form*: one
    /// row of group key ++ argument values per distinct combination,
    /// sorted — a function of the delta multiset alone, hence
    /// bit-identical whichever layout, propagation width, key
    /// partitioning or sharing group produced the rows.
    Agg {
        group_by: Vec<usize>,
        aggs: Vec<(AggFunc, Expr)>,
        /// What the fold needs of the slice it is handed; `Sorted` when
        /// the live layout already is key ++ arguments.
        prep: Prep,
        /// The fold reduces the slice to canonical form itself (the
        /// layout is wider, or arguments are expressions).
        reduce: bool,
    },
}

/// How far a propagated join delta is prepared before views fold it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Prep {
    /// As propagated: a bag merges by key and checks multiplicities
    /// after the whole delta.
    Raw,
    /// (−old, +new) pairs cancelled: aggregate state walks the delta row
    /// by row, and compensation emits rows the state has never seen.
    Consolidated,
    /// Consolidated and sorted.
    Sorted,
}

impl Prep {
    /// Prepares `dj` once for every view that will fold it.
    fn apply(self, mut dj: Vec<WRow>) -> Vec<WRow> {
        if self > Prep::Raw {
            dj = exec::consolidate(dj);
        }
        if self == Prep::Sorted {
            dj.sort_unstable();
        }
        dj
    }
}

/// The maintained result state.
#[derive(Clone, Debug)]
enum ViewState {
    /// SPJ views: a weighted bag of output rows.
    Bag(FxHashMap<Row, i64>),
    /// Aggregate views: per-group incremental state.
    Agg(FxHashMap<Row, GroupState>),
}

/// An immutable picture of the view at a flush boundary, shared by
/// reference.
///
/// The maintained state only changes inside [`MaterializedView::flush`]
/// (and full recomputations), so a snapshot taken at the end of a flush
/// stays valid — equal to the query over each table's processed prefix —
/// until the next flush replaces it. Readers holding the `Arc` never
/// block maintenance and can never observe a torn view.
#[derive(Clone, Debug, Default)]
pub struct ViewSnapshot {
    /// The view contents as consolidated weighted rows (aggregate views:
    /// weight 1 per group row).
    pub rows: Vec<WRow>,
    /// Order-independent content checksum, equal to
    /// [`ViewLeaf::result_checksum`] at publication time.
    pub checksum: u64,
    /// Pending modification counts per base table at publication — the
    /// staleness vector: how many arrivals the snapshot does *not*
    /// reflect, as of the flush boundary that published it.
    pub staleness: Vec<u64>,
    /// Publication sequence number (the view's cumulative flush count),
    /// strictly increasing across snapshots of one view.
    pub seq: u64,
}

impl ViewSnapshot {
    /// Total pending modifications not reflected in this snapshot.
    pub fn lag(&self) -> u64 {
        self.staleness.iter().sum()
    }
}

/// The select-project-join core views share when their tables, join
/// predicates, filters and residual agree: pending delta tables and join
/// plans, held once however many leaves finish it.
#[derive(Clone, Debug)]
pub(crate) struct SpjCore {
    /// The founding view's definition; the core reads only its SPJ part.
    pub(crate) def: ViewDef,
    pub(crate) table_ids: Vec<TableId>,
    /// Per-table column offsets in the canonical joined schema.
    offsets: Vec<usize>,
    /// The live canonical columns, ascending — what a propagated delta
    /// row holds: the union of the leaves' [`ViewDef::live_columns`].
    live: Vec<usize>,
    /// One plan per start table, and the residual, compiled for `live`.
    plans: Vec<StartPlan>,
    residual: Option<Expr>,
    pending: Vec<DeltaTable>,
    /// Propagation width of a flush; 1 = serial.
    flush_threads: usize,
}

/// One view's finisher leaf over an SPJ core: its definition, maintained
/// result state (projection, aggregate, distinct), published snapshot and
/// counters. [`ViewRegistry::view`](crate::ViewRegistry::view) hands
/// these out; a [`MaterializedView`] dereferences to its own.
#[derive(Clone, Debug)]
pub struct ViewLeaf {
    def: ViewDef,
    finisher: Finisher,
    state: ViewState,
    min_strategy: MinStrategy,
    dirty: bool,
    /// Whether every flush republishes the snapshot. On for serving
    /// stacks ([`MaterializedView::register`] and the registry), off for
    /// raw [`MaterializedView::new`] views: republication costs O(|view|)
    /// per flush, which would distort the per-modification cost
    /// measurements the simulation experiments are built on.
    pub(crate) snapshot_publishing: bool,
    /// The snapshot published at the last flush boundary.
    snapshot: Arc<ViewSnapshot>,
    /// Cumulative maintenance counters.
    pub stats: MaintenanceStats,
}

/// A materialized view with per-table delta tables and incremental
/// maintenance: one SPJ core finished by one [`ViewLeaf`].
#[derive(Clone, Debug)]
pub struct MaterializedView {
    pub(crate) core: SpjCore,
    pub(crate) leaf: ViewLeaf,
}

impl std::ops::Deref for MaterializedView {
    type Target = ViewLeaf;

    fn deref(&self) -> &ViewLeaf {
        &self.leaf
    }
}

/// Report of one flush invocation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlushReport {
    /// Modifications processed per the requested counts.
    pub mods_processed: u64,
    /// Executor counters for this flush only.
    pub exec: ExecStats,
    /// Whether a full recomputation was triggered.
    pub recomputed: bool,
}

impl Finisher {
    /// Compiles `def`'s finishing step for the live layout `live`, which
    /// must cover the view's own [`ViewDef::live_columns`].
    fn compile(def: &ViewDef, strategy: MinStrategy, live: &[usize]) -> Finisher {
        let pos = |c: usize| live.binary_search(&c).expect("own columns are live");
        let plain = |e: &Expr| match e {
            Expr::Col(c) => Some(pos(*c)),
            _ => None,
        };
        match (&def.aggregate, &def.projection) {
            (Some(spec), _) => {
                let group_by: Vec<usize> = spec.group_by.iter().map(|&c| pos(c)).collect();
                let ordered = spec.aggs.iter().any(|(func, _, _)| match func {
                    AggFunc::Count => false,
                    AggFunc::Sum | AggFunc::Avg => true,
                    AggFunc::Min | AggFunc::Max => strategy == MinStrategy::Recompute,
                });
                let args = spec.aggs.iter().map(|(_, arg, _)| plain(arg));
                let canonical =
                    (group_by.iter().map(|&c| Some(c)).chain(args)).eq((0..live.len()).map(Some));
                Finisher::Agg {
                    group_by,
                    aggs: (spec.aggs.iter())
                        .map(|(func, arg, _)| (*func, arg.remap_cols(&pos)))
                        .collect(),
                    prep: if ordered && canonical {
                        Prep::Sorted
                    } else {
                        Prep::Consolidated
                    },
                    reduce: ordered && !canonical,
                }
            }
            (None, None) => Finisher::Whole,
            (None, Some(proj)) => match proj.iter().map(|(e, _)| plain(e)).collect() {
                Some(cols) => Finisher::Cols(cols),
                None => Finisher::Exprs(proj.iter().map(|(e, _)| e.remap_cols(&pos)).collect()),
            },
        }
    }
}

impl SpjCore {
    /// The core of `def`, compiled for `def`'s own live columns, with
    /// nothing pending.
    pub(crate) fn new(db: &Database, def: &ViewDef) -> Result<Self, EngineError> {
        let n = def.tables.len();
        if def.filters.len() != n {
            return Err(EngineError::Unsupported {
                message: "one (optional) filter per base table required".into(),
            });
        }
        let table_ids = (def.tables.iter())
            .map(|t| db.table_id(t))
            .collect::<Result<Vec<_>, _>>()?;
        let mut core = SpjCore {
            def: def.clone(),
            table_ids,
            offsets: def.offsets(db)?,
            live: Vec::new(),
            plans: Vec::new(),
            residual: None,
            pending: (0..n).map(|_| DeltaTable::new()).collect(),
            flush_threads: 1,
        };
        core.widen(db, def.live_columns(db)?, &mut []);
        Ok(core)
    }

    /// Number of base tables.
    pub(crate) fn n(&self) -> usize {
        self.def.tables.len()
    }

    /// Widens the live set by `cols` — a joining view's own live columns —
    /// recompiles the residual and one plan per start table for the
    /// union, and rebases `leaves` onto it.
    pub(crate) fn widen(&mut self, db: &Database, cols: Vec<usize>, leaves: &mut [ViewLeaf]) {
        self.live.extend(cols);
        self.live.sort_unstable();
        self.live.dedup();
        let pos = |c: usize| self.live.binary_search(&c).expect("own columns are live");
        self.residual = self.def.residual.as_ref().map(|e| e.remap_cols(&pos));
        self.plans = (0..self.n())
            .map(|start| self.compile_plan(start, self.join_order(db, start)))
            .collect();
        for leaf in leaves {
            leaf.finisher = Finisher::compile(&leaf.def, leaf.min_strategy, &self.live);
        }
    }

    /// A leaf finishing this core for `def` (same SPJ core, live columns
    /// covered by the core's), its state initialised from the processed
    /// prefix and its first snapshot published.
    pub(crate) fn new_leaf(
        &self,
        db: &Database,
        def: ViewDef,
        min_strategy: MinStrategy,
    ) -> Result<ViewLeaf, EngineError> {
        let mut leaf = ViewLeaf {
            finisher: Finisher::compile(&def, min_strategy, &self.live),
            def,
            state: ViewState::Bag(FxHashMap::default()),
            min_strategy,
            dirty: false,
            snapshot_publishing: false,
            snapshot: Arc::default(),
            stats: MaintenanceStats::default(),
        };
        self.recompute(db, &mut leaf)?;
        leaf.publish(self.pending_counts());
        Ok(leaf)
    }

    /// The join order propagation from `start` prefers right now. Among
    /// the predicates connecting a bound table to an unbound one, indexed
    /// targets win, and among those the smallest table: small (often
    /// filtered) dimension tables shrink the stream before it is dragged
    /// through a large table's fanout ("first indexed predicate" would
    /// expand through the fact table first and carry the blow-up on).
    fn join_order(&self, db: &Database, start: usize) -> Vec<JoinStep> {
        let n = self.n();
        let mut bound = vec![false; n];
        bound[start] = true;
        let mut order: Vec<JoinStep> = Vec::with_capacity(n - 1);
        while order.len() + 1 < n {
            let mut best: Option<((bool, usize), JoinStep)> = None; // lower rank is better
            for p in &self.def.join_preds {
                for (src, dst) in [(p.left, p.right), (p.right, p.left)] {
                    if bound[src.0] && !bound[dst.0] {
                        let table = db.table(self.table_ids[dst.0]);
                        let rank = (table.index_on(dst.1).is_none(), table.len());
                        if best.as_ref().is_none_or(|(r, _)| rank < *r) {
                            best = Some((rank, (dst.0, Some((src, dst.1)))));
                        }
                    }
                }
            }
            // Disconnected join graph: cross product with the next
            // unbound table.
            let next_unbound = || (0..n).find(|&j| !bound[j]).expect("unbound table exists");
            let step = best.map_or_else(|| (next_unbound(), None), |(_, step)| step);
            bound[step.0] = true;
            order.push(step);
        }
        order
    }

    /// Compiles one start table's plan: which cells each step keeps,
    /// where its probe key sits, which further predicates it checks.
    fn compile_plan(&self, start: usize, order: Vec<JoinStep>) -> StartPlan {
        let (n, offsets) = (self.n(), &self.offsets);
        let canon = |(t, c): (usize, usize)| offsets[t] + c;
        let table_of = |c: usize| (0..n).rev().find(|&t| offsets[t] <= c).expect("table 0");
        let sides = |p: &JoinPred| [(p.left, p.right), (p.right, p.left)];
        // The live columns of the bound tables, ascending: read by a
        // finisher, or still joining a table not bound yet.
        let layout_of = |bound: &[bool]| -> Vec<usize> {
            let mut cols: Vec<usize> = (self.live.iter().copied())
                .filter(|&c| bound[table_of(c)])
                .collect();
            for (a, b) in self.def.join_preds.iter().flat_map(sides) {
                if bound[a.0] && !bound[b.0] {
                    cols.push(canon(a));
                }
            }
            cols.sort_unstable();
            cols.dedup();
            cols
        };
        let mut bound = vec![false; n];
        bound[start] = true;
        let mut layout = layout_of(&bound);
        let start_keep = layout.iter().map(|c| c - offsets[start]).collect();
        let mut shapes = Vec::with_capacity(order.len());
        for &(target, probe) in &order {
            let pos = |c: usize| layout.binary_search(&c).expect("live until bound");
            // Every predicate between the target and a bound table closes
            // here. The probe covers one; the rest of a composite key or
            // the closing edge of a cycle become per-pair checks.
            let checks = (self.def.join_preds.iter().flat_map(sides))
                .filter(|&(src, dst)| bound[src.0] && dst.0 == target)
                .filter(|&(src, dst)| probe != Some((src, dst.1)))
                .map(|(src, dst)| (pos(canon(src)), dst.1))
                .collect();
            bound[target] = true;
            let next = layout_of(&bound);
            let cell = |&c: &usize| {
                if table_of(c) == target {
                    layout.len() + c - offsets[target]
                } else {
                    pos(c)
                }
            };
            shapes.push(JoinShape {
                key: probe.map_or((0, 0), |(src, col)| (pos(canon(src)), col)),
                checks,
                emit: next.iter().map(cell).collect(),
            });
            layout = next;
        }
        StartPlan {
            order,
            start_keep,
            shapes,
        }
    }

    /// Appends a newly arrived modification of the `i`-th base table to
    /// its delta table.
    pub(crate) fn enqueue(&mut self, i: usize, m: Modification) {
        self.pending[i].push(m);
    }

    /// Pending modification counts — the paper's state vector `s`.
    pub(crate) fn pending_counts(&self) -> Vec<u64> {
        self.pending.iter().map(|d| d.len() as u64).collect()
    }

    /// The pending delta tables in arrival order.
    pub(crate) fn pending_snapshot(&self) -> Vec<Vec<Modification>> {
        self.pending.iter().map(|d| d.to_vec()).collect()
    }

    /// Sets the propagation width (clamped to ≥ 1).
    pub(crate) fn set_flush_threads(&mut self, threads: usize) {
        self.flush_threads = threads.max(1);
    }

    /// Restores the pending delta tables from a checkpoint snapshot and
    /// rebuilds every leaf against `db` (which must already contain every
    /// arrival-time application, including the pending ones — the §2
    /// arrival semantics the checkpoint was taken under).
    pub(crate) fn restore(
        &mut self,
        db: &Database,
        leaves: &mut [ViewLeaf],
        mods: Vec<Vec<Modification>>,
    ) -> Result<(), EngineError> {
        if mods.len() != self.n() {
            return Err(EngineError::Maintenance {
                message: format!("pending snapshot arity {} != {}", mods.len(), self.n()),
            });
        }
        self.pending = mods.into_iter().map(DeltaTable::from).collect();
        for leaf in leaves {
            self.recompute(db, leaf)?;
            leaf.publish(self.pending_counts());
        }
        Ok(())
    }

    /// The flush walk of a lone view and of a registry sharing group alike:
    /// flushes `counts[i]` pending modifications of each base table
    /// (ascending index order) through the core and folds each propagated
    /// join delta into every leaf. Propagation counters are recorded under
    /// `leaves[0]`, `mods_processed` under every leaf. Returns the report,
    /// counted once, and how many start deltas propagated.
    pub(crate) fn flush(
        &mut self,
        db: &Database,
        leaves: &mut [ViewLeaf],
        counts: &[u64],
    ) -> Result<(FlushReport, u64), EngineError> {
        if counts.len() != self.n() {
            return Err(EngineError::Maintenance {
                message: format!("flush counts arity {} != {}", counts.len(), self.n()),
            });
        }
        for (i, (&k, pending)) in counts.iter().zip(&self.pending).enumerate() {
            if k > pending.len() as u64 {
                return Err(EngineError::Maintenance {
                    message: format!(
                        "flush of {k} from table {i} exceeds pending {}",
                        pending.len()
                    ),
                });
            }
        }
        let (mut report, mut propagations) = (FlushReport::default(), 0);
        for (i, &k) in counts.iter().enumerate() {
            if k == 0 {
                continue;
            }
            report.mods_processed += k;
            let order = self.join_order(db, i);
            if order != self.plans[i].order {
                self.plans[i] = self.compile_plan(i, order);
            }
            // The delta table precomputed the weighted entries at
            // arrival (columnar layout): the flush reads one contiguous
            // slice instead of reassembling Modification values.
            let mut delta: Vec<WRow> = self.pending[i].take_weighted_prefix(k as usize);
            if let Some(f) = &self.def.filters[i] {
                delta = exec::filter(delta, f);
            }
            let keep = &self.plans[i].start_keep;
            if delta.first().is_some_and(|(r, _)| keep.len() < r.len()) {
                for (r, _) in &mut delta {
                    *r = r.project(keep);
                }
            }
            // Cancel churn inside the batch before paying join fan-out
            // for it: an update chain a→b→c contributes (−a,+b,−b,+c)
            // and the ±b pair would otherwise be propagated through
            // every join step just to annihilate in the view. On the live
            // columns, so is an update of columns nothing downstream reads.
            // The surviving multiset, seen through the live columns, is
            // identical, so flush results are unchanged.
            let delta = exec::consolidate(delta);
            if delta.is_empty() {
                continue; // filtered out, or churn on dead columns only
            }
            let dj = self.propagate_chunked(db, i, delta, &mut report.exec)?;
            propagations += 1;
            // Prepared once, for the most demanding leaf, then folded by
            // every leaf from the one slice.
            let prep = leaves.iter().map(ViewLeaf::prep).max();
            let dj = prep.expect("a core has leaves").apply(dj);
            for leaf in leaves.iter_mut() {
                leaf.apply_delta(&dj)?;
            }
        }
        for (j, leaf) in leaves.iter_mut().enumerate() {
            if leaf.dirty {
                self.recompute(db, leaf)?;
                leaf.stats.recomputes += 1;
                report.recomputed = true;
            }
            leaf.stats.flushes += 1;
            leaf.stats.mods_processed += report.mods_processed;
            if j == 0 {
                leaf.stats.exec.merge(&report.exec);
            }
            if leaf.snapshot_publishing {
                leaf.publish(self.pending_counts());
            }
        }
        Ok((report, propagations))
    }

    /// Propagates a start-table delta of table `start` through the join
    /// with compensation, returning the join delta on the live layout
    /// with the residual applied, split across the flush threads when it
    /// is large enough to pay for the spawns.
    ///
    /// Chunks are fixed contiguous ranges, each propagated on a scoped
    /// thread, and outputs merge in chunk order. Propagation is read-only
    /// and each delta row's join expansion is independent, so the merged
    /// join delta is the signed multiset the serial path produces, folded
    /// into order-independent state: contents, checksums and (on the
    /// index-probe path, probes being per delta row) the per-chunk
    /// [`ExecStats`] summed into `stats` are bit-identical at any width. A
    /// panicking chunk resurfaces after the scope joins.
    fn propagate_chunked(
        &self,
        db: &Database,
        start: usize,
        delta: Vec<WRow>,
        stats: &mut ExecStats,
    ) -> Result<Vec<WRow>, EngineError> {
        let threads = self.flush_threads;
        if threads == 1 || delta.len() < MIN_PARALLEL_DELTA.max(threads) {
            return self.propagate(db, start, delta, stats);
        }
        let chunk = delta.len().div_ceil(threads);
        let results: Vec<Result<(Vec<WRow>, ExecStats), EngineError>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = delta
                    .chunks(chunk)
                    .map(|part| {
                        scope.spawn(move || {
                            let mut local = ExecStats::default();
                            self.propagate(db, start, part.to_vec(), &mut local)
                                .map(|rows| (rows, local))
                        })
                    })
                    .collect();
                // Joining in spawn order is the ordered merge; a panic
                // in any chunk resurfaces on this thread.
                handles
                    .into_iter()
                    .map(|h| match h.join() {
                        Ok(res) => res,
                        Err(payload) => std::panic::resume_unwind(payload),
                    })
                    .collect()
            });
        let mut out = Vec::new();
        for res in results {
            let (rows, local) = res?;
            stats.merge(&local);
            out.extend(rows);
        }
        Ok(out)
    }

    /// Propagates a start-table delta through the other tables, one
    /// compiled join step at a time.
    fn propagate(
        &self,
        db: &Database,
        start: usize,
        delta: Vec<WRow>,
        stats: &mut ExecStats,
    ) -> Result<Vec<WRow>, EngineError> {
        let plan = &self.plans[start];
        let mut stream = delta;
        for (&(target, probe), shape) in plan.order.iter().zip(&plan.shapes) {
            // Early exit: an empty delta stays empty through joins.
            if stream.is_empty() {
                return Ok(stream);
            }
            let table = db.table(self.table_ids[target]);
            let pending = self.pending[target].weighted();
            let filter = self.def.filters[target].as_ref();
            stream = match probe {
                None => {
                    let rows = exec::compensated_rows(table, &pending, filter, stats);
                    let mut out = Vec::with_capacity(stream.len() * rows.len());
                    for ((d, w), (row, rw)) in
                        stream.iter().flat_map(|d| rows.iter().map(move |r| (d, r)))
                    {
                        shape.emit(&mut out, d, row, w * rw, stats);
                    }
                    out
                }
                // No index on the join column: the per-batch scan
                // shape. Counted, not silent — auto-indexed views
                // (`register`) must never take this path.
                Some((_, col)) if table.index_on(col).is_none() => {
                    stats.scan_fallbacks += 1;
                    exec::join_scan(&stream, shape, table, &pending, filter, stats)
                }
                Some(_) => exec::join_index(&stream, shape, table, &pending, filter, stats),
            };
        }
        if let Some(residual) = &self.residual {
            stream = exec::filter(stream, residual);
        }
        Ok(stream)
    }

    /// Rebuilds a leaf's state from the processed-prefix table states
    /// (`physical − pending`): the whole join, pruned to the live layout,
    /// folded into an empty state.
    fn recompute(&self, db: &Database, leaf: &mut ViewLeaf) -> Result<(), EngineError> {
        let spj = self.def.spj_plan(db)?;
        // Overlay: compensated contents per table. Filters already live
        // in the Scan nodes, so the overlay provides raw rows.
        let overlay = |name: &str| -> Option<Vec<WRow>> {
            let i = self.def.tables.iter().rposition(|t| t == name)?;
            let table = db.table(self.table_ids[i]);
            let mut rows: Vec<WRow> = table.iter().map(|(_, r)| (r.clone(), 1)).collect();
            rows.extend(self.pending[i].weighted().into_iter().map(|(r, w)| (r, -w)));
            Some(rows)
        };
        let mut j = spj.execute_with(db, &overlay)?;
        for (row, _) in &mut j {
            *row = row.project(&self.live);
        }
        leaf.state = match leaf.finisher {
            Finisher::Agg { .. } => ViewState::Agg(FxHashMap::default()),
            _ => ViewState::Bag(FxHashMap::default()),
        };
        leaf.apply_delta(&leaf.prep().max(Prep::Consolidated).apply(j))?;
        leaf.dirty = false;
        Ok(())
    }
}

impl ViewLeaf {
    /// The view definition.
    pub fn def(&self) -> &ViewDef {
        &self.def
    }

    /// Number of base tables.
    pub fn n(&self) -> usize {
        self.def.tables.len()
    }

    /// Position of a base table within the view, by name.
    pub fn table_position(&self, name: &str) -> Option<usize> {
        self.def.tables.iter().position(|t| t == name)
    }

    /// The snapshot published at the last flush boundary (construction,
    /// [`MaterializedView::flush`], or [`MaterializedView::restore_pending`]).
    ///
    /// Cloning the `Arc` is O(1); the shared contents are immutable, so
    /// readers never block maintenance and never see a torn view. The
    /// snapshot's staleness vector is as of its publication — arrivals
    /// enqueued since then are not counted in it.
    pub fn snapshot(&self) -> Arc<ViewSnapshot> {
        Arc::clone(&self.snapshot)
    }

    /// Whether every flush republishes the snapshot.
    pub fn snapshot_publishing(&self) -> bool {
        self.snapshot_publishing
    }

    /// Rebuilds and publishes the flush-boundary snapshot from the
    /// current state; `staleness` is the core's pending counts.
    fn publish(&mut self, staleness: Vec<u64>) {
        let rows = self.result();
        let checksum = exec::rows_checksum(&rows);
        self.snapshot = Arc::new(ViewSnapshot {
            rows,
            checksum,
            staleness,
            seq: self.stats.flushes,
        });
    }

    /// The preparation [`Self::apply_delta`] needs of a join delta.
    fn prep(&self) -> Prep {
        match self.finisher {
            Finisher::Agg { prep, .. } => prep,
            _ => Prep::Raw,
        }
    }

    /// Applies a propagated join delta (on the live layout, prepared to
    /// at least [`Self::prep`]) to the view state; projection /
    /// aggregate / distinct are per-view and happen here, not in
    /// propagation.
    fn apply_delta(&mut self, dj: &[WRow]) -> Result<(), EngineError> {
        let strategy = self.min_strategy;
        match (&mut self.state, &self.finisher) {
            (
                ViewState::Agg(groups),
                Finisher::Agg {
                    group_by,
                    aggs,
                    prep,
                    reduce,
                },
            ) => {
                if !reduce && *prep < Prep::Sorted {
                    let arg = |row: &Row, a: usize| aggs[a].1.eval(row);
                    self.dirty |= fold_groups(groups, aggs, strategy, dj, group_by, arg)?;
                    return Ok(());
                }
                let cells = |row: &Row| {
                    let key = group_by.iter().map(|&c| row.get(c).clone());
                    Row::new(key.chain(aggs.iter().map(|(_, e)| e.eval(row))).collect())
                };
                let reduced = reduce
                    .then(|| Prep::Sorted.apply(dj.iter().map(|(r, w)| (cells(r), *w)).collect()));
                let canonical = reduced.as_deref().unwrap_or(dj);
                debug_assert!(canonical.is_sorted(), "delta prepared below Prep::Sorted");
                let g = group_by.len();
                let key: Vec<usize> = (0..g).collect();
                let arg = |row: &Row, a: usize| row.get(g + a).clone();
                self.dirty |= fold_groups(groups, aggs, strategy, canonical, &key, arg)?;
                Ok(())
            }
            (ViewState::Bag(bag), finisher) => {
                // The delta may be unconsolidated: a (−old, +new) pair
                // whose negative half lands first can dip an entry below
                // zero transiently. Defer the invariant check to after
                // the whole delta — only *final* negative multiplicities
                // are maintenance bugs.
                let mut deferred: Vec<Row> = Vec::new();
                for (row, w) in dj {
                    let out = match finisher {
                        Finisher::Cols(cols) => row.project(cols),
                        Finisher::Exprs(exprs) => {
                            Row::new(exprs.iter().map(|e| e.eval(row)).collect())
                        }
                        _ => row.clone(),
                    };
                    match bag.entry(out) {
                        hash_map::Entry::Occupied(mut e) => {
                            let m = e.get_mut();
                            *m += w;
                            if *m == 0 {
                                e.remove();
                            } else if *m < 0 {
                                deferred.push(e.key().clone());
                            }
                        }
                        hash_map::Entry::Vacant(v) => {
                            if *w != 0 {
                                if *w < 0 {
                                    deferred.push(v.key().clone());
                                }
                                v.insert(*w);
                            }
                        }
                    }
                }
                for key in deferred {
                    match bag.get(&key) {
                        Some(&m) if m < 0 => {
                            return Err(EngineError::Maintenance {
                                message: "bag multiplicity went negative".into(),
                            });
                        }
                        Some(&0) => {
                            bag.remove(&key);
                        }
                        _ => {}
                    }
                }
                Ok(())
            }
            _ => Err(EngineError::Maintenance {
                message: "view state kind disagrees with definition".into(),
            }),
        }
    }

    /// An order-independent checksum of the current view contents.
    ///
    /// Each `(row, weight)` output pair is hashed with the seedless
    /// [`crate::fxhash`] and combined by wrapping addition, so the value
    /// is independent of internal map iteration order and stable across
    /// runs and processes. Crash-recovery tests use it to assert that a
    /// recovered view is bit-for-bit equivalent to an uncrashed one.
    pub fn result_checksum(&self) -> u64 {
        exec::rows_checksum(&self.result())
    }

    /// The current view contents as consolidated weighted rows.
    ///
    /// For aggregate views every row has weight 1; a scalar aggregate
    /// over an empty input yields its SQL default (`COUNT` → 0, others →
    /// `NULL`).
    pub fn result(&self) -> Vec<WRow> {
        match (&self.state, &self.def.aggregate) {
            (ViewState::Bag(bag), _) => bag
                .iter()
                .filter(|&(_, w)| *w != 0)
                .map(|(r, w)| {
                    if self.def.distinct {
                        (r.clone(), 1)
                    } else {
                        (r.clone(), *w)
                    }
                })
                .collect(),
            (ViewState::Agg(groups), Some(spec)) => {
                let mut out: Vec<WRow> = groups
                    .iter()
                    .map(|(key, g)| {
                        let mut cells: Vec<Value> = key.values().to_vec();
                        for (state, (func, _, _)) in g.aggs.iter().zip(&spec.aggs) {
                            cells.push(read_agg(state, *func, g.weight));
                        }
                        (Row::new(cells), 1)
                    })
                    .collect();
                if spec.group_by.is_empty() && out.is_empty() {
                    let cells: Vec<Value> = spec
                        .aggs
                        .iter()
                        .map(|(func, _, _)| match func {
                            AggFunc::Count => Value::Int(0),
                            _ => Value::Null,
                        })
                        .collect();
                    out.push((Row::new(cells), 1));
                }
                out
            }
            (ViewState::Agg(_), None) => unreachable!("state kind checked at construction"),
        }
    }

    /// Convenience for scalar aggregate views: the single aggregate cell.
    pub fn scalar(&self) -> Option<Value> {
        let rows = self.result();
        if rows.len() == 1 && rows[0].0.len() == 1 {
            Some(rows[0].0.get(0).clone())
        } else {
            None
        }
    }
}

impl MaterializedView {
    /// Creates the view and initializes its state from the current
    /// database contents (all delta tables start empty).
    pub fn new(
        db: &Database,
        def: ViewDef,
        min_strategy: MinStrategy,
    ) -> Result<Self, EngineError> {
        let core = SpjCore::new(db, &def)?;
        let leaf = core.new_leaf(db, def, min_strategy)?;
        Ok(MaterializedView { core, leaf })
    }

    /// Registers the view against a mutable database: auto-creates a
    /// hash index on every join column that lacks one (both sides of
    /// every equi-join predicate), then initializes the view as
    /// [`MaterializedView::new`] does.
    ///
    /// The created indexes are ordinary table indexes — the table keeps
    /// them incrementally maintained on every insert/delete/update — so
    /// `propagate` always has the `join_index` probe path available and
    /// never degrades to a per-batch `join_scan` (the asymmetric
    /// per-modification cost shape of §3 depends on it). Registration
    /// also turns on per-flush snapshot publication (see
    /// [`MaterializedView::set_snapshot_publishing`]). This is the
    /// canonical constructor for serving stacks; `new` is for callers
    /// that manage physical design themselves.
    pub fn register(
        db: &mut Database,
        def: ViewDef,
        min_strategy: MinStrategy,
    ) -> Result<Self, EngineError> {
        Self::ensure_join_indexes(db, &def)?;
        let mut view = Self::new(db, def, min_strategy)?;
        view.set_snapshot_publishing(true);
        Ok(view)
    }

    /// Creates a hash index on every join column of `def` that does not
    /// already have one, backfilling existing rows. Idempotent.
    pub fn ensure_join_indexes(db: &mut Database, def: &ViewDef) -> Result<(), EngineError> {
        for p in &def.join_preds {
            for (t, col) in [p.left, p.right] {
                let name = def.tables.get(t).ok_or_else(|| EngineError::Maintenance {
                    message: format!("join predicate references table {t} out of range"),
                })?;
                let id = db.table_id(name)?;
                if db.table(id).index_on(col).is_none() {
                    db.table_mut(id).create_index(IndexKind::Hash, col)?;
                }
            }
        }
        Ok(())
    }

    /// Inert (see [`HeavyLightConfig`]): accepts the call, changes nothing.
    pub fn set_heavy_light(
        &mut self,
        _: &Database,
        _: HeavyLightConfig,
    ) -> Result<(), EngineError> {
        Ok(())
    }

    /// Appends a newly arrived modification of the `i`-th base table to
    /// its delta table. The caller must have already applied it to the
    /// base table (arrival-time semantics of §2).
    pub fn enqueue(&mut self, i: usize, m: Modification) {
        self.core.enqueue(i, m);
    }

    /// The live-ingest path: applies a newly arrived modification of the
    /// `i`-th base table to the database and appends it to the view's
    /// delta table in one step, so callers cannot get the arrival-time
    /// ordering of [`MaterializedView::enqueue`] wrong.
    pub fn apply_and_enqueue(
        &mut self,
        db: &mut Database,
        i: usize,
        m: Modification,
    ) -> Result<(), EngineError> {
        if i >= self.n() {
            return Err(EngineError::Maintenance {
                message: format!("table index {i} out of range for {}-table view", self.n()),
            });
        }
        db.apply(self.core.table_ids[i], &m)?;
        self.core.enqueue(i, m);
        Ok(())
    }

    /// Pending modification counts — the paper's state vector `s`.
    pub fn pending_counts(&self) -> Vec<u64> {
        self.core.pending_counts()
    }

    /// Sets how many threads [`MaterializedView::flush`] may use to
    /// propagate one start-table delta (clamped to ≥ 1). The result is
    /// bit-identical to the serial path at any width; see
    /// [`MaterializedView::flush`].
    pub fn set_flush_threads(&mut self, threads: usize) {
        self.core.set_flush_threads(threads);
    }

    /// The configured propagation width (1 = serial).
    pub fn flush_threads(&self) -> usize {
        self.core.flush_threads
    }

    /// Turns per-flush snapshot republication on or off.
    ///
    /// Publication rebuilds the consolidated row set and its checksum,
    /// an O(|view|) cost per flush (O(1) for a scalar aggregate).
    /// Serving stacks pay it deliberately so Stale reads are wait-free;
    /// raw views default to off so flush cost keeps the paper's
    /// per-modification shape. The construction-time snapshot is always
    /// published; with publication off, [`ViewLeaf::snapshot`] keeps
    /// returning the last published one (its `seq` tells readers how old
    /// it is).
    pub fn set_snapshot_publishing(&mut self, on: bool) {
        self.leaf.snapshot_publishing = on;
        if on {
            // Catch the snapshot up to the current state so a consumer
            // enabling publication mid-life never serves a stale one.
            self.leaf.publish(self.core.pending_counts());
        }
    }

    /// The `i`-th table's pending delta as signed-multiset entries
    /// (diagnostics and test oracles).
    pub fn pending_weighted(&self, i: usize) -> Vec<WRow> {
        self.core.pending[i].weighted()
    }

    /// Clones the pending delta tables in arrival order, for inclusion
    /// in a durability checkpoint alongside a database snapshot.
    pub fn pending_snapshot(&self) -> Vec<Vec<Modification>> {
        self.core.pending_snapshot()
    }

    /// Restores the pending delta tables from a checkpoint snapshot and
    /// rebuilds the maintained state against `db` (which must already
    /// contain every arrival-time application, including the pending
    /// ones — the §2 arrival semantics the checkpoint was taken under).
    pub fn restore_pending(
        &mut self,
        db: &Database,
        mods: Vec<Vec<Modification>>,
    ) -> Result<(), EngineError> {
        self.core
            .restore(db, std::slice::from_mut(&mut self.leaf), mods)
    }

    /// Flushes `counts[i]` pending modifications from each base table
    /// (tables processed in ascending index order), bit-identically at
    /// any [`MaterializedView::set_flush_threads`] width.
    pub fn flush(&mut self, db: &Database, counts: &[u64]) -> Result<FlushReport, EngineError> {
        let leaves = std::slice::from_mut(&mut self.leaf);
        Ok(self.core.flush(db, leaves, counts)?.0)
    }

    /// Flushes everything pending (the refresh action at time `T`).
    pub fn refresh(&mut self, db: &Database) -> Result<FlushReport, EngineError> {
        let counts = self.pending_counts();
        self.flush(db, &counts)
    }
}

/// Folds delta rows into aggregate groups. `key_cols` locates a row's
/// group-key cells and `arg(row, a)` yields its `a`-th aggregate
/// argument. The group is resolved once per run of consecutive rows with
/// equal keys — the whole delta for a scalar aggregate, one run per group
/// for sorted input — instead of one key allocation and map probe per
/// row. Returns whether an extremum was lost (Recompute strategy).
fn fold_groups<'a>(
    groups: &mut FxHashMap<Row, GroupState>,
    aggs: &[(AggFunc, Expr)],
    strategy: MinStrategy,
    rows: &'a [WRow],
    key_cols: &[usize],
    arg: impl Fn(&'a Row, usize) -> Value,
) -> Result<bool, EngineError> {
    let mut dirty = false;
    let mut rest = rows;
    while let Some((first, _)) = rest.first() {
        let same_key = |(r, _): &&WRow| key_cols.iter().all(|&c| r.get(c) == first.get(c));
        let (run, tail) = rest.split_at(rest.iter().take_while(same_key).count());
        rest = tail;
        let mut fold = |group: &mut GroupState| -> Result<(), EngineError> {
            for (row, w) in run {
                group.weight += w;
                for (a, state) in group.aggs.iter_mut().enumerate() {
                    if !matches!(state, AggState::Count) {
                        dirty |= fold_agg(state, aggs[a].0, arg(row, a), *w)?;
                    }
                }
            }
            if group.weight < 0 {
                return Err(EngineError::Maintenance {
                    message: "group weight went negative".into(),
                });
            }
            Ok(())
        };
        match groups.entry(first.project(key_cols)) {
            hash_map::Entry::Occupied(mut e) => {
                fold(e.get_mut())?;
                if e.get().weight == 0 {
                    e.remove();
                }
            }
            hash_map::Entry::Vacant(v) => {
                let mut group = GroupState {
                    weight: 0,
                    aggs: (aggs.iter())
                        .map(|(func, _)| new_agg_state(*func, strategy))
                        .collect(),
                };
                fold(&mut group)?;
                if group.weight != 0 {
                    v.insert(group);
                }
            }
        }
    }
    Ok(dirty)
}

/// Folds one argument value at weight `w` into an aggregate's state;
/// `Ok(true)` when a Recompute-strategy extremum cannot be resolved
/// locally.
fn fold_agg(state: &mut AggState, func: AggFunc, v: Value, w: i64) -> Result<bool, EngineError> {
    match state {
        AggState::Count => {}
        AggState::Sum { sum, non_null } => {
            if let Some(x) = v.as_float() {
                *sum += x * w as f64;
                *non_null += w;
            }
        }
        AggState::Extremum { multiset } if !v.is_null() => {
            let count = match multiset.entry(v) {
                btree_map::Entry::Occupied(mut e) => {
                    *e.get_mut() += w;
                    match *e.get() {
                        0 => e.remove(),
                        count => count,
                    }
                }
                btree_map::Entry::Vacant(e) => *e.insert(w),
            };
            if count < 0 {
                return Err(EngineError::Maintenance {
                    message: "extremum multiset went negative".into(),
                });
            }
        }
        AggState::ExtremumLight { current } if !v.is_null() => {
            if w > 0 {
                let is_min = func == AggFunc::Min;
                if current
                    .as_ref()
                    .is_none_or(|c| if is_min { v < *c } else { v > *c })
                {
                    *current = Some(v);
                }
            } else {
                // Deletion: losing the extremum (or deleting from an
                // untracked state) cannot be resolved locally.
                return Ok(current.as_ref().is_none_or(|c| *c == v));
            }
        }
        AggState::Extremum { .. } | AggState::ExtremumLight { .. } => {}
    }
    Ok(false)
}

fn new_agg_state(func: AggFunc, strategy: MinStrategy) -> AggState {
    match func {
        AggFunc::Count => AggState::Count,
        AggFunc::Sum | AggFunc::Avg => AggState::Sum {
            sum: 0.0,
            non_null: 0,
        },
        AggFunc::Min | AggFunc::Max => match strategy {
            MinStrategy::Multiset => AggState::Extremum {
                multiset: BTreeMap::new(),
            },
            MinStrategy::Recompute => AggState::ExtremumLight { current: None },
        },
    }
}

fn read_agg(state: &AggState, func: AggFunc, weight: i64) -> Value {
    match state {
        AggState::Count => Value::Int(weight),
        AggState::Sum { sum, non_null } => {
            if *non_null == 0 {
                Value::Null
            } else if func == AggFunc::Avg {
                Value::Float(sum / *non_null as f64)
            } else {
                Value::Float(*sum)
            }
        }
        AggState::Extremum { multiset } => {
            let entry = if func == AggFunc::Min {
                multiset.iter().find(|&(_, w)| *w > 0)
            } else {
                multiset.iter().rev().find(|&(_, w)| *w > 0)
            };
            entry.map(|(v, _)| v.clone()).unwrap_or(Value::Null)
        }
        AggState::ExtremumLight { current } => current.clone().unwrap_or(Value::Null),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexKind;
    use crate::row;
    use crate::schema::Schema;
    use crate::value::DataType;

    /// R(k, x) indexed on k; S(k, tag) unindexed — the Fig. 1 setup.
    fn setup_rs() -> (Database, TableId, TableId) {
        let mut db = Database::new();
        let r = db
            .create_table(
                "r",
                Schema::new(vec![("k", DataType::Int), ("x", DataType::Float)]),
            )
            .unwrap();
        let s = db
            .create_table(
                "s",
                Schema::new(vec![("k", DataType::Int), ("tag", DataType::Str)]),
            )
            .unwrap();
        db.table_mut(r).create_index(IndexKind::Hash, 0).unwrap();
        (db, r, s)
    }

    fn join_view_def() -> ViewDef {
        ViewDef {
            name: "rs".into(),
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

    /// Oracle: the view query evaluated over processed-prefix states
    /// (physical − pending), which is what the maintained state must
    /// always equal.
    fn oracle(db: &Database, view: &MaterializedView) -> Vec<WRow> {
        let plan = view.def().full_plan(db).unwrap();
        let pending: Vec<(String, Vec<WRow>)> = view
            .def()
            .tables
            .iter()
            .enumerate()
            .map(|(i, name)| (name.clone(), view.pending_weighted(i)))
            .collect();
        let overlay = |name: &str| -> Option<Vec<WRow>> {
            let (_, pend) = pending.iter().find(|(n, _)| n == name)?;
            let id = db.table_id(name).ok()?;
            let mut rows: Vec<WRow> = db.table(id).iter().map(|(_, r)| (r.clone(), 1)).collect();
            rows.extend(pend.iter().map(|(r, w)| (r.clone(), -w)));
            Some(rows)
        };
        let mut rows = exec::consolidate(plan.execute_with(db, &overlay).unwrap());
        rows.sort();
        rows
    }

    fn assert_consistent(db: &Database, view: &MaterializedView) {
        let mut got = exec::consolidate(view.result());
        got.sort();
        let want = oracle(db, view);
        assert_eq!(got, want, "maintained state diverged from oracle");
    }

    /// Routes a modification: applies to the base table and enqueues.
    fn modify(db: &mut Database, view: &mut MaterializedView, table: &str, m: Modification) {
        let id = db.table_id(table).unwrap();
        db.apply(id, &m).unwrap();
        let pos = view.table_position(table).unwrap();
        view.enqueue(pos, m);
    }

    #[test]
    fn join_view_initializes_from_existing_data() {
        let (mut db, r, s) = setup_rs();
        db.table_mut(r).insert(row![1i64, 10.0f64]).unwrap();
        db.table_mut(s).insert(row![1i64, "a"]).unwrap();
        let view = MaterializedView::new(&db, join_view_def(), MinStrategy::Multiset).unwrap();
        let mut res = view.result();
        res.sort();
        assert_eq!(res, vec![(row![1i64, 10.0f64, 1i64, "a"], 1)]);
    }

    #[test]
    fn state_bug_scenario_is_handled() {
        // Both tables receive pending modifications; flushing them in
        // separate actions must not double-count ΔR ⋈ ΔS.
        let (mut db, _, _) = setup_rs();
        let mut view = MaterializedView::new(&db, join_view_def(), MinStrategy::Multiset).unwrap();
        modify(
            &mut db,
            &mut view,
            "r",
            Modification::Insert(row![1i64, 10.0f64]),
        );
        modify(
            &mut db,
            &mut view,
            "s",
            Modification::Insert(row![1i64, "a"]),
        );
        // Nothing flushed yet: view must still be empty.
        assert_consistent(&db, &view);
        assert!(view.result().is_empty());

        // Flush only ΔR: the new R row must join only the *old* S (empty).
        view.flush(&db, &[1, 0]).unwrap();
        assert_consistent(&db, &view);
        assert!(view.result().is_empty(), "ΔR ⋈ S_old is empty");

        // Flush ΔS: now the pair appears exactly once.
        view.flush(&db, &[0, 1]).unwrap();
        assert_consistent(&db, &view);
        let res = exec::consolidate(view.result());
        assert_eq!(res, vec![(row![1i64, 10.0f64, 1i64, "a"], 1)]);
    }

    #[test]
    fn simultaneous_flush_equals_sequential() {
        let (mut db, _, _) = setup_rs();
        let mut v1 =
            MaterializedView::new(&db.clone(), join_view_def(), MinStrategy::Multiset).unwrap();
        let mut v2 =
            MaterializedView::new(&db.clone(), join_view_def(), MinStrategy::Multiset).unwrap();
        let mods: Vec<(&str, Modification)> = vec![
            ("r", Modification::Insert(row![1i64, 10.0f64])),
            ("s", Modification::Insert(row![1i64, "a"])),
            ("r", Modification::Insert(row![2i64, 20.0f64])),
            ("s", Modification::Insert(row![2i64, "b"])),
            ("s", Modification::Insert(row![1i64, "c"])),
        ];
        for (t, m) in &mods {
            let id = db.table_id(t).unwrap();
            db.apply(id, m).unwrap();
            for v in [&mut v1, &mut v2] {
                let pos = v.table_position(t).unwrap();
                v.enqueue(pos, m.clone());
            }
        }
        // v1 flushes both tables at once; v2 in two asymmetric steps.
        v1.flush(&db, &[2, 3]).unwrap();
        v2.flush(&db, &[2, 0]).unwrap();
        v2.flush(&db, &[0, 3]).unwrap();
        let mut a = exec::consolidate(v1.result());
        let mut b = exec::consolidate(v2.result());
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert_consistent(&db, &v1);
        assert_consistent(&db, &v2);
    }

    #[test]
    fn deletes_and_updates_propagate() {
        let (mut db, _, _) = setup_rs();
        let mut view = MaterializedView::new(&db, join_view_def(), MinStrategy::Multiset).unwrap();
        modify(
            &mut db,
            &mut view,
            "r",
            Modification::Insert(row![1i64, 10.0f64]),
        );
        modify(
            &mut db,
            &mut view,
            "s",
            Modification::Insert(row![1i64, "a"]),
        );
        view.refresh(&db).unwrap();
        assert_eq!(view.result().len(), 1);

        // Update the R row's key so the pair dissolves.
        modify(
            &mut db,
            &mut view,
            "r",
            Modification::Update {
                old: row![1i64, 10.0f64],
                new: row![9i64, 10.0f64],
            },
        );
        view.refresh(&db).unwrap();
        assert_consistent(&db, &view);
        assert!(view.result().is_empty());

        // Delete the S row while R points elsewhere: still empty, and no
        // negative multiplicities.
        modify(
            &mut db,
            &mut view,
            "s",
            Modification::Delete(row![1i64, "a"]),
        );
        view.refresh(&db).unwrap();
        assert_consistent(&db, &view);
    }

    fn min_view_def() -> ViewDef {
        ViewDef {
            name: "minx".into(),
            tables: vec!["r".into(), "s".into()],
            join_preds: vec![JoinPred {
                left: (0, 0),
                right: (1, 0),
            }],
            filters: vec![None, None],
            residual: None,
            projection: None,
            aggregate: Some(AggSpec {
                group_by: vec![],
                aggs: vec![(AggFunc::Min, Expr::col(1), "m".into())],
            }),
            distinct: false,
        }
    }

    #[test]
    fn min_multiset_handles_min_deletion_without_recompute() {
        let (mut db, _, _) = setup_rs();
        let mut view = MaterializedView::new(&db, min_view_def(), MinStrategy::Multiset).unwrap();
        for (k, x) in [(1i64, 5.0f64), (1, 7.0), (1, 9.0)] {
            modify(&mut db, &mut view, "r", Modification::Insert(row![k, x]));
        }
        modify(
            &mut db,
            &mut view,
            "s",
            Modification::Insert(row![1i64, "a"]),
        );
        view.refresh(&db).unwrap();
        assert_eq!(view.scalar(), Some(Value::Float(5.0)));

        // Delete the row holding the minimum.
        modify(
            &mut db,
            &mut view,
            "r",
            Modification::Delete(row![1i64, 5.0f64]),
        );
        view.refresh(&db).unwrap();
        assert_eq!(view.scalar(), Some(Value::Float(7.0)));
        assert_eq!(view.stats.recomputes, 0, "multiset never recomputes");
        assert_consistent(&db, &view);
    }

    #[test]
    fn min_recompute_strategy_matches_multiset() {
        let (mut db, _, _) = setup_rs();
        let mut ms = MaterializedView::new(&db, min_view_def(), MinStrategy::Multiset).unwrap();
        let mut rc = MaterializedView::new(&db, min_view_def(), MinStrategy::Recompute).unwrap();
        let script: Vec<(&str, Modification)> = vec![
            ("r", Modification::Insert(row![1i64, 5.0f64])),
            ("r", Modification::Insert(row![1i64, 3.0f64])),
            ("s", Modification::Insert(row![1i64, "a"])),
            ("r", Modification::Delete(row![1i64, 3.0f64])), // removes min
            (
                "r",
                Modification::Update {
                    old: row![1i64, 5.0f64],
                    new: row![1i64, 2.0f64],
                },
            ),
        ];
        for (t, m) in &script {
            let id = db.table_id(t).unwrap();
            db.apply(id, m).unwrap();
            for v in [&mut ms, &mut rc] {
                let pos = v.table_position(t).unwrap();
                v.enqueue(pos, m.clone());
            }
            ms.refresh(&db).unwrap();
            rc.refresh(&db).unwrap();
            assert_eq!(ms.scalar(), rc.scalar(), "after {m:?}");
        }
        assert_eq!(ms.scalar(), Some(Value::Float(2.0)));
        assert_eq!(ms.stats.recomputes, 0);
        assert!(rc.stats.recomputes >= 1, "min deletion forces recompute");
    }

    #[test]
    fn filters_and_residual_apply() {
        let (mut db, _, _) = setup_rs();
        let mut def = join_view_def();
        // Keep only S rows tagged "keep", and joined rows with x < 100.
        def.filters[1] = Some(Expr::col(1).eq(Expr::lit("keep")));
        def.residual = Some(Expr::Cmp(
            crate::expr::CmpOp::Lt,
            Box::new(Expr::col(1)),
            Box::new(Expr::lit(100.0f64)),
        ));
        let mut view = MaterializedView::new(&db, def, MinStrategy::Multiset).unwrap();
        modify(
            &mut db,
            &mut view,
            "r",
            Modification::Insert(row![1i64, 50.0f64]),
        );
        modify(
            &mut db,
            &mut view,
            "r",
            Modification::Insert(row![2i64, 500.0f64]),
        );
        modify(
            &mut db,
            &mut view,
            "s",
            Modification::Insert(row![1i64, "keep"]),
        );
        modify(
            &mut db,
            &mut view,
            "s",
            Modification::Insert(row![1i64, "drop"]),
        );
        modify(
            &mut db,
            &mut view,
            "s",
            Modification::Insert(row![2i64, "keep"]),
        );
        view.refresh(&db).unwrap();
        assert_consistent(&db, &view);
        let res = exec::consolidate(view.result());
        assert_eq!(res.len(), 1, "only (1, 50.0, 1, keep) qualifies: {res:?}");
    }

    #[test]
    fn projection_view_maintains_projected_bag() {
        let (mut db, _, _) = setup_rs();
        let mut def = join_view_def();
        def.projection = Some(vec![(Expr::col(3), "tag".into())]);
        let mut view = MaterializedView::new(&db, def, MinStrategy::Multiset).unwrap();
        modify(
            &mut db,
            &mut view,
            "r",
            Modification::Insert(row![1i64, 1.0f64]),
        );
        modify(
            &mut db,
            &mut view,
            "r",
            Modification::Insert(row![1i64, 2.0f64]),
        );
        modify(
            &mut db,
            &mut view,
            "s",
            Modification::Insert(row![1i64, "t"]),
        );
        view.refresh(&db).unwrap();
        let res = exec::consolidate(view.result());
        assert_eq!(res, vec![(row!["t"], 2)], "bag semantics with multiplicity");
        assert_consistent(&db, &view);
    }

    #[test]
    fn grouped_aggregates_maintained() {
        let (mut db, _, _) = setup_rs();
        let mut def = join_view_def();
        def.aggregate = Some(AggSpec {
            group_by: vec![0],
            aggs: vec![
                (AggFunc::Count, Expr::col(1), "c".into()),
                (AggFunc::Sum, Expr::col(1), "s".into()),
                (AggFunc::Max, Expr::col(1), "mx".into()),
            ],
        });
        let mut view = MaterializedView::new(&db, def, MinStrategy::Multiset).unwrap();
        for (k, x) in [(1i64, 5.0f64), (1, 7.0), (2, 1.0)] {
            modify(&mut db, &mut view, "r", Modification::Insert(row![k, x]));
        }
        for k in [1i64, 2] {
            modify(&mut db, &mut view, "s", Modification::Insert(row![k, "t"]));
        }
        view.refresh(&db).unwrap();
        assert_consistent(&db, &view);
        // Delete a grouped row and re-check.
        modify(
            &mut db,
            &mut view,
            "r",
            Modification::Delete(row![1i64, 7.0f64]),
        );
        view.refresh(&db).unwrap();
        assert_consistent(&db, &view);
    }

    #[test]
    fn distinct_view_collapses_but_tracks_multiplicity() {
        let (mut db, _, _) = setup_rs();
        let mut def = join_view_def();
        def.projection = Some(vec![(Expr::col(3), "tag".into())]);
        def.distinct = true;
        let mut view = MaterializedView::new(&db, def, MinStrategy::Multiset).unwrap();
        // Two R rows joining one S row → projected tag appears twice in
        // the bag but once in the DISTINCT result.
        modify(
            &mut db,
            &mut view,
            "r",
            Modification::Insert(row![1i64, 1.0f64]),
        );
        modify(
            &mut db,
            &mut view,
            "r",
            Modification::Insert(row![1i64, 2.0f64]),
        );
        modify(
            &mut db,
            &mut view,
            "s",
            Modification::Insert(row![1i64, "t"]),
        );
        view.refresh(&db).unwrap();
        assert_eq!(view.result(), vec![(row!["t"], 1)]);
        assert_consistent(&db, &view);
        // Deleting ONE of the R rows must keep the tag visible (this is
        // why the state tracks multiplicities).
        modify(
            &mut db,
            &mut view,
            "r",
            Modification::Delete(row![1i64, 1.0f64]),
        );
        view.refresh(&db).unwrap();
        assert_eq!(view.result(), vec![(row!["t"], 1)]);
        // Deleting the second one removes it.
        modify(
            &mut db,
            &mut view,
            "r",
            Modification::Delete(row![1i64, 2.0f64]),
        );
        view.refresh(&db).unwrap();
        assert!(view.result().is_empty());
        assert_consistent(&db, &view);
    }

    #[test]
    fn sum_and_avg_over_all_null_arguments_match_oracle() {
        // Integer k / 0 evaluates to NULL: SUM/AVG over only-NULL inputs
        // must be NULL in both the incremental state and the oracle.
        let (mut db, _, _) = setup_rs();
        let mut def = join_view_def();
        let null_arg = Expr::Arith(
            crate::expr::ArithOp::Div,
            Box::new(Expr::col(0)),
            Box::new(Expr::lit(0i64)),
        );
        def.aggregate = Some(AggSpec {
            group_by: vec![],
            aggs: vec![
                (AggFunc::Sum, null_arg.clone(), "s".into()),
                (AggFunc::Avg, null_arg, "a".into()),
            ],
        });
        let mut view = MaterializedView::new(&db, def, MinStrategy::Multiset).unwrap();
        modify(
            &mut db,
            &mut view,
            "r",
            Modification::Insert(row![1i64, 2.0f64]),
        );
        modify(
            &mut db,
            &mut view,
            "s",
            Modification::Insert(row![1i64, "t"]),
        );
        view.refresh(&db).unwrap();
        assert_consistent(&db, &view);
        let cells = view.result();
        assert_eq!(cells.len(), 1);
        assert!(cells[0].0.get(0).is_null(), "SUM of all-NULL is NULL");
        assert!(cells[0].0.get(1).is_null(), "AVG of all-NULL is NULL");
    }

    #[test]
    fn flush_count_validation() {
        let (db, _, _) = setup_rs();
        let mut view = MaterializedView::new(&db, join_view_def(), MinStrategy::Multiset).unwrap();
        assert!(matches!(
            view.flush(&db, &[1, 0]),
            Err(EngineError::Maintenance { .. })
        ));
        assert!(matches!(
            view.flush(&db, &[0]),
            Err(EngineError::Maintenance { .. })
        ));
    }

    #[test]
    fn register_auto_creates_join_indexes_and_avoids_scans() {
        let (mut db, _, _) = setup_rs(); // only R is indexed
        let mut view =
            MaterializedView::register(&mut db, join_view_def(), MinStrategy::Multiset).unwrap();
        let s = db.table_id("s").unwrap();
        assert!(
            db.table(s).index_on(0).is_some(),
            "registration must index s.k"
        );
        for i in 0..10i64 {
            modify(
                &mut db,
                &mut view,
                "r",
                Modification::Insert(row![i, 0.5f64]),
            );
            modify(&mut db, &mut view, "s", Modification::Insert(row![i, "t"]));
        }
        let report = view.refresh(&db).unwrap();
        assert_eq!(report.exec.scan_fallbacks, 0, "no scan path after register");
        assert!(report.exec.index_probes > 0);
        assert_consistent(&db, &view);
    }

    #[test]
    fn unindexed_join_counts_scan_fallbacks() {
        let (mut db, _, _) = setup_rs(); // S has no index
        let mut view = MaterializedView::new(&db, join_view_def(), MinStrategy::Multiset).unwrap();
        modify(
            &mut db,
            &mut view,
            "r",
            Modification::Insert(row![1i64, 1.0f64]),
        );
        let report = view.refresh(&db).unwrap();
        assert_eq!(report.exec.scan_fallbacks, 1, "ΔR ⋈ S falls back to scan");
    }

    #[test]
    fn snapshot_tracks_flush_boundaries() {
        let (mut db, _, _) = setup_rs();
        let mut view =
            MaterializedView::register(&mut db, join_view_def(), MinStrategy::Multiset).unwrap();
        let s0 = view.snapshot();
        assert_eq!(s0.seq, 0);
        assert!(s0.rows.is_empty());
        assert_eq!(s0.checksum, view.result_checksum());

        modify(
            &mut db,
            &mut view,
            "r",
            Modification::Insert(row![1i64, 10.0f64]),
        );
        modify(
            &mut db,
            &mut view,
            "s",
            Modification::Insert(row![1i64, "a"]),
        );
        // Enqueues do not republish: the old snapshot is still the last
        // flush boundary, unaware of the new arrivals.
        assert_eq!(view.snapshot().seq, 0);
        assert_eq!(view.snapshot().lag(), 0);

        view.refresh(&db).unwrap();
        let s1 = view.snapshot();
        assert_eq!(s1.seq, 1);
        assert_eq!(s1.staleness, vec![0, 0]);
        assert_eq!(s1.checksum, view.result_checksum());
        assert_eq!(s1.rows, view.result());
        // The pre-flush snapshot is untouched (immutable share).
        assert!(s0.rows.is_empty());
    }

    #[test]
    fn raw_views_do_not_republish_until_enabled() {
        let (mut db, _, _) = setup_rs();
        let mut view = MaterializedView::new(&db, join_view_def(), MinStrategy::Multiset).unwrap();
        assert!(!view.snapshot_publishing());
        modify(
            &mut db,
            &mut view,
            "r",
            Modification::Insert(row![1i64, 10.0f64]),
        );
        modify(
            &mut db,
            &mut view,
            "s",
            Modification::Insert(row![1i64, "a"]),
        );
        view.refresh(&db).unwrap();
        // Flush cost stays O(delta work): no O(|view|) republication.
        let s = view.snapshot();
        assert_eq!(s.seq, 0, "raw views keep the construction snapshot");
        assert!(s.rows.is_empty());
        // Enabling publication catches the snapshot up immediately.
        view.set_snapshot_publishing(true);
        let s = view.snapshot();
        assert_eq!(s.seq, 1);
        assert_eq!(s.checksum, view.result_checksum());
        assert_eq!(s.rows, view.result());
    }

    #[test]
    fn parallel_flush_is_bit_identical_to_serial() {
        // Enough rows to clear MIN_PARALLEL_DELTA, with skewed keys so
        // chunks see different fanouts.
        for threads in [1usize, 2, 4, 8] {
            let (mut db, _, _) = setup_rs();
            let mut view =
                MaterializedView::register(&mut db, join_view_def(), MinStrategy::Multiset)
                    .unwrap();
            let mut serial =
                MaterializedView::register(&mut db, join_view_def(), MinStrategy::Multiset)
                    .unwrap();
            view.set_flush_threads(threads);
            assert_eq!(view.flush_threads(), threads);
            for i in 0..200i64 {
                let m = Modification::Insert(row![i % 7, i as f64]);
                let id = db.table_id("r").unwrap();
                db.apply(id, &m).unwrap();
                view.enqueue(0, m.clone());
                serial.enqueue(0, m);
            }
            for i in 0..40i64 {
                let m = Modification::Insert(row![i % 7, "t"]);
                let id = db.table_id("s").unwrap();
                db.apply(id, &m).unwrap();
                view.enqueue(1, m.clone());
                serial.enqueue(1, m);
            }
            let rp = view.refresh(&db).unwrap();
            let rs = serial.refresh(&db).unwrap();
            assert_eq!(rp, rs, "FlushReport diverged at {threads} threads");
            assert_eq!(
                view.result_checksum(),
                serial.result_checksum(),
                "checksum diverged at {threads} threads"
            );
            assert_consistent(&db, &view);
        }
    }

    #[test]
    fn hot_key_churn_on_a_dead_column_emits_no_join_rows() {
        let (mut db, _, _) = setup_rs();
        let mut view =
            MaterializedView::register(&mut db, min_view_def(), MinStrategy::Multiset).unwrap();
        // Base data: key 0 fans out into 40 R rows, cold keys into 2.
        for k in 0..5i64 {
            let copies = if k == 0 { 40 } else { 2 };
            for j in 0..copies {
                let m = Modification::Insert(row![k, (k * 100 + j) as f64]);
                modify(&mut db, &mut view, "r", m);
            }
            modify(&mut db, &mut view, "s", Modification::Insert(row![k, "t0"]));
        }
        view.refresh(&db).unwrap();

        // Hot-key churn: the S row at key 0 cycles its tag, which the
        // MIN view never reads. On the live columns every update is a
        // ±pair of equal rows, so it cancels before any join fan-out.
        let emitted_before = view.stats.exec.rows_emitted;
        let mut tag = String::from("t0");
        for round in 0..20 {
            for step in 0..8 {
                let next = format!("t{}", round * 8 + step + 1);
                let m = Modification::Update {
                    old: row![0i64, tag.as_str()],
                    new: row![0i64, next.as_str()],
                };
                modify(&mut db, &mut view, "s", m);
                tag = next;
            }
            view.flush(&db, &[0, 8]).unwrap();
            assert_consistent(&db, &view);
        }
        assert_eq!(view.stats.exec.scan_fallbacks, 0);
        assert_eq!(
            view.stats.exec.rows_emitted, emitted_before,
            "churn on a dead column must emit no join rows"
        );
        // A new R row at the hot key joins the *current* S row once.
        modify(
            &mut db,
            &mut view,
            "r",
            Modification::Insert(row![0i64, -1.0f64]),
        );
        let report = view.refresh(&db).unwrap();
        assert_eq!(report.exec.rows_emitted, 1);
        assert_eq!(view.scalar(), Some(Value::Float(-1.0)));
        assert_consistent(&db, &view);
    }

    #[test]
    fn set_heavy_light_is_inert_on_a_zipf_skewed_stream() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let (mut db, r, s) = setup_rs();
        // One S row and two R rows per key before the views exist, so the
        // cost-model thresholds see 40 distinct keys on both sides.
        for k in 0..40i64 {
            db.table_mut(s).insert(row![k, "0"]).unwrap();
            for j in 0..2 {
                db.table_mut(r).insert(row![k, (k * 2 + j) as f64]).unwrap();
            }
        }
        let mut plain =
            MaterializedView::register(&mut db, join_view_def(), MinStrategy::Multiset).unwrap();
        let mut shim =
            MaterializedView::register(&mut db, join_view_def(), MinStrategy::Multiset).unwrap();
        shim.set_heavy_light(&db, HeavyLightConfig::from_cost_model())
            .unwrap();
        // Zipf(1.2) over 40 join keys: key 0 draws ~30% of the traffic.
        let cdf: Vec<f64> = (1..=40)
            .scan(0.0, |acc, k| {
                *acc += (k as f64).powf(-1.2);
                Some(*acc)
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(7);
        let mut zipf = || {
            let u = rng.gen_range(0.0..cdf[39]);
            cdf.partition_point(|&c| c <= u) as i64
        };
        let mut tags: Vec<i64> = vec![0; 40];
        for step in 0..2000i64 {
            let k = zipf();
            let (table, pos, m) = if step % 3 == 0 {
                let (old, new) = (tags[k as usize], step);
                tags[k as usize] = new;
                let (old, new) = (old.to_string(), new.to_string());
                let (old, new) = (row![k, old.as_str()], row![k, new.as_str()]);
                ("s", 1, Modification::Update { old, new })
            } else {
                ("r", 0, Modification::Insert(row![k, step as f64]))
            };
            db.apply(db.table_id(table).unwrap(), &m).unwrap();
            plain.enqueue(pos, m.clone());
            shim.enqueue(pos, m);
            if step % 64 == 63 {
                let counts = [plain.pending_counts()[0], plain.pending_counts()[1] / 2];
                let (rp, rs) = (plain.flush(&db, &counts), shim.flush(&db, &counts));
                assert_eq!(rp.unwrap(), rs.unwrap(), "FlushReport diverged at {step}");
                assert_eq!(plain.result_checksum(), shim.result_checksum());
            }
        }
        assert_consistent(&db, &shim);
        let (p, s) = (plain.stats.exec, shim.stats.exec);
        assert_eq!(
            (p.rows_emitted, p.index_probes, p.cells_emitted),
            (s.rows_emitted, s.index_probes, s.cells_emitted)
        );
        assert_eq!((s.heavy_hits, s.light_hits), (0, 0));
        assert_eq!(shim.stats.heavy.reclassifications(), 0);
    }

    #[test]
    fn partial_prefix_flushes_preserve_consistency() {
        let (mut db, _, _) = setup_rs();
        let mut view = MaterializedView::new(&db, join_view_def(), MinStrategy::Multiset).unwrap();
        for i in 0..6i64 {
            modify(
                &mut db,
                &mut view,
                "r",
                Modification::Insert(row![i % 3, i as f64]),
            );
            modify(
                &mut db,
                &mut view,
                "s",
                Modification::Insert(row![i % 3, "t"]),
            );
        }
        // Flush R in prefixes of 2 while S stays pending, checking the
        // oracle at every step (non-greedy partial actions are legal for
        // general plans even though LGM plans never use them).
        for _ in 0..3 {
            view.flush(&db, &[2, 0]).unwrap();
            assert_consistent(&db, &view);
        }
        view.flush(&db, &[0, 6]).unwrap();
        assert_consistent(&db, &view);
        let pending = view.pending_counts();
        assert_eq!(pending, vec![0, 0]);
    }

    /// A(k1, k2, x) ⋈ B(k1, k2, y) on the composite key, every join
    /// column indexed.
    fn composite_setup() -> (Database, ViewDef) {
        let mut db = Database::new();
        for (name, payload) in [("a", "x"), ("b", "y")] {
            db.create_table(
                name,
                Schema::new(vec![
                    ("k1", DataType::Int),
                    ("k2", DataType::Int),
                    (payload, DataType::Int),
                ]),
            )
            .unwrap();
        }
        let def = ViewDef {
            name: "ab".into(),
            tables: vec!["a".into(), "b".into()],
            join_preds: vec![
                JoinPred {
                    left: (0, 0),
                    right: (1, 0),
                },
                JoinPred {
                    left: (0, 1),
                    right: (1, 1),
                },
            ],
            filters: vec![None, None],
            residual: None,
            projection: None,
            aggregate: None,
            distinct: false,
        };
        (db, def)
    }

    #[test]
    fn composite_key_join_checks_every_predicate() {
        // Regression: propagation used one predicate per join step, so
        // a(1,1,·) ⋈ b(1,2,·) — equal on k1, different on k2 — was
        // maintained as a match that direct evaluation rejects.
        let (mut db, def) = composite_setup();
        let a = db.table_id("a").unwrap();
        db.table_mut(a).insert(row![1i64, 1i64, 10i64]).unwrap();
        let mut view = MaterializedView::register(&mut db, def, MinStrategy::Multiset).unwrap();
        modify(
            &mut db,
            &mut view,
            "b",
            Modification::Insert(row![1i64, 2i64, 20i64]),
        );
        view.refresh(&db).unwrap();
        assert!(view.result().is_empty(), "k2 differs: no match");
        assert_consistent(&db, &view);
        // Both paths honour the second predicate: the probe (B delta
        // against A) above, the pending compensation (A delta against a
        // B whose delta is still pending) and a real match below.
        modify(
            &mut db,
            &mut view,
            "b",
            Modification::Insert(row![1i64, 1i64, 21i64]),
        );
        modify(
            &mut db,
            &mut view,
            "a",
            Modification::Insert(row![1i64, 2i64, 11i64]),
        );
        view.flush(&db, &[1, 0]).unwrap();
        assert_consistent(&db, &view);
        view.refresh(&db).unwrap();
        assert_consistent(&db, &view);
        assert_eq!(view.result().len(), 2, "(1,1) and (1,2) pair up once each");
    }

    #[test]
    fn composite_key_join_checks_index_probes_and_scans() {
        for indexed in [true, false] {
            let (mut db, def) = composite_setup();
            let mut view = if indexed {
                MaterializedView::register(&mut db, def, MinStrategy::Multiset).unwrap()
            } else {
                MaterializedView::new(&db, def, MinStrategy::Multiset).unwrap()
            };
            // k1 = 7 is hot on both sides; k2 varies, so most k1 matches
            // fail the second predicate.
            for round in 0..6i64 {
                for j in 0..8i64 {
                    let (t, k2) = if j % 2 == 0 {
                        ("a", j % 3)
                    } else {
                        ("b", j % 4)
                    };
                    let m = Modification::Insert(row![7i64, k2, round * 8 + j]);
                    modify(&mut db, &mut view, t, m);
                }
                view.flush(&db, &[2, 1]).unwrap();
                assert_consistent(&db, &view);
            }
            view.refresh(&db).unwrap();
            assert_consistent(&db, &view);
            assert_eq!(
                view.stats.exec.index_probes > 0,
                indexed,
                "probes need the index"
            );
            assert_eq!(view.stats.exec.scan_fallbacks > 0, !indexed);
        }
    }

    #[test]
    fn cyclic_join_closes_the_triangle() {
        // R(a,b) ⋈ S(b,c) ⋈ T(c,a): whichever table starts, the last
        // step binds a table connected to *both* bound ones — one
        // predicate probes, the other must be checked.
        let mut db = Database::new();
        for (name, c0, c1) in [("r", "a", "b"), ("s", "b", "c"), ("t", "c", "a")] {
            db.create_table(
                name,
                Schema::new(vec![(c0, DataType::Int), (c1, DataType::Int)]),
            )
            .unwrap();
        }
        let pred = |l, r| JoinPred { left: l, right: r };
        let def = ViewDef {
            name: "triangles".into(),
            tables: vec!["r".into(), "s".into(), "t".into()],
            join_preds: vec![
                pred((0, 1), (1, 0)),
                pred((1, 1), (2, 0)),
                pred((2, 1), (0, 0)),
            ],
            filters: vec![None, None, None],
            residual: None,
            projection: None,
            aggregate: Some(AggSpec {
                group_by: vec![0],
                aggs: vec![(AggFunc::Count, Expr::col(0), "n".into())],
            }),
            distinct: false,
        };
        let mut view = MaterializedView::register(&mut db, def, MinStrategy::Multiset).unwrap();
        for i in 0..30i64 {
            let (t, m) = match i % 3 {
                0 => ("r", row![i % 2, i % 4]),
                1 => ("s", row![i % 4, i % 5]),
                _ => ("t", row![i % 5, i % 2]),
            };
            modify(&mut db, &mut view, t, Modification::Insert(m));
            if i % 4 == 3 {
                view.flush(&db, &[1, 1, 1]).unwrap();
                assert_consistent(&db, &view);
            }
        }
        view.refresh(&db).unwrap();
        assert_consistent(&db, &view);
        assert!(
            !view.result().is_empty(),
            "the stream closes some triangles"
        );
    }

    #[test]
    fn plans_follow_table_growth() {
        // Compiled against empty tables the order is arbitrary; once S
        // dwarfs T, a flush must re-plan and bind the small T first.
        let mut db = Database::new();
        for name in ["r", "s", "t"] {
            db.create_table(
                name,
                Schema::new(vec![("k", DataType::Int), ("v", DataType::Int)]),
            )
            .unwrap();
        }
        let pred = |l, r| JoinPred { left: l, right: r };
        let def = ViewDef {
            name: "star".into(),
            tables: vec!["r".into(), "s".into(), "t".into()],
            join_preds: vec![pred((0, 0), (1, 0)), pred((0, 1), (2, 0))],
            filters: vec![None, None, None],
            residual: None,
            projection: Some(vec![(Expr::col(3), "sv".into())]),
            aggregate: None,
            distinct: false,
        };
        let mut view = MaterializedView::register(&mut db, def, MinStrategy::Multiset).unwrap();
        for i in 0..50i64 {
            modify(&mut db, &mut view, "s", Modification::Insert(row![1i64, i]));
        }
        modify(
            &mut db,
            &mut view,
            "t",
            Modification::Insert(row![9i64, 0i64]),
        );
        view.refresh(&db).unwrap();
        // R row matching 50 S rows but no T row: T-first emits nothing.
        modify(
            &mut db,
            &mut view,
            "r",
            Modification::Insert(row![1i64, 2i64]),
        );
        let report = view.refresh(&db).unwrap();
        assert_eq!(report.exec.rows_emitted, 0, "T (1 row) binds before S (50)");
        assert_consistent(&db, &view);
    }
}
