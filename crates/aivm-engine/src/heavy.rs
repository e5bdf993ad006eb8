//! Heavy-light key partitioning for skew-resilient join maintenance.
//!
//! The paper's asymmetry is per-*table*: each base table gets its own
//! cost function `f_i(k)` and batch budget. Under zipfian update skew
//! the per-table shape is not enough — a single hot join key drags every
//! flush through its full fan-out, so per-update cost grows with the hot
//! key's match count even though the index-probe path is otherwise
//! per-modification. Following the heavy-light split of
//! Abo-Khamis/Kara/Olteanu (and the F-IVM line), this module is the
//! per-*key* analogue of that asymmetry: each indexed join column tracks
//! per-key frequencies in a space-bounded [`SpaceSaving`] sketch and
//! classifies keys **heavy** or **light** against a threshold derived
//! from the table's `f_i(k)` cost-model statistics.
//!
//! Per part, `propagate` uses a different strategy:
//!
//! * **Light** keys go through the existing smallest-indexed-target
//!   delta join (`exec::join_index`) with pending-delta compensation.
//! * **Heavy** keys keep a dedicated materialized partial per key: the
//!   consolidated, locally filtered *processed-prefix* rows
//!   (`physical − pending`) of the target table at that key. Because
//!   the partial already excludes the pending delta, heavy expansion
//!   needs **no compensation pass**. Partials hold full target rows; an
//!   expansion emits through the join step's compiled
//!   [`JoinShape`](crate::exec::JoinShape) like the light path does, so
//!   both parts share one pruned layout and one set of composite-key
//!   checks. (The ±churn of a hot key's update chain cancels before the
//!   fan-out for *every* key: propagation projects each start delta onto
//!   its live columns and consolidates — see `ivm`.)
//!
//! Reclassification is dynamic and happens only at flush boundaries: a
//! key whose observed frequency drifts across the threshold is promoted
//! (its partial materialized from the processed-prefix state) or demoted
//! (partial dropped) inside `flush`, so results are bit-identical to the
//! unpartitioned engine at every step — classification affects only
//! *where* work happens, never *what* the view contains. The sketch
//! decays geometrically so drifting streams demote yesterday's hot keys.
//!
//! **Registry interaction:** the state belongs to a view's SPJ core, so
//! a [`crate::registry`] sharing group has one set of sketches and
//! partials, reclassified at the start of the same flush walk a lone
//! view runs — which is what keeps a heavy-light view served as a
//! registry of one classifying exactly as it does standalone.

use crate::costmodel::{self, CostConstants};
use crate::db::{Database, TableId};
use crate::delta::{DeltaTable, Modification};
use crate::error::EngineError;
use crate::exec::WRow;
use crate::expr::Expr;
use crate::fxhash::FxHashMap;
use crate::ivm::ViewDef;
use crate::schema::Row;
use crate::value::Value;

/// Configuration for heavy-light partitioned maintenance.
///
/// The promotion threshold is a *traffic share*: a key is heavy when its
/// sketch-estimated fraction of observed join-key traffic reaches the
/// tracker's threshold. [`HeavyLightConfig::from_cost_model`] derives
/// per-tracker thresholds from the same catalog statistics the `f_i(k)`
/// estimator uses; [`HeavyLightConfig::with_share`] pins one share for
/// every tracker (tests and experiments).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HeavyLightConfig {
    /// Sketch capacity per tracked join column (distinct keys tracked).
    pub sketch_capacity: usize,
    /// Fixed promotion share for every tracker; `None` derives one per
    /// tracker from the cost model at enable time.
    pub promote_share: Option<f64>,
    /// A heavy key is demoted when its optimistic sketch count falls
    /// below `demote_ratio` times the current promotion floor
    /// (hysteresis against threshold oscillation).
    pub demote_ratio: f64,
    /// Minimum observed join-key values before any classification.
    pub min_observations: u64,
    /// Halve all sketch counts every this many observations, so shares
    /// track the recent stream and drifting hot keys demote.
    pub decay_every: u64,
    /// How many times above a uniform key's share a key must sit before
    /// materialization pays (used by the cost-model derivation).
    pub promote_boost: f64,
    /// Batch-size hint `k` for the cost-model breakeven (the serve
    /// scheduler's typical flush batch).
    pub batch_hint: u64,
}

impl Default for HeavyLightConfig {
    fn default() -> Self {
        HeavyLightConfig {
            sketch_capacity: 128,
            promote_share: None,
            demote_ratio: 0.25,
            min_observations: 256,
            decay_every: 16384,
            promote_boost: 3.0,
            batch_hint: 64,
        }
    }
}

impl HeavyLightConfig {
    /// A configuration with one fixed promotion share for every tracker.
    pub fn with_share(share: f64) -> Self {
        HeavyLightConfig {
            promote_share: Some(share),
            ..Default::default()
        }
    }

    /// The default cost-model-driven configuration (per-tracker
    /// thresholds derived at enable time).
    pub fn from_cost_model() -> Self {
        Self::default()
    }

    /// Derives the promotion share for one tracked join column from the
    /// table's `f_i(k)` cost-model statistics.
    ///
    /// The light path charges every delta row of a key
    /// `index_probe + fanout·emit_row`; the heavy path charges
    /// `state_update` per folded row plus a one-off
    /// `fanout·state_update` materialization at promotion. With batch
    /// hint `k`, a key of share `p` breaks even when
    /// `p·k·(probe + fanout·emit − update) ≥ fanout·update` — a share
    /// proportional to `fanout / k`, i.e. hotter fan-outs promote at
    /// lower shares once batches amortize the materialization. That
    /// analytic floor is tiny for realistic `k`, so the binding term is
    /// the *skew guard*: a key must also carry `promote_boost` times a
    /// uniform key's share (`1/distinct`) before it counts as skew at
    /// all, which keeps uniform streams fully light.
    fn derive_share(&self, fanout: f64, distinct: usize) -> f64 {
        let c = CostConstants::default();
        let fanout = fanout.max(1.0);
        let saved = (c.index_probe + fanout * c.emit_row - c.state_update).max(1e-6);
        let analytic = (fanout * c.state_update) / (self.batch_hint.max(1) as f64 * saved);
        let guard = self.promote_boost / distinct.max(1) as f64;
        analytic.max(guard).clamp(0.002, 0.5)
    }
}

/// A SpaceSaving top-k frequency sketch over join-key values.
///
/// Classic Metwally et al. semantics: at most `capacity` keys are
/// tracked; an unseen key evicts the minimum-count entry and inherits
/// its count, recording that inherited amount as the entry's error
/// bound. `count` overestimates the true frequency by at most `err`, so
/// `count − err` is a *guaranteed* lower bound — promotion classifies
/// on that bound, which keeps uniform streams with more distinct keys
/// than sketch slots fully light (their inherited counts are all error).
/// Eviction ties break on the key value, and the map uses the seedless
/// [`crate::fxhash`], so the sketch is fully deterministic for a given
/// observation sequence — a WAL replay reproduces the exact
/// classification history.
#[derive(Clone, Debug)]
pub struct SpaceSaving {
    capacity: usize,
    /// Per tracked key: `(count, err)` with `err` the count inherited
    /// at insertion (0 for keys tracked since a free slot).
    counts: FxHashMap<Value, (u64, u64)>,
    total: u64,
}

impl SpaceSaving {
    /// An empty sketch tracking at most `capacity` keys.
    pub fn new(capacity: usize) -> Self {
        SpaceSaving {
            capacity: capacity.max(1),
            counts: FxHashMap::default(),
            total: 0,
        }
    }

    /// Records one observation of `key`.
    pub fn observe(&mut self, key: &Value) {
        self.total += 1;
        if let Some((c, _)) = self.counts.get_mut(key) {
            *c += 1;
            return;
        }
        if self.counts.len() < self.capacity {
            self.counts.insert(key.clone(), (1, 0));
            return;
        }
        // Evict the minimum-count entry (ties broken on the key value so
        // eviction is deterministic) and inherit its count as the new
        // entry's error bound.
        let victim = self
            .counts
            .iter()
            .min_by(|a, b| a.1 .0.cmp(&b.1 .0).then_with(|| a.0.cmp(b.0)))
            .map(|(k, &(c, _))| (k.clone(), c))
            .expect("sketch at capacity is non-empty");
        self.counts.remove(&victim.0);
        self.counts.insert(key.clone(), (victim.1 + 1, victim.1));
    }

    /// Halves every count and error (and the total), dropping zeroed
    /// entries.
    fn decay(&mut self) {
        self.total /= 2;
        self.counts.retain(|_, e| {
            e.0 /= 2;
            e.1 /= 2;
            e.0 > 0
        });
    }

    /// Total observations (after decay).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The estimated share of traffic attributed to `key` (0 when the
    /// key fell out of the sketch). An overestimate — used on the
    /// demotion side, where optimism widens the hysteresis band.
    pub fn share(&self, key: &Value) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.count(key) as f64 / self.total as f64
    }

    /// The estimated count of `key` (0 when the key fell out of the
    /// sketch). An overestimate by up to the entry's error bound — the
    /// demotion side's optimistic mirror of the guaranteed counts
    /// [`SpaceSaving::entries_desc`] promotes on.
    pub fn count(&self, key: &Value) -> u64 {
        self.counts.get(key).map_or(0, |&(c, _)| c)
    }

    /// Tracked `(key, guaranteed count)` entries — `count − err`, the
    /// provable frequency floor — sorted by descending guaranteed count
    /// (ties on the key), the deterministic promotion-candidate order.
    pub fn entries_desc(&self) -> Vec<(Value, u64)> {
        let mut v: Vec<(Value, u64)> = self
            .counts
            .iter()
            .map(|(k, &(c, e))| (k.clone(), c - e))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }
}

/// One tracked indexed join column: `(target table, column)` plus the
/// source-side `(table, column)` pairs whose deltas probe it.
#[derive(Clone, Debug)]
pub(crate) struct HeavyTracker {
    /// Target table position within the view.
    pub target: usize,
    /// Join column on the target.
    pub col: usize,
    /// `(table, column)` pairs (view positions) whose values feed this
    /// join key — the observation taps.
    pub sources: Vec<(usize, usize)>,
    /// Promotion share threshold for this column.
    pub threshold: f64,
    sketch: SpaceSaving,
    /// Per heavy key: the consolidated processed-prefix rows of the
    /// target at that key (`physical − pending`, locally filtered).
    partials: FxHashMap<Value, FxHashMap<Row, i64>>,
}

impl HeavyTracker {
    /// Whether any key is currently classified heavy.
    pub fn has_heavy(&self) -> bool {
        !self.partials.is_empty()
    }

    /// Whether `key` is currently heavy.
    pub fn is_heavy(&self, key: &Value) -> bool {
        self.partials.contains_key(key)
    }

    /// The materialized partial for a heavy key.
    pub fn partial(&self, key: &Value) -> Option<&FxHashMap<Row, i64>> {
        self.partials.get(key)
    }
}

/// Per-view heavy-light counters (monotone except the gauge).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeavyLightStats {
    /// Currently heavy keys across all trackers (gauge).
    pub heavy_keys: u64,
    /// Cumulative light→heavy promotions.
    pub promotions: u64,
    /// Cumulative heavy→light demotions.
    pub demotions: u64,
}

impl HeavyLightStats {
    /// Total reclassification events.
    pub fn reclassifications(&self) -> u64 {
        self.promotions + self.demotions
    }
}

/// One tracker's diagnostic row.
#[derive(Clone, Debug, PartialEq)]
pub struct HeavyTrackerSnapshot {
    /// Target table name.
    pub table: String,
    /// Join column on the target.
    pub col: usize,
    /// Promotion share threshold in force.
    pub threshold: f64,
    /// Currently heavy keys on this column.
    pub heavy_keys: u64,
}

/// The complete heavy-light state of one materialized view.
#[derive(Clone, Debug)]
pub(crate) struct HeavyLightState {
    pub config: HeavyLightConfig,
    pub trackers: Vec<HeavyTracker>,
    pub stats: HeavyLightStats,
}

impl HeavyLightState {
    /// Builds the trackers for a view definition.
    pub fn build(
        db: &Database,
        def: &ViewDef,
        config: HeavyLightConfig,
    ) -> Result<Self, EngineError> {
        // One tracker per distinct (target, col) join side; the opposite
        // sides of its predicates are the observation sources.
        let mut trackers: Vec<HeavyTracker> = Vec::new();
        for p in &def.join_preds {
            for (dst, src) in [(p.right, p.left), (p.left, p.right)] {
                match trackers
                    .iter_mut()
                    .find(|t| t.target == dst.0 && t.col == dst.1)
                {
                    Some(t) => {
                        if !t.sources.contains(&src) {
                            t.sources.push(src);
                        }
                    }
                    None => {
                        let threshold = match config.promote_share {
                            Some(s) => s.clamp(0.0, 1.0),
                            None => {
                                let table = db.table_by_name(&def.tables[dst.0])?;
                                let fanout = costmodel::fanout(db, &def.tables[dst.0], dst.1)?;
                                let distinct = match table.index_on(dst.1) {
                                    Some(idx) => idx.distinct_keys(),
                                    None => table.len(),
                                };
                                config.derive_share(fanout, distinct)
                            }
                        };
                        trackers.push(HeavyTracker {
                            target: dst.0,
                            col: dst.1,
                            sources: vec![src],
                            threshold,
                            sketch: SpaceSaving::new(config.sketch_capacity),
                            partials: FxHashMap::default(),
                        });
                    }
                }
            }
        }
        Ok(HeavyLightState {
            config,
            trackers,
            stats: HeavyLightStats::default(),
        })
    }

    /// The tracker covering `(target, col)`, if any.
    pub fn tracker(&self, target: usize, col: usize) -> Option<&HeavyTracker> {
        self.trackers
            .iter()
            .find(|t| t.target == target && t.col == col)
    }

    /// Records the join-key values one arriving modification of table
    /// `i` contributes (both halves of an update). Called on every
    /// enqueue, which covers live ingest and WAL-recovery replay alike.
    pub fn observe(&mut self, i: usize, m: &Modification) {
        for t in &mut self.trackers {
            for &(src, col) in &t.sources {
                if src != i {
                    continue;
                }
                match m {
                    Modification::Insert(r) | Modification::Delete(r) => {
                        t.sketch.observe(r.get(col));
                    }
                    Modification::Update { old, new } => {
                        t.sketch.observe(old.get(col));
                        t.sketch.observe(new.get(col));
                    }
                }
                if self.config.decay_every > 0 && t.sketch.total() % self.config.decay_every == 0 {
                    t.sketch.decay();
                }
            }
        }
    }

    /// Reclassifies every tracker against its threshold: promotes keys
    /// whose share crossed it (materializing their partials from the
    /// processed-prefix state `physical − pending`) and demotes keys
    /// that fell below the hysteresis band. Runs at flush start only, so
    /// classification history is a deterministic function of the
    /// modification stream and flush schedule.
    pub fn reclassify(
        &mut self,
        db: &Database,
        table_ids: &[TableId],
        pending: &[DeltaTable],
        filters: &[Option<Expr>],
    ) {
        for t in &mut self.trackers {
            if t.sketch.total() < self.config.min_observations {
                continue;
            }
            let total = t.sketch.total() as f64;
            let warm_floor = self.config.batch_hint as f64 / 2.0;
            let deep_floor = self.config.batch_hint as f64 / 4.0;
            let entries = t.sketch.entries_desc();
            // Skew evidence: the hottest key's *guaranteed* count clears
            // the full share threshold (and the warm floor in absolute
            // hits — right after `min_observations` warm-up the share
            // term alone is a single-digit count, inside Poisson noise
            // even for the maximum over the tracked keys). A uniform
            // stream never produces such a key: with more keys than
            // sketch slots every guaranteed count is eviction churn,
            // with fewer the top share is 1/distinct, under the
            // threshold's `promote_boost/distinct` guard.
            let skew_proven = entries
                .first()
                .is_some_and(|(_, c)| *c as f64 >= (t.threshold * total).max(warm_floor));
            // Until skew is proven, only keys clearing the share
            // threshold themselves promote. Once proven, promotion
            // deepens to every key with repeat hits in the decay
            // window: under a proven-skewed stream such keys are worth
            // materializing even though their own share sits below a
            // uniform key's — the zipf tail is where flush-tail
            // latency hides.
            let floor = if skew_proven {
                deep_floor
            } else {
                (t.threshold * total).max(warm_floor)
            };
            // Demote first (a demoted key's slot frees before promotions
            // are considered), in deterministic sorted-key order. The
            // demotion bound mirrors the promotion floor on the same
            // quantity — counts — but reads the *optimistic* estimate
            // scaled by `demote_ratio`, so a key must provably idle
            // before its partial drops.
            let demote_below = floor * self.config.demote_ratio;
            let mut demote: Vec<Value> = t
                .partials
                .keys()
                .filter(|k| (t.sketch.count(k) as f64) < demote_below)
                .cloned()
                .collect();
            demote.sort();
            for k in demote {
                t.partials.remove(&k);
                self.stats.demotions += 1;
            }
            // Promote in descending guaranteed-count order.
            let table = db.table(table_ids[t.target]);
            let Some(idx) = table.index_on(t.col) else {
                continue; // promotion needs the probe index
            };
            let filter = filters[t.target].as_ref();
            for (key, count) in entries {
                if (count as f64) < floor {
                    break;
                }
                if t.partials.contains_key(&key) {
                    continue;
                }
                let mut partial: FxHashMap<Row, i64> = FxHashMap::default();
                for &rid in idx.lookup(&key) {
                    let row = table.get(rid).expect("index points at live rows");
                    if filter.is_none_or(|f| f.eval_bool(row)) {
                        *partial.entry(row.clone()).or_insert(0) += 1;
                    }
                }
                for (row, w) in pending[t.target].weighted() {
                    if row.get(t.col) == &key && filter.is_none_or(|f| f.eval_bool(&row)) {
                        *partial.entry(row).or_insert(0) -= w;
                    }
                }
                partial.retain(|_, w| *w != 0);
                t.partials.insert(key, partial);
                self.stats.promotions += 1;
            }
        }
        self.stats.heavy_keys = self.trackers.iter().map(|t| t.partials.len() as u64).sum();
    }

    /// Folds a just-flushed, locally filtered prefix of table `i` (full
    /// rows, consolidated or in arrival order) into the partials of
    /// every tracker targeting `i`, keeping each partial equal to the
    /// target's processed-prefix rows at its key.
    pub fn fold_flushed(&mut self, i: usize, delta: &[WRow]) {
        for t in &mut self.trackers {
            if t.target != i || t.partials.is_empty() {
                continue;
            }
            for (row, w) in delta {
                if let Some(p) = t.partials.get_mut(row.get(t.col)) {
                    let e = p.entry(row.clone()).or_insert(0);
                    *e += w;
                    if *e == 0 {
                        p.remove(row);
                    }
                }
            }
        }
    }

    /// Drops all sketches and partials (config and thresholds survive).
    /// Used when pending state is replaced wholesale (checkpoint
    /// restore): partials track `physical − pending` and would be stale.
    pub fn reset(&mut self) {
        for t in &mut self.trackers {
            t.sketch = SpaceSaving::new(self.config.sketch_capacity);
            t.partials.clear();
        }
        self.stats.heavy_keys = 0;
    }

    /// Diagnostic snapshot rows, one per tracker.
    pub fn tracker_snapshots(&self, def: &ViewDef) -> Vec<HeavyTrackerSnapshot> {
        self.trackers
            .iter()
            .map(|t| HeavyTrackerSnapshot {
                table: def.tables[t.target].clone(),
                col: t.col,
                threshold: t.threshold,
                heavy_keys: t.partials.len() as u64,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spacesaving_tracks_hot_keys_deterministically() {
        let mut a = SpaceSaving::new(4);
        let mut b = SpaceSaving::new(4);
        for s in [&mut a, &mut b] {
            for i in 0..1000u64 {
                // Key 0 gets half the traffic; a long tail churns the rest.
                let k = if i % 2 == 0 { 0 } else { 1 + (i % 97) };
                s.observe(&Value::Int(k as i64));
            }
        }
        assert_eq!(
            a.entries_desc(),
            b.entries_desc(),
            "sketch is deterministic"
        );
        assert!(
            a.share(&Value::Int(0)) > 0.4,
            "hot key share survives churn"
        );
        assert!(a.entries_desc().len() <= 4);
        assert_eq!(a.total(), 1000);
    }

    #[test]
    fn spacesaving_decay_halves() {
        let mut s = SpaceSaving::new(8);
        for _ in 0..100 {
            s.observe(&Value::Int(7));
        }
        s.decay();
        assert_eq!(s.total(), 50);
        assert!((s.share(&Value::Int(7)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn derived_share_scales_with_fanout_and_distinct() {
        let cfg = HeavyLightConfig::default();
        // Few distinct keys: the skew guard binds (3× uniform).
        let few = cfg.derive_share(10.0, 10);
        assert!((few - 0.3).abs() < 1e-9, "{few}");
        // Many distinct keys: guard shrinks toward the analytic floor.
        let many = cfg.derive_share(10.0, 10_000);
        assert!(many < few);
        assert!(many >= 0.002, "clamped at the floor: {many}");
    }
}
