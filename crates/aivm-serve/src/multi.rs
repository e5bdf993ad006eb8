//! Delta publication for push subscriptions, and the multi-view face
//! ([`RegistryRuntime`], [`MultiConfig`]) of the one runtime.
//!
//! Every flush boundary of a [`MaintenanceRuntime`] with an engine
//! publishes, per view it advanced, a seq-tagged [`DeltaBatch`] to the
//! runtime's [`SubscriptionHub`], which network workers read when
//! pushing `ViewDelta` frames. One view or many, the hub is the same: a
//! single-view server serves `Subscribe` exactly as a registry server
//! does.

use crate::metrics::MultiMetricsSnapshot;
use crate::policy::FlushPolicy;
use crate::runtime::{MaintenanceRuntime, ServeConfig};
use aivm_engine::exec::consolidate;
use aivm_engine::{EngineError, ViewRegistry, ViewSnapshot, WRow};
use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Capacity of each view's delta ring in the [`SubscriptionHub`]. A
/// subscriber more than this many flushes behind is resynced from the
/// snapshot instead of replayed delta-by-delta.
pub const DELTA_RING_CAP: usize = 64;

/// One seq-tagged delta batch published at a flush boundary.
#[derive(Clone, Debug)]
pub struct DeltaBatch {
    /// The registry view this batch belongs to.
    pub view: u32,
    /// The snapshot seq this batch *produces*: folding it into the
    /// state at `seq - 1` yields the state at `seq`.
    pub seq: u64,
    /// Signed row difference (consolidated; weight > 0 added, < 0
    /// removed). Empty when the flush left the view unchanged.
    pub rows: Vec<WRow>,
    /// Content checksum of the post-fold state (the snapshot's
    /// checksum) — subscribers verify their folded state against it.
    pub checksum: u64,
    /// Total pending modifications not yet reflected at publication
    /// (the view's staleness at this flush boundary).
    pub staleness: u64,
}

/// What [`SubscriptionHub::fetch`] found for a subscriber's position.
pub enum FetchOutcome {
    /// The subscriber is at the head: nothing new to push.
    AtHead,
    /// In-ring delta batches starting exactly at the requested seq.
    Deltas(Vec<Arc<DeltaBatch>>),
    /// The requested seq fell off the ring (or is from a different
    /// incarnation): the subscriber must restart from this snapshot.
    Resync(Arc<ViewSnapshot>),
}

struct ViewChannel {
    /// Seq of `batches[0]`; `batches[i].seq == base_seq + i`.
    base_seq: u64,
    batches: VecDeque<Arc<DeltaBatch>>,
    /// The latest published snapshot (resync source).
    snapshot: Arc<ViewSnapshot>,
    /// Delta batches published over this view's lifetime.
    deltas_pushed: u64,
}

/// The handoff point between the scheduler (publisher) and network
/// workers (subscribers): per-view bounded delta rings plus the latest
/// snapshot. All methods are short critical sections — the flush path
/// never blocks on a slow subscriber, and a subscriber that outruns the
/// ring is degraded to a snapshot resync by construction.
///
/// Because view snapshot `seq`s increment by exactly one per flush, a
/// subscriber holding `seq = s` resumes with no gap and no duplicate by
/// asking for `s + 1`; when the ring has already evicted that seq (a
/// slow or long-disconnected subscriber), [`SubscriptionHub::fetch`]
/// resyncs it from the snapshot instead of stalling the flush path or
/// queueing without bound.
pub struct SubscriptionHub {
    channels: Vec<Mutex<ViewChannel>>,
    subscribers: Vec<AtomicU64>,
    sub_lag_max: Vec<AtomicU64>,
}

impl SubscriptionHub {
    /// A hub at the registry's current snapshots, with no delta
    /// history: at construction, and after a checkpoint restore (whose
    /// seqs chain to nothing a subscriber could hold).
    pub(crate) fn of(registry: &ViewRegistry) -> Arc<Self> {
        let n = registry.view_count();
        Arc::new(SubscriptionHub {
            channels: (0..n)
                .map(|v| {
                    let snapshot = registry.snapshot(v);
                    Mutex::new(ViewChannel {
                        base_seq: snapshot.seq + 1,
                        batches: VecDeque::new(),
                        snapshot,
                        deltas_pushed: 0,
                    })
                })
                .collect(),
            subscribers: (0..n).map(|_| AtomicU64::new(0)).collect(),
            sub_lag_max: (0..n).map(|_| AtomicU64::new(0)).collect(),
        })
    }

    fn lock(&self, view: usize) -> std::sync::MutexGuard<'_, ViewChannel> {
        self.channels[view]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// Publishes `view`'s flush boundary (scheduler thread only) as one
    /// [`DeltaBatch`]: the signed row difference between the previously
    /// published snapshot and `snapshot`. O(|old| + |new|), computed
    /// outside the lock, and paid only for views a flush advanced.
    pub(crate) fn publish(&self, view: usize, snapshot: Arc<ViewSnapshot>) {
        let prev = self.snapshot(view);
        if Arc::ptr_eq(&prev, &snapshot) {
            return;
        }
        let mut rows: Vec<WRow> = Vec::with_capacity(snapshot.rows.len() + prev.rows.len());
        rows.extend(snapshot.rows.iter().cloned());
        rows.extend(prev.rows.iter().map(|(r, w)| (r.clone(), -w)));
        let batch = DeltaBatch {
            view: view as u32,
            seq: snapshot.seq,
            rows: consolidate(rows),
            checksum: snapshot.checksum,
            staleness: snapshot.lag(),
        };
        let mut ch = self.lock(view);
        let head = ch.base_seq + ch.batches.len() as u64;
        if batch.seq != head {
            // A seq discontinuity: the ring's history no longer chains
            // to this batch. Drop it — every subscriber resyncs.
            ch.batches.clear();
            ch.base_seq = batch.seq;
        }
        ch.batches.push_back(Arc::new(batch));
        while ch.batches.len() > DELTA_RING_CAP {
            ch.batches.pop_front();
            ch.base_seq += 1;
        }
        ch.snapshot = snapshot;
        ch.deltas_pushed += 1;
    }

    /// The latest published snapshot of a view (O(1) `Arc` clone).
    pub fn snapshot(&self, view: usize) -> Arc<ViewSnapshot> {
        Arc::clone(&self.lock(view).snapshot)
    }

    /// The seq of the latest published batch (the head a subscriber
    /// lags behind); equals the latest snapshot's seq.
    pub fn head_seq(&self, view: usize) -> u64 {
        self.lock(view).snapshot.seq
    }

    /// Collects everything a subscriber at `from_seq` should receive
    /// next (at most `max` batches per call, bounding one push's frame
    /// burst). `from_seq` is the *next* seq the subscriber expects.
    pub fn fetch(&self, view: usize, from_seq: u64, max: usize) -> FetchOutcome {
        let ch = self.lock(view);
        let head = ch.base_seq + ch.batches.len() as u64;
        if from_seq == head {
            return FetchOutcome::AtHead;
        }
        if from_seq < ch.base_seq || from_seq > head {
            // Fell off the ring (slow subscriber) or from a different
            // incarnation (seq ahead of everything we published).
            return FetchOutcome::Resync(Arc::clone(&ch.snapshot));
        }
        let start = (from_seq - ch.base_seq) as usize;
        let end = ch.batches.len().min(start + max.max(1));
        FetchOutcome::Deltas(ch.batches.range(start..end).cloned().collect())
    }

    /// Registers a connected subscriber (network layer bookkeeping).
    pub fn subscriber_opened(&self, view: usize) {
        self.subscribers[view].fetch_add(1, Ordering::Relaxed);
    }

    /// Unregisters a disconnected subscriber.
    pub fn subscriber_closed(&self, view: usize) {
        let prev = self.subscribers[view].fetch_sub(1, Ordering::Relaxed);
        debug_assert!(prev > 0, "subscriber count underflow for view {view}");
    }

    /// Live subscriber count for a view.
    pub fn subscriber_count(&self, view: usize) -> u64 {
        self.subscribers[view].load(Ordering::Relaxed)
    }

    /// Records an observed subscriber lag (seqs behind head); the
    /// per-view maximum is surfaced in metrics.
    pub fn note_lag(&self, view: usize, lag: u64) {
        self.sub_lag_max[view].fetch_max(lag, Ordering::Relaxed);
    }

    /// The largest subscriber lag observed for a view.
    pub fn sub_lag_max(&self, view: usize) -> u64 {
        self.sub_lag_max[view].load(Ordering::Relaxed)
    }

    /// Delta batches published for a view over its lifetime.
    pub fn deltas_pushed(&self, view: usize) -> u64 {
        self.lock(view).deltas_pushed
    }
}

/// Folds a delta batch into a subscriber's local state (consolidated
/// weighted rows). The inverse of the publisher's snapshot diff:
/// `fold(state@seq-1, batch@seq) = state@seq`. Subscribers verify the
/// result against [`DeltaBatch::checksum`] with
/// [`aivm_engine::rows_checksum`].
pub fn fold_delta(state: Vec<WRow>, batch: &DeltaBatch) -> Vec<WRow> {
    if batch.rows.is_empty() {
        return state;
    }
    let mut rows = state;
    rows.extend(batch.rows.iter().cloned());
    consolidate(rows)
}

/// The configuration of a runtime over a registry: the one
/// [`ServeConfig`], whose `costs` run over the distinct base tables of
/// the registered views.
pub type MultiConfig = ServeConfig;

/// The multi-view face of the one [`MaintenanceRuntime`] — a name, not
/// a mechanism: a newtype that only delegates. A registry runtime
/// always has an engine, so [`RegistryRuntime::registry`] and
/// [`RegistryRuntime::hub`] need no `Option`, and
/// [`RegistryRuntime::metrics`] is the per-view snapshot; everything
/// else is the runtime's own method, through `Deref`.
pub struct RegistryRuntime(MaintenanceRuntime);

impl RegistryRuntime {
    /// [`MaintenanceRuntime::new`].
    pub fn new(
        cfg: MultiConfig,
        policy: Box<dyn FlushPolicy>,
        registry: ViewRegistry,
    ) -> Result<Self, EngineError> {
        MaintenanceRuntime::new(cfg, policy, registry).map(RegistryRuntime)
    }

    /// [`MaintenanceRuntime::registry`].
    pub fn registry(&self) -> &ViewRegistry {
        self.0.registry().expect("a registry runtime has an engine")
    }

    /// [`MaintenanceRuntime::hub`].
    pub fn hub(&self) -> Arc<SubscriptionHub> {
        Arc::clone(self.0.hub().expect("a registry runtime has an engine"))
    }

    /// [`MaintenanceRuntime::metrics_by_view`].
    pub fn metrics(&self) -> MultiMetricsSnapshot {
        self.0.metrics_by_view()
    }
}

impl Deref for RegistryRuntime {
    type Target = MaintenanceRuntime;
    fn deref(&self) -> &MaintenanceRuntime {
        &self.0
    }
}

impl DerefMut for RegistryRuntime {
    fn deref_mut(&mut self) -> &mut MaintenanceRuntime {
        &mut self.0
    }
}

impl From<MaintenanceRuntime> for RegistryRuntime {
    fn from(rt: MaintenanceRuntime) -> Self {
        RegistryRuntime(rt)
    }
}

impl From<RegistryRuntime> for MaintenanceRuntime {
    fn from(rt: RegistryRuntime) -> Self {
        rt.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::policy::{FlushPolicy, OnlineFlush};
    use crate::queue::TrySendError;
    use crate::runtime::tests::{
        base, feed, filtered_def, join_def, registry_config, registry_of, registry_over, sum_def,
    };
    use crate::runtime::ReadMode;
    use crate::server::{RegistryServer, ServerConfig};
    use crate::trace::TraceStep;
    use crate::wal::{Checkpoint, MemWal, WalRecord, WalWriter};
    use aivm_core::{CostModel, Counts};
    use aivm_engine::{row, rows_checksum, Database, MinStrategy, Modification, ViewDef};
    use aivm_solver::PolicyContext;
    use std::time::{Duration, Instant};

    fn config(budget: f64) -> MultiConfig {
        registry_config(budget)
    }

    #[test]
    fn shared_scheduling_keeps_every_view_valid() {
        let mut rt =
            RegistryRuntime::new(config(40.0), Box::new(OnlineFlush::new()), registry_of(4))
                .unwrap();
        assert_eq!(rt.n(), 2, "one group ⇒ one cell per table");
        for i in 0..120i64 {
            feed(&mut rt, i);
            if i % 3 == 0 {
                let rep = rt.tick().unwrap();
                assert!(!rep.violated);
            }
        }
        // Drain whatever the policy deferred; the forced refresh
        // propagates once for the whole group.
        rt.read_view(0, ReadMode::Fresh).unwrap();
        let m = rt.metrics();
        assert_eq!(m.global.constraint_violations, 0);
        assert_eq!(m.groups, 1);
        assert!(m.shared_propagations > 0, "sharing must have kicked in");
        for v in &m.views {
            assert_eq!(v.violations, 0, "view {} violated", v.view);
            assert_eq!(v.pending, 0);
        }
    }

    #[test]
    fn fresh_read_refreshes_one_group_and_fits_budget() {
        let mut reg = registry_of(2);
        // A second group with a different core (filtered).
        reg.register_view(filtered_def("other"), MinStrategy::Multiset)
            .unwrap();
        let mut rt = RegistryRuntime::new(config(40.0), Box::new(OnlineFlush::new()), reg).unwrap();
        assert_eq!(rt.n(), 4);
        for i in 0..30i64 {
            feed(&mut rt, i);
        }
        let r = rt.read_view(0, ReadMode::Fresh).unwrap();
        assert!(!r.violated);
        assert_eq!(r.lag, 0);
        assert!(r.flush_cost <= 40.0 + 1e-9);
        // Views 0 and 1 share a group: both fresh. View 2 keeps its
        // backlog (the tick may have flushed some of it, but the fresh
        // read's forced flush only drained group 0).
        assert_eq!(rt.registry().pending_counts(0), vec![0, 0]);
        assert_eq!(rt.registry().pending_counts(1), vec![0, 0]);
        let stale = rt.read_view(2, ReadMode::Stale).unwrap();
        assert!(stale.rows.is_some());
        let m = rt.metrics();
        assert_eq!(m.global.fresh_reads, 1);
        assert_eq!(m.global.stale_reads, 1);
    }

    #[test]
    fn delta_batches_chain_seqs_and_checksums() {
        let mut rt =
            RegistryRuntime::new(config(40.0), Box::new(OnlineFlush::new()), registry_of(3))
                .unwrap();
        let hub = rt.hub();
        // State as a subscriber would hold it: start from the initial
        // snapshot, fold every published batch.
        let snap0 = hub.snapshot(1);
        let mut state = snap0.rows.clone();
        let mut next_seq = snap0.seq + 1;
        for i in 0..200i64 {
            feed(&mut rt, i);
            if i % 4 == 0 {
                rt.tick().unwrap();
            }
            loop {
                match hub.fetch(1, next_seq, 8) {
                    FetchOutcome::AtHead => break,
                    FetchOutcome::Deltas(batches) => {
                        for b in batches {
                            assert_eq!(b.seq, next_seq, "gap or duplicate");
                            state = fold_delta(state, &b);
                            assert_eq!(
                                rows_checksum(&state),
                                b.checksum,
                                "fold diverged at seq {next_seq}"
                            );
                            next_seq += 1;
                        }
                    }
                    FetchOutcome::Resync(_) => {
                        panic!("an up-to-date subscriber must never be resynced")
                    }
                }
            }
        }
        rt.read_view(1, ReadMode::Fresh).unwrap();
        // Drain the final flushes, then the folded state must equal a
        // direct read of the view.
        loop {
            match hub.fetch(1, next_seq, 64) {
                FetchOutcome::AtHead => break,
                FetchOutcome::Deltas(batches) => {
                    for b in batches {
                        state = fold_delta(state, &b);
                        next_seq += 1;
                    }
                }
                FetchOutcome::Resync(_) => panic!("no resync expected"),
            }
        }
        assert_eq!(rows_checksum(&state), rt.registry().result_checksum(1));
        assert!(hub.deltas_pushed(1) > 0);
    }

    #[test]
    fn slow_subscriber_is_resynced_not_queued_unboundedly() {
        let mut rt =
            RegistryRuntime::new(config(40.0), Box::new(OnlineFlush::new()), registry_of(2))
                .unwrap();
        let hub = rt.hub();
        let stale_pos = hub.snapshot(0).seq + 1;
        // Push far more flush boundaries than the ring holds.
        for i in 0..((DELTA_RING_CAP as i64 + 20) * 3) {
            feed(&mut rt, i);
            rt.read_view(0, ReadMode::Fresh).unwrap();
        }
        assert!(hub.head_seq(0) > DELTA_RING_CAP as u64 + stale_pos);
        match hub.fetch(0, stale_pos, 8) {
            FetchOutcome::Resync(snap) => {
                assert_eq!(rows_checksum(&snap.rows), snap.checksum);
                // Resuming from the resync snapshot works delta-by-delta.
                match hub.fetch(0, snap.seq + 1, 8) {
                    FetchOutcome::AtHead | FetchOutcome::Deltas(_) => {}
                    FetchOutcome::Resync(_) => panic!("fresh resync point fell off"),
                }
            }
            _ => panic!("an evicted seq must force a resync"),
        }
    }

    /// Everything a recovered runtime must reproduce exactly.
    fn observed(rt: &RegistryRuntime) -> (Vec<u64>, Counts, Vec<u64>, f64, Vec<TraceStep>) {
        let views = 0..rt.views();
        (
            views
                .clone()
                .map(|v| rt.registry().result_checksum(v))
                .collect(),
            rt.pending().clone(),
            views.map(|v| rt.hub().head_seq(v)).collect(),
            rt.budget(),
            rt.trace().unwrap().steps.clone(),
        )
    }

    /// Recovers a registry runtime over `defs` from a WAL image, with or
    /// without a checkpoint.
    fn recover(defs: &[ViewDef], wal: &[u8], ck: Option<&Checkpoint>) -> RegistryRuntime {
        let make = |db: Database| Ok(registry_over(db, defs));
        MaintenanceRuntime::recover_registry(
            config(40.0),
            Box::new(OnlineFlush::new()),
            wal,
            ck,
            base(),
            &make,
        )
        .unwrap()
        .into()
    }

    #[test]
    fn wal_replay_reproduces_every_view() {
        let defs = [join_def("v0"), sum_def("v1"), sum_def("v2"), sum_def("v3")];
        let mem = MemWal::new();
        let mut rt = RegistryRuntime::new(
            config(40.0),
            Box::new(OnlineFlush::new()),
            registry_over(base(), &defs),
        )
        .unwrap();
        rt.attach_wal(WalWriter::create(Box::new(mem.clone()), 4).unwrap());
        for i in 0..90i64 {
            feed(&mut rt, i);
            if i % 3 == 0 {
                rt.tick().unwrap();
            }
            if i % 25 == 24 {
                rt.read_view((i % 4) as usize, ReadMode::Fresh).unwrap();
            }
            if i == 40 {
                rt.set_budget(25.0).unwrap();
            }
        }
        let expect = observed(&rt);
        drop(rt);
        let recovered = recover(&defs, &mem.bytes(), None);
        assert_eq!(
            observed(&recovered),
            expect,
            "snapshot seqs must replay exactly"
        );
        assert_eq!(recovered.budget(), 25.0);
        assert_eq!(recovered.metrics().global.recoveries, 1);
    }

    #[test]
    fn checkpointed_recovery_reproduces_every_view() {
        // Two views sharing a group (one core, restored once), and
        // two views in groups of their own (a checkpoint cell per group
        // × table).
        for defs in [
            [join_def("a"), sum_def("b")],
            [join_def("a"), filtered_def("b")],
        ] {
            let mem = MemWal::new();
            let mut rt = RegistryRuntime::new(
                config(40.0),
                Box::new(OnlineFlush::new()),
                registry_over(base(), &defs),
            )
            .unwrap();
            rt.attach_wal(WalWriter::create(Box::new(mem.clone()), 4).unwrap());
            let mut checkpoint = None;
            for i in 0..90i64 {
                feed(&mut rt, i);
                if i % 3 == 0 {
                    rt.tick().unwrap();
                }
                if i % 25 == 24 {
                    rt.read_view((i % 2) as usize, ReadMode::Fresh).unwrap();
                }
                if i == 40 {
                    rt.set_budget(25.0).unwrap();
                }
                if i == 55 {
                    // Mid-run: pending deltas in every cell.
                    checkpoint = Some(rt.checkpoint());
                }
            }
            let ck = checkpoint.unwrap();
            assert!(ck.pending.iter().all(|&p| p > 0), "{:?}", ck.pending);
            let expect = observed(&rt);
            drop(rt);
            for ck in [Some(&ck), None] {
                let recovered = recover(&defs, &mem.bytes(), ck);
                assert_eq!(observed(&recovered), expect, "checkpoint: {}", ck.is_some());
            }
        }
    }

    #[test]
    fn mismatched_cost_arity_is_rejected() {
        let cfg = MultiConfig::new(vec![CostModel::linear(0.05, 0.2)], 40.0);
        let err = RegistryRuntime::new(cfg, Box::new(OnlineFlush::new()), registry_of(2))
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, EngineError::Maintenance { .. }));
    }

    /// A policy that overdraws on its first decision.
    struct Overdraw;
    impl FlushPolicy for Overdraw {
        fn reset(&mut self, _ctx: &PolicyContext) {}
        fn decide(&mut self, _t: usize, pending: &Counts) -> Counts {
            let mut a = pending.clone();
            a[0] += 100;
            a
        }
        fn name(&self) -> &str {
            "overdraw"
        }
    }

    #[test]
    fn misbehaving_policy_demotes_to_naive() {
        let mut rt =
            RegistryRuntime::new(config(40.0), Box::new(Overdraw), registry_of(2)).unwrap();
        feed(&mut rt, 0);
        rt.tick().unwrap();
        assert!(rt.demoted());
        assert_eq!(rt.policy_name(), "naive");
        assert_eq!(rt.metrics().global.policy_demotions, 1);
    }

    #[test]
    fn threaded_server_serves_reads_and_per_view_metrics() {
        let rt = RegistryRuntime::new(config(40.0), Box::new(OnlineFlush::new()), registry_of(3))
            .unwrap();
        let server = RegistryServer::spawn(rt, ServerConfig::default());
        let h = server.handle();
        assert_eq!(h.views(), 3);
        assert_eq!(h.tables(), 2);
        let mut producers = Vec::new();
        for p in 0..2 {
            let h = server.handle();
            producers.push(std::thread::spawn(move || {
                for i in 0..200i64 {
                    let m = Modification::Insert(row![i % 7, (p * 200 + i) as f64]);
                    assert!(h.ingest_dml(0, m));
                    assert!(h.ingest_dml(1, Modification::Insert(row![i % 7, i])));
                }
            }));
        }
        for p in producers {
            p.join().unwrap();
        }
        for v in 0..3 {
            let r = h
                .read_view(v, ReadMode::Fresh)
                .expect("alive")
                .expect("read ok");
            assert!(!r.violated);
            assert_eq!(r.lag, 0);
            let stale = h.read_view(v, ReadMode::Stale).expect("alive").unwrap();
            assert!(stale.rows.is_some());
        }
        let m = h.metrics_by_view().expect("alive");
        assert_eq!(m.global.events_ingested, 800);
        assert_eq!(m.global.constraint_violations, 0);
        assert_eq!(m.views.len(), 3);
        assert!(m.global.snapshot_reads >= 3);
        for v in &m.views {
            assert_eq!(v.violations, 0);
        }
        drop(h);
        let rt = server.shutdown();
        // Accounting over the cell axis: ingested events fan out to one
        // pending unit per (group, table) cell they route to; here one
        // group ⇒ 800 events = 800 cell units.
        let flushed: u64 = rt.metrics().global.mods_flushed_per_table.iter().sum();
        assert_eq!(flushed + rt.pending().total(), 800);
    }

    #[test]
    fn batch_ingest_acknowledges_after_wal_append() {
        let mem = MemWal::new();
        let mut rt =
            RegistryRuntime::new(config(40.0), Box::new(OnlineFlush::new()), registry_of(2))
                .unwrap();
        rt.attach_wal(WalWriter::create(Box::new(mem.clone()), 1).unwrap());
        let server = RegistryServer::spawn(rt, ServerConfig::default());
        let h = server.handle();
        let mods: Vec<Modification> = (0..5i64)
            .map(|i| Modification::Insert(row![i, i as f64]))
            .collect();
        let ticket = h.try_ingest_batch_tracked(0, mods).expect("enqueued");
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match ticket.try_take().expect("scheduler alive") {
                Some(r) => {
                    r.expect("batch applied");
                    break;
                }
                None => {
                    assert!(Instant::now() < deadline, "ack never arrived");
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
        let dml = crate::wal::read_wal(&mem.bytes())
            .unwrap()
            .records
            .iter()
            .filter(|r| matches!(r, WalRecord::Dml { .. }))
            .count();
        assert_eq!(dml, 5);
        drop(h);
        server.shutdown();
    }

    #[test]
    fn fenced_registry_server_rejects_ingest_and_stops_logging() {
        let mem = MemWal::new();
        let mut rt =
            RegistryRuntime::new(config(40.0), Box::new(OnlineFlush::new()), registry_of(2))
                .unwrap();
        rt.attach_wal(WalWriter::create(Box::new(mem.clone()), 1).unwrap());
        let server = RegistryServer::spawn(rt, ServerConfig::default());
        let h = server.handle();
        assert!(h.ingest_dml(0, Modification::Insert(row![1i64, 1.0f64])));
        h.fence();
        let deadline = Instant::now() + Duration::from_secs(5);
        while !h.fence_acknowledged() {
            assert!(Instant::now() < deadline, "fence never acknowledged");
            std::thread::sleep(Duration::from_millis(1));
        }
        // Every ingest path rejects without touching the scheduler.
        assert!(!h.ingest_dml(0, Modification::Insert(row![2i64, 2.0f64])));
        assert!(matches!(
            h.try_ingest_batch(0, vec![]),
            Err(TrySendError::Disconnected)
        ));
        assert!(h.try_ingest_batch_tracked(0, vec![]).is_err());
        // Fresh reads (which would flush and log) error on every view;
        // stale reads and metrics stay available.
        for v in 0..2 {
            let r = h.read_view(v, ReadMode::Fresh).expect("scheduler replies");
            assert!(r.is_err(), "fresh read of view {v} on a fenced server");
            let stale = h.read_view(v, ReadMode::Stale).expect("alive").unwrap();
            assert!(stale.rows.is_some());
        }
        assert!(h.metrics().is_some());
        // The sealed log stops growing: no ticks are appended while
        // fenced.
        let frozen = mem.bytes().len();
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(mem.bytes().len(), frozen, "fenced leader appended to WAL");
        drop(h);
        server.shutdown();
    }

    #[test]
    fn injected_policy_panic_demotes_the_registry_policy() {
        let mut rt =
            RegistryRuntime::new(config(40.0), Box::new(OnlineFlush::new()), registry_of(2))
                .unwrap();
        rt.set_faults(FaultPlan {
            policy_panic_at: Some(1),
            ..FaultPlan::none()
        });
        for i in 0..3 {
            feed(&mut rt, i);
            assert!(!rt.tick().unwrap().violated);
        }
        assert!(rt.demoted());
        assert_eq!(rt.metrics().global.policy_demotions, 1);
    }

    #[test]
    fn bad_table_index_poisons_without_crashing() {
        let rt = RegistryRuntime::new(config(40.0), Box::new(OnlineFlush::new()), registry_of(2))
            .unwrap();
        let server = RegistryServer::spawn(rt, ServerConfig::default());
        let h = server.handle();
        assert!(h.ingest_dml(9, Modification::Insert(row![1i64, 1.0f64])));
        let deadline = Instant::now() + Duration::from_secs(5);
        while h.last_error().is_none() {
            assert!(Instant::now() < deadline, "error never surfaced");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(h.last_error().unwrap().during, "ingest");
        drop(h);
        server.shutdown();
    }
}
