//! `aivm-serve` — a live streaming maintenance runtime.
//!
//! Everything else in this workspace replays pre-generated traces; this
//! crate is the *running system* the paper's ONLINE algorithm (§4.3) is
//! designed for. It layers three pieces on top of the engine and solver
//! crates:
//!
//! 1. **Ingest** — DML events from concurrent producers flow through a
//!    bounded MPSC queue ([`server`]) into the pending delta tables of
//!    every view that reads the table (the paper's state vector `s`).
//! 2. **Scheduling** — one runtime ([`runtime`]) closes an arrival
//!    window per tick and consults a pluggable [`FlushPolicy`] — the
//!    solver's one [`Policy`](aivm_solver::Policy) trait, so
//!    [`NaiveFlush`], [`OnlineFlush`] and the `planned`
//!    [`AdaptPolicy::with_fallback`](aivm_solver::AdaptPolicy::with_fallback)
//!    are the solver's policies — for which pending modifications to
//!    flush, stepping through the solver's
//!    [`Ledger`](aivm_solver::Ledger) and enforcing the refresh
//!    response-time constraint `C` over a view registry's (group ×
//!    table) cells. A single view is a registry of one, counts-only mode
//!    is the runtime with no engine; [`RegistryRuntime`] is a name for
//!    the same runtime, not a second one.
//! 3. **Reads** — views are served in [`ReadMode::Stale`] (the current
//!    materialized `V`, zero cost) or [`ReadMode::Fresh`]
//!    (flush-then-read). Because every policy action must leave the
//!    state non-full, a fresh read always costs ≤ `C` — the paper's
//!    validity invariant, checked at runtime and surfaced as a
//!    constraint-violation counter in the [`MetricsSnapshot`]. Every
//!    flush boundary also publishes delta batches to push subscribers
//!    ([`multi`]).
//!
//! Every live run can record a [`Trace`] of its per-step arrivals and
//! actions; `aivm-sim`'s `replay` module re-executes recorded traces
//! deterministically, so live behaviour is auditable offline and the
//! `Planned` policy's schedule can be verified to reproduce bit-for-bit.
//!
//! The runtime is also *durable* and *fault-tolerant*: every
//! state-changing event can be appended to a write-ahead log ([`wal`]),
//! periodic per-cell [`Checkpoint`]s bound replay time, and
//! [`MaintenanceRuntime::recover_registry`] rebuilds the exact state of
//! an uncrashed run from log + checkpoint. Failures short of a crash
//! degrade instead of aborting: a panicking or erroring policy is
//! demoted to [`NaiveFlush`], drifting cost models are recalibrated,
//! and overload can shed oldest-first past a high-water mark
//! ([`queue`]) — all counted in [`MetricsSnapshot`]. A deterministic
//! [`FaultPlan`] ([`fault`]) injects each failure mode on demand; the
//! `repro chaos` harness uses it to prove crash/recover equivalence at
//! every event index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod metrics;
pub mod multi;
pub mod queue;
pub mod runtime;
pub mod server;
pub mod trace;
pub mod wal;

pub use aivm_solver::TraceStep;
/// The serving names of the solver's policy trait and policies.
pub use aivm_solver::{
    NaivePolicy as NaiveFlush, OnlinePolicy as OnlineFlush, Policy as FlushPolicy,
};
pub use fault::{CostOverrun, FaultPlan};
pub use metrics::{
    HistogramSnapshot, LatencyHistogram, MetricsSnapshot, MultiMetricsSnapshot, ViewMetricsSnapshot,
};
pub use multi::{
    fold_delta, DeltaBatch, FetchOutcome, MultiConfig, RegistryRuntime, SubscriptionHub,
    DELTA_RING_CAP,
};
pub use queue::TrySendError;
pub use runtime::{MaintenanceRuntime, ReadMode, ReadResult, ServeConfig, TickReport, APPLY_SHARE};
pub use server::{
    ApplyTicket, DeadlineError, Handle, MetricsTicket, ReadTicket, RegistryHandle, RegistryServer,
    ServeError, ServeHandle, ServeServer, Server, ServerConfig, Ticket,
};
pub use trace::Trace;
pub use wal::{
    decode_segment, read_wal, Checkpoint, EngineCheckpoint, FileWal, MemWal, WalReadOutcome,
    WalRecord, WalSegment, WalStorage, WalSyncPolicy, WalTail, WalWriter,
};
