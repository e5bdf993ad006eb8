//! # aivm-shard — key-partitioned scale-out for the maintenance runtime
//!
//! One [`MaintenanceRuntime`](aivm_serve::MaintenanceRuntime) funnels
//! every submit through a single scheduler. This crate lifts the
//! paper's asymmetric budget allocation one level up: N independent
//! runtimes, each owning a hash partition of the base data (its own
//! pending-delta queues, flush policy, WAL, and snapshot slot), behind
//! a router that
//!
//! - hashes each `Submit` to the one shard owning its join key
//!   ([`Partitioner`]; dimension tables replicate/broadcast),
//! - scatter-gathers `Read(Stale)` from per-shard snapshots and
//!   re-aggregates ([`MergeSpec`]) — `MIN` of shard minima, sums of
//!   shard counts — with an order-independent checksum bit-identical
//!   to an unsharded runtime over the same data,
//! - fans out `Read(Fresh)` as tick-then-flush per shard, preserving
//!   the `≤ C_i` guarantee shard-locally,
//! - and runs a [`Coordinator`] thread that each epoch redistributes
//!   the global budget `C` across shards by observed flush pressure,
//!   so a skewed stream stops starving hot shards.
//!
//! The *co-location invariant* (join-key partitioning ⇒ no cross-shard
//! join compensation) is documented and checked in [`partition`].

pub mod error;
pub mod merge;
pub mod partition;
pub mod runtime;
pub mod set;

pub use error::ShardError;
pub use merge::MergeSpec;
pub use partition::{Partitioner, Route};
pub use runtime::{merge_reads, partition_database, MergedRead};
pub use set::{
    merge_metrics, Coordinator, CoordinatorConfig, CoordinatorStats, FailoverConfig,
    FailoverMonitor, FailoverStats, Promoter, RebalancePolicy, ReplicaStatus, ShardRouter,
};
