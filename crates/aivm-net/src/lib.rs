//! `aivm-net` — the networked serving layer.
//!
//! `aivm-serve` made the maintenance runtime a running system, but an
//! embeddable one: only threads inside the process could submit DML or
//! read the view. This crate gives it a front door, in two parts:
//!
//! 1. **The wire protocol** ([`frame`]) — a versioned, length-prefixed
//!    binary format reusing the engine's value/row/modification codec
//!    and the write-ahead log's `len | fxhash64 | payload` framing, so
//!    one checksum convention covers disk and wire. Requests carry a
//!    deadline; failures are a typed [`ErrorCode`] taxonomy, never a
//!    torn connection with no explanation.
//! 2. **The TCP server** ([`server`]) — std-only, event-driven: a
//!    hand-rolled [`poller`] (raw `epoll`, no external crates)
//!    multiplexes thousands of non-blocking connections over a small
//!    fixed worker pool, each connection a read/write buffer state
//!    machine driving a [`ServeHandle`](aivm_serve::ServeHandle).
//!    Admission control rejects with [`ErrorCode::Overloaded`] *before*
//!    any side effect instead of queueing unboundedly, and per-request
//!    deadlines bound how long a read may wait behind a backlog.
//!
//! Submit and Read payloads are decoded **zero-copy** straight out of a
//! connection's read buffer ([`decode_request_ref`]); the steady-state
//! decode path performs no heap allocation per frame.
//!
//! The paper's refresh constraint `C` becomes a client-visible latency
//! SLO here: a `Fresh` read over the wire is still tick + forced flush,
//! so its flush cost is provably ≤ `C` — measured end to end by the
//! `perf` benchmark's wire workloads.

#![deny(unsafe_code)] // relaxed from forbid: `poller` needs raw epoll FFI
#![warn(missing_docs)]

pub mod frame;
pub mod poller;
pub mod replica;
pub mod server;

pub use frame::{
    decode_request_ref, decode_response, encode_request, encode_response, read_frame, read_hello,
    read_hello_reply, recv_request, recv_response, send_request, send_response, write_frame,
    write_hello, write_hello_reply, ErrorCode, FrameBuffer, FrameError, HandshakeStatus,
    NetMetrics, Request, RequestFrame, RequestRef, RequestRefFrame, Response, ShardMetricsRow,
    SubmitRef, WireReadResult, FRAME_HEADER_LEN, MAX_FRAME_LEN, NET_MAGIC, NET_VERSION,
};
pub use replica::{Replica, ReplicaConfig};
pub use server::{NetServer, NetServerConfig};
