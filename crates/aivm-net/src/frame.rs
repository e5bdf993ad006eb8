//! The wire format: handshake, frame layer, and request/response
//! payload codecs.
//!
//! ## Framing
//!
//! A connection opens with a fixed-size handshake (client first):
//!
//! ```text
//! client hello: magic "ANET" | version u16
//! server reply: magic "ANET" | version u16 | status u8
//! ```
//!
//! Status 0 accepts; any other value is a typed connection-level
//! rejection ([`HandshakeStatus`]), sent *before* any frame so a capped
//! server never leaves a dangling half-frame behind.
//!
//! After the handshake both directions carry the write-ahead log's
//! frames, written by `aivm_engine::codec::put_frame` and cut by
//! `aivm_engine::codec::split_frame`:
//!
//! ```text
//! frame: payload_len u32 | fxhash64(payload) u64 | payload
//! ```
//!
//! All integers little-endian. A frame whose length exceeds
//! [`MAX_FRAME_LEN`] or whose checksum fails is *corrupt* — and because
//! a byte stream cannot be resynchronised past garbage, the connection
//! must be dropped. A cleanly closed connection at a frame boundary is
//! [`FrameError::Closed`], not an error in disguise; EOF *inside* a
//! frame is a torn frame (I/O error), mirroring the WAL's torn-tail
//! distinction.
//!
//! ## Payloads
//!
//! Request payloads prefix a deadline, then a kind tag:
//!
//! ```text
//! request:  deadline_ms u32 | kind u8 | body
//!   kind 0 Ping
//!   kind 1 Submit  epoch u64 | table u32 | count u32 | modification...
//!   kind 2 Read    view u32 | mode u8 (0 stale, 1 fresh) | want_rows u8
//!   kind 3 Metrics per_shard u8 | per_view u8
//!   kind 4 Flush
//!   kind 5 ReplicaSubscribe shard u32 | from_record u64
//!   kind 6 Subscribe view u32 | from_seq u64 (u64::MAX = from head)
//!   kind 7 Unsubscribe view u32
//! response: kind u8 | body
//!   kind 0 Pong
//!   kind 1 SubmitOk  accepted u64
//!   kind 2 ReadOk    fresh u8 | lag u64 | flush_cost f64 | violated u8
//!                    | degraded u8 | checksum u64
//!                    | has_rows u8 [| count u32 | (row, w i64)...]
//!   kind 3 MetricsOk NetMetrics fields in declaration order, with 32
//!                    zero bytes (the retired v6 counters) after
//!                    `sub_lag_max`
//!                    [| per-shard rows when requested]
//!                    [| per-view rows when requested]
//!   kind 4 FlushOk   flush_cost f64 | violated u8
//!   kind 5 Error     code u8 | message str
//!   kind 6 WalSegment epoch u64 | from_record u64 | leader_records u64
//!                    | len u32 | bytes (raw checksummed WAL frames)
//!   kind 7 SubscribeOk view u32 | seq u64 | resync u8 | checksum u64
//!                    | count u32 | (row, w i64)...
//!   kind 8 ViewDelta view u32 | seq u64 | checksum u64 | staleness u64
//!                    | count u32 | (row, w i64)...
//! ```
//!
//! Values, rows and modifications reuse `aivm-engine`'s codec
//! (`aivm_engine::codec`), so a DML modification has exactly one binary
//! form across the WAL, checkpoints and the wire, and every payload is
//! read through its bounds-checked `Reader`. `deadline_ms` is the
//! client's *remaining* budget for the request (0 = no deadline); the
//! server subtracts its own queue wait from it. The protocol is
//! versioned at the handshake, so payloads carry no per-frame version.

pub use aivm_engine::codec::FRAME_HEADER_LEN;
use aivm_engine::codec::{
    put_frame, put_modification, put_row, put_str, split_frame, Reader, Split,
};
use aivm_engine::{EngineError, Modification, WRow};
use bytes::BufMut;
use std::io::{ErrorKind, Read, Write};

/// Handshake magic, both directions.
pub const NET_MAGIC: &[u8; 4] = b"ANET";
/// Protocol version negotiated at the handshake. v2 added
/// `snapshot_reads` to the metrics frame; v3 added sharding (the
/// `degraded` read flag, `ShardUnavailable`, the metrics `per_shard`
/// request flag and shard aggregate/breakdown metrics fields); v4 added
/// replication (the submit `epoch` fence, `StaleEpoch`,
/// `ReplicaSubscribe`/`WalSegment` frames, and per-shard
/// health/epoch/replication-lag metrics fields); v5 added multi-view
/// serving (the read/unsubscribe `view` selector, push subscriptions
/// via `Subscribe`/`SubscribeOk`/`ViewDelta`, the metrics `per_view`
/// request flag plus view/subscriber aggregate and breakdown fields);
/// v6 added heavy-light skew metrics (`heavy_keys`,
/// `heavy_reclassifications`, `heavy_hits`, `light_hits`; since
/// heavy-light partitioning was removed the encoder writes their 32
/// bytes as zeros and the decoder reads and discards them); v7 dropped
/// the metrics frame's `shards_auto` byte (an echo of a launcher flag
/// the server never acted on).
pub const NET_VERSION: u16 = 7;
/// Bytes of the retired v6 heavy-light counters in a `MetricsOk` body
/// (four `u64`s, always zero).
const RETIRED_METRICS_LEN: usize = 32;
/// Hard cap on a single frame's payload. A length prefix beyond this is
/// rejected as corrupt *before* any allocation, so a hostile or garbled
/// header cannot balloon memory.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection at a clean frame boundary.
    Closed,
    /// Transport failure — including EOF *inside* a frame (a torn
    /// frame) and read timeouts.
    Io(std::io::Error),
    /// The stream arrived but failed validation (bad magic, oversized
    /// length, checksum mismatch, undecodable payload). The connection
    /// cannot be resynchronised and must be dropped.
    Corrupt(EngineError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Io(e) => write!(f, "transport error: {e}"),
            FrameError::Corrupt(e) => write!(f, "corrupt frame: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl FrameError {
    /// True when the error is a read timeout (the deadline mechanism on
    /// blocking sockets).
    pub fn is_timeout(&self) -> bool {
        matches!(self, FrameError::Io(e)
            if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut)
    }

    fn corrupt(context: &str, offset: u64, message: impl Into<String>) -> FrameError {
        FrameError::Corrupt(EngineError::Corrupt {
            context: context.to_string(),
            offset,
            message: message.into(),
        })
    }
}

/// Outcome of the fixed-size server handshake reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HandshakeStatus {
    /// Connection accepted; frames may flow.
    Ok,
    /// The server is at its connection cap; retry later.
    Overloaded,
    /// The server speaks a different protocol version.
    VersionMismatch,
}

impl HandshakeStatus {
    fn as_u8(self) -> u8 {
        match self {
            HandshakeStatus::Ok => 0,
            HandshakeStatus::Overloaded => 1,
            HandshakeStatus::VersionMismatch => 2,
        }
    }

    fn from_u8(v: u8) -> Option<HandshakeStatus> {
        match v {
            0 => Some(HandshakeStatus::Ok),
            1 => Some(HandshakeStatus::Overloaded),
            2 => Some(HandshakeStatus::VersionMismatch),
            _ => None,
        }
    }
}

/// Writes the client hello (magic + version) and flushes.
pub fn write_hello<W: Write>(w: &mut W) -> std::io::Result<()> {
    w.write_all(NET_MAGIC)?;
    w.write_all(&NET_VERSION.to_le_bytes())?;
    w.flush()
}

/// Reads and validates a client hello, returning the peer's version.
/// A wrong magic is corrupt; a different version is *not* (the server
/// answers it with [`HandshakeStatus::VersionMismatch`]).
pub fn read_hello<R: Read>(r: &mut R) -> Result<u16, FrameError> {
    let mut buf = [0u8; 6];
    read_exact_or_closed(r, &mut buf, true)?;
    if &buf[..4] != NET_MAGIC {
        return Err(FrameError::corrupt("handshake", 0, "bad magic"));
    }
    Ok(u16::from_le_bytes([buf[4], buf[5]]))
}

/// Writes the server's handshake reply and flushes.
pub fn write_hello_reply<W: Write>(w: &mut W, status: HandshakeStatus) -> std::io::Result<()> {
    w.write_all(NET_MAGIC)?;
    w.write_all(&NET_VERSION.to_le_bytes())?;
    w.write_all(&[status.as_u8()])?;
    w.flush()
}

/// Reads and validates the server's handshake reply.
pub fn read_hello_reply<R: Read>(r: &mut R) -> Result<HandshakeStatus, FrameError> {
    let mut buf = [0u8; 7];
    read_exact_or_closed(r, &mut buf, true)?;
    if &buf[..4] != NET_MAGIC {
        return Err(FrameError::corrupt("handshake", 0, "bad magic"));
    }
    let version = u16::from_le_bytes([buf[4], buf[5]]);
    if version != NET_VERSION {
        return Err(FrameError::corrupt(
            "handshake",
            4,
            format!("server version {version} (supported: {NET_VERSION})"),
        ));
    }
    HandshakeStatus::from_u8(buf[6])
        .ok_or_else(|| FrameError::corrupt("handshake", 6, format!("status {}", buf[6])))
}

/// Writes one frame (header + payload) and flushes.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    send(w, |b| b.extend_from_slice(payload))
}

/// Frames the payload `encode` writes and sends it in one write.
fn send<W: Write>(w: &mut W, encode: impl FnOnce(&mut Vec<u8>)) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(64);
    put_frame(&mut frame, encode);
    debug_assert!(frame.len() <= FRAME_HEADER_LEN + MAX_FRAME_LEN);
    w.write_all(&frame)?;
    w.flush()
}

/// The frame splitter's verdict under the wire's rules: a checksum
/// mismatch, or a header declaring more than [`MAX_FRAME_LEN`] (caught
/// before the payload is buffered), is corrupt — a byte stream cannot
/// be resynchronised past either.
fn split_wire(bytes: &[u8]) -> Result<Split<'_>, FrameError> {
    match split_frame(bytes) {
        Split::NeedMore(n) if n > FRAME_HEADER_LEN + MAX_FRAME_LEN => Err(FrameError::corrupt(
            "frame",
            0,
            format!(
                "payload length {} exceeds cap {MAX_FRAME_LEN}",
                n - FRAME_HEADER_LEN
            ),
        )),
        Split::ChecksumMismatch => Err(FrameError::corrupt(
            "frame",
            FRAME_HEADER_LEN as u64,
            "payload checksum mismatch",
        )),
        split => Ok(split),
    }
}

/// Reads one frame, validating length and checksum. EOF before the
/// first header byte is [`FrameError::Closed`]; EOF anywhere later is a
/// torn frame ([`FrameError::Io`]).
pub fn read_frame<R: Read>(r: &mut R) -> Result<Vec<u8>, FrameError> {
    let mut frame = Vec::new();
    while let Split::NeedMore(len) = split_wire(&frame)? {
        let have = frame.len();
        frame.resize(len, 0);
        read_exact_or_closed(r, &mut frame[have..], have == 0)?;
    }
    frame.drain(..FRAME_HEADER_LEN);
    Ok(frame)
}

/// Consecutive mid-frame read timeouts tolerated before a stalled peer
/// is treated as a torn frame.
const MAX_FRAME_STALLS: u32 = 100;

/// `read_exact` that is safe on sockets with read timeouts.
///
/// With `at_boundary` true, EOF or a timeout *before the first byte* is
/// a clean event ([`FrameError::Closed`] / a timeout [`FrameError::Io`]
/// the caller can poll on). Once any byte of a frame has arrived the
/// frame has *started*: timeouts retry (bounded by
/// [`MAX_FRAME_STALLS`]) instead of abandoning a partially consumed
/// stream — which would desynchronise it — and EOF is a torn frame.
fn read_exact_or_closed<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    at_boundary: bool,
) -> Result<(), FrameError> {
    let mut filled = 0;
    let mut stalls = 0u32;
    let torn = || {
        FrameError::Io(std::io::Error::new(
            ErrorKind::UnexpectedEof,
            "peer closed mid-frame",
        ))
    };
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if at_boundary && filled == 0 => return Err(FrameError::Closed),
            Ok(0) => return Err(torn()),
            Ok(n) => {
                filled += n;
                stalls = 0;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if at_boundary && filled == 0 {
                    return Err(FrameError::Io(e));
                }
                stalls += 1;
                if stalls > MAX_FRAME_STALLS {
                    return Err(FrameError::Io(e));
                }
            }
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

/// The operations a client can request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe; the server answers [`Response::Pong`].
    Ping,
    /// Ingest a batch of DML for one base table (position within the
    /// view). The batch is admitted or rejected *atomically*: on an
    /// `Overloaded` or `DeadlineExceeded` error no modification was
    /// applied, which is what makes retrying a submit safe.
    Submit {
        /// The shard epoch this client believes is current (0 = skip
        /// the fence check, the pre-replication behaviour). The server
        /// rejects the batch with [`ErrorCode::StaleEpoch`]
        /// *before any side effect* when a target shard's epoch has
        /// advanced past this — fencing writes routed to a deposed
        /// leader.
        epoch: u64,
        /// Base-table position within the view.
        table: u32,
        /// The modifications, applied in order.
        mods: Vec<Modification>,
    },
    /// Read a view.
    Read {
        /// Registry view id (0 on a single-view server).
        view: u32,
        /// Fresh (flush-then-read, ≤ C) or stale (free).
        fresh: bool,
        /// Return the materialized rows, not just the checksum. Row
        /// payloads dominate read latency for large views; load
        /// generators leave this off.
        want_rows: bool,
    },
    /// Fetch a [`NetMetrics`] snapshot.
    Metrics {
        /// Also return the per-shard breakdown rows (shards > 1 adds a
        /// row per shard slot; the aggregate fields are always present).
        per_shard: bool,
        /// Also return the per-view breakdown rows (registry serving).
        per_view: bool,
    },
    /// Force a full flush without reading rows (a fresh read minus the
    /// payload).
    Flush,
    /// Subscribe-by-polling to a shard leader's WAL tail: return the
    /// records from `from_record` onward (bounded by the frame cap) as
    /// raw checksummed WAL frames. Idempotent and resumable — after a
    /// torn tail or dropped connection the follower re-requests from
    /// its last checksum-valid applied position.
    ReplicaSubscribe {
        /// Shard slot whose WAL tail to read.
        shard: u32,
        /// First record index wanted (0-based count of records already
        /// applied by the follower).
        from_record: u64,
    },
    /// Open a live push subscription on a registry view: the server
    /// answers [`Response::SubscribeOk`], then pushes a
    /// [`Response::ViewDelta`] for every flush boundary the view
    /// crosses, in seq order with no gap and no duplicate. Idempotent
    /// and resumable: after a dropped connection the client
    /// re-subscribes from its last folded seq. A `from_seq` the server
    /// no longer holds deltas for is answered with a snapshot resync
    /// instead of an error.
    Subscribe {
        /// Registry view id.
        view: u32,
        /// First delta seq wanted (last folded seq + 1);
        /// `u64::MAX` = start from the current snapshot.
        from_seq: u64,
    },
    /// Close a push subscription on a view. The server stops pushing
    /// deltas for it; already-buffered frames may still arrive.
    Unsubscribe {
        /// Registry view id.
        view: u32,
    },
}

impl Request {
    /// Whether retrying this request can double-apply work. Reads,
    /// pings, metrics and flushes are idempotent; a submit is only safe
    /// to retry when the server provably rejected it before ingesting
    /// (the client retries submits on `Overloaded` but not on transport
    /// errors mid-reply).
    pub fn is_idempotent(&self) -> bool {
        !matches!(self, Request::Submit { .. })
    }
}

/// A request plus the client's remaining deadline budget.
#[derive(Clone, Debug, PartialEq)]
pub struct RequestFrame {
    /// Milliseconds of deadline budget remaining at send time
    /// (0 = no deadline).
    pub deadline_ms: u32,
    /// The operation.
    pub request: Request,
}

/// Encodes a request payload (framing is [`write_frame`]'s job).
pub fn encode_request(f: &RequestFrame) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    put_request(&mut buf, f);
    buf
}

fn put_request(buf: &mut Vec<u8>, f: &RequestFrame) {
    buf.put_u32_le(f.deadline_ms);
    match &f.request {
        Request::Ping => buf.put_u8(0),
        Request::Submit { epoch, table, mods } => {
            buf.put_u8(1);
            buf.put_u64_le(*epoch);
            buf.put_u32_le(*table);
            buf.put_u32_le(mods.len() as u32);
            for m in mods {
                put_modification(buf, m);
            }
        }
        Request::Read {
            view,
            fresh,
            want_rows,
        } => {
            buf.put_u8(2);
            buf.put_u32_le(*view);
            buf.put_u8(u8::from(*fresh));
            buf.put_u8(u8::from(*want_rows));
        }
        Request::Metrics {
            per_shard,
            per_view,
        } => {
            buf.put_u8(3);
            buf.put_u8(u8::from(*per_shard));
            buf.put_u8(u8::from(*per_view));
        }
        Request::Flush => buf.put_u8(4),
        Request::ReplicaSubscribe { shard, from_record } => {
            buf.put_u8(5);
            buf.put_u32_le(*shard);
            buf.put_u64_le(*from_record);
        }
        Request::Subscribe { view, from_seq } => {
            buf.put_u8(6);
            buf.put_u32_le(*view);
            buf.put_u64_le(*from_seq);
        }
        Request::Unsubscribe { view } => {
            buf.put_u8(7);
            buf.put_u32_le(*view);
        }
    }
}

/// Typed request-level failure taxonomy, carried in
/// [`Response::Error`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// Admission control rejected the request *before any side effect*
    /// (queue past its high-water mark, or the connection cap). Always
    /// safe to retry — including submits.
    Overloaded,
    /// The request's deadline expired before the server started (or
    /// finished) work it could refuse.
    DeadlineExceeded,
    /// The request decoded but is semantically invalid (unknown table,
    /// malformed batch).
    BadRequest,
    /// No maintenance scheduler is left to answer the request (poisoned
    /// or shut down — the message carries the scheduler's last error
    /// when one was recorded); retrying against this server will not
    /// help.
    Unavailable,
    /// An engine error while executing the request.
    Internal,
    /// The shard owning the submitted key is down (an unsharded server
    /// is one shard). Rejected *before any side effect* — the router
    /// checks every target shard's liveness before enqueueing anything
    /// — so a submit carrying this code is safe to retry (it will
    /// succeed once recovery rejoins the shard or a follower is
    /// promoted).
    ShardUnavailable,
    /// The submit carried a shard epoch older than the target shard's
    /// current epoch — the client is talking through a view of the
    /// cluster from before a failover. Rejected *before any side
    /// effect* by the pre-admission fence, so retrying (after
    /// refreshing the epoch from `Metrics`) is safe: the deposed
    /// leader's writes can never double-apply.
    StaleEpoch,
}

impl ErrorCode {
    /// Whether a client may retry a *submit* carrying this code without
    /// risking double-apply. Idempotent requests retry on more.
    pub fn is_retry_safe(self) -> bool {
        matches!(
            self,
            ErrorCode::Overloaded | ErrorCode::ShardUnavailable | ErrorCode::StaleEpoch
        )
    }

    fn as_u8(self) -> u8 {
        match self {
            ErrorCode::Overloaded => 0,
            ErrorCode::DeadlineExceeded => 1,
            ErrorCode::BadRequest => 2,
            ErrorCode::Unavailable => 3,
            ErrorCode::Internal => 4,
            ErrorCode::ShardUnavailable => 5,
            ErrorCode::StaleEpoch => 6,
        }
    }

    fn from_u8(v: u8) -> Option<ErrorCode> {
        match v {
            0 => Some(ErrorCode::Overloaded),
            1 => Some(ErrorCode::DeadlineExceeded),
            2 => Some(ErrorCode::BadRequest),
            3 => Some(ErrorCode::Unavailable),
            4 => Some(ErrorCode::Internal),
            5 => Some(ErrorCode::ShardUnavailable),
            6 => Some(ErrorCode::StaleEpoch),
            _ => None,
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::DeadlineExceeded => "deadline exceeded",
            ErrorCode::BadRequest => "bad request",
            ErrorCode::Unavailable => "unavailable",
            ErrorCode::Internal => "internal",
            ErrorCode::ShardUnavailable => "shard unavailable",
            ErrorCode::StaleEpoch => "stale epoch",
        })
    }
}

/// A view read as it crosses the wire.
#[derive(Clone, Debug, PartialEq)]
pub struct WireReadResult {
    /// Whether this was a fresh (flushed) read.
    pub fresh: bool,
    /// Pending modifications not reflected in the result (0 for fresh).
    pub lag: u64,
    /// Model cost of the flush performed to serve this read.
    pub flush_cost: f64,
    /// Whether the read broke the ≤ C guarantee.
    pub violated: bool,
    /// Sharded serving only: true when at least one shard could not
    /// contribute (dead, or no published snapshot yet), so the result
    /// covers only part of the key space. Always false unsharded.
    pub degraded: bool,
    /// Order-independent content checksum of the materialized view —
    /// always present, so clients can verify convergence without
    /// shipping rows.
    pub checksum: u64,
    /// Materialized rows, when the request asked for them.
    pub rows: Option<Vec<WRow>>,
}

/// Counters surfaced by the `Metrics` frame: the runtime's own
/// [`MetricsSnapshot`](aivm_serve::MetricsSnapshot) essentials plus the
/// network layer's admission/connection counters, so overload is
/// observable from the client side.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NetMetrics {
    /// DML events ingested into the runtime.
    pub events_ingested: u64,
    /// Scheduler ticks executed.
    pub ticks: u64,
    /// Non-zero flush actions executed.
    pub flush_count: u64,
    /// Total model cost charged across all flushes.
    pub total_flush_cost: f64,
    /// Fresh reads served by the runtime.
    pub fresh_reads: u64,
    /// Stale reads served by the runtime's scheduler.
    pub stale_reads: u64,
    /// Stale reads served wait-free from a published view snapshot,
    /// never touching the scheduler.
    pub snapshot_reads: u64,
    /// Validity-invariant violations (must stay 0).
    pub constraint_violations: u64,
    /// Policy demotions (≤ 1; demotion is permanent).
    pub policy_demotions: u64,
    /// Cost-model recalibrations.
    pub recalibrations: u64,
    /// True once the runtime degraded to the naive policy.
    pub degraded: bool,
    /// Ingest-queue depth at snapshot time.
    pub queue_depth: u64,
    /// High-water mark of the ingest queue.
    pub max_queue_depth: u64,
    /// Sheddable ingest messages dropped by the overloaded queue.
    pub shed_events: u64,
    /// Ingest messages the scheduler rejected.
    pub ingest_errors: u64,
    /// Records appended to the WAL (0 without one).
    pub wal_records: u64,
    /// WAL records appended but not yet fsynced.
    pub wal_fsync_lag: u64,
    /// The WAL writer's fsync interval (0 without a WAL).
    pub wal_sync_every: u64,
    /// Connections currently open.
    pub connections_active: u64,
    /// Connections accepted over the server's lifetime.
    pub connections_total: u64,
    /// Connections rejected at the handshake (connection cap).
    pub connections_rejected: u64,
    /// Frames served over the server's lifetime.
    pub requests: u64,
    /// DML modifications accepted over the wire.
    pub submitted_events: u64,
    /// Requests rejected with [`ErrorCode::Overloaded`].
    pub overload_rejections: u64,
    /// Requests rejected with [`ErrorCode::DeadlineExceeded`].
    pub deadline_rejections: u64,
    /// Shard slots configured (1 unsharded).
    pub shards: u64,
    /// Shard slots currently live.
    pub shards_live: u64,
    /// Worst per-shard snapshot staleness (pending modifications not
    /// reflected in that shard's published snapshot).
    pub staleness_max: u64,
    /// Total refresh budget currently in force (sum of per-shard
    /// budgets `C_i` — equals the global `C` modulo rebalance float).
    pub budget: f64,
    /// Cross-shard budget rebalances applied (sum of per-shard pushes).
    pub budget_rebalances: u64,
    /// Leader failovers executed (follower promotions) over the
    /// cluster's lifetime.
    pub failovers: u64,
    /// Sum of per-shard epochs — a cheap monotonic cluster-config
    /// version: it advances exactly when any shard fails over.
    pub cluster_epoch: u64,
    /// Worst per-shard replication lag (leader WAL records not yet
    /// applied by that shard's follower; 0 without replicas).
    pub replica_lag_max: u64,
    /// Registered views (1 on a single-view server).
    pub views: u64,
    /// Live push subscribers across all views.
    pub subscribers: u64,
    /// Delta batches published across all views.
    pub deltas_pushed: u64,
    /// Worst observed subscriber lag (delta seqs behind head).
    pub sub_lag_max: u64,
    /// The scheduler's poisoning error, if any (first failing shard).
    pub last_error: Option<String>,
    /// Per-shard breakdown, present when the request set `per_shard`.
    pub per_shard: Option<Vec<ShardMetricsRow>>,
    /// Per-view breakdown, present when the request set `per_view`.
    pub per_view: Option<Vec<ViewMetricsRow>>,
}

/// One shard's slice of the metrics breakdown (sharded serving; the
/// aggregate fields in [`NetMetrics`] are sums/maxes over these).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ShardMetricsRow {
    /// Shard slot index.
    pub shard: u32,
    /// Whether the slot currently has a live runtime.
    pub live: bool,
    /// DML events ingested into this shard's runtime.
    pub events_ingested: u64,
    /// This shard's ingest-queue depth at snapshot time.
    pub queue_depth: u64,
    /// Non-zero flush actions executed by this shard.
    pub flush_count: u64,
    /// Total model cost charged by this shard's flushes.
    pub total_flush_cost: f64,
    /// This shard's refresh budget `C_i` (the coordinator moves it).
    pub budget: f64,
    /// Snapshot staleness: pending modifications not reflected in this
    /// shard's published snapshot.
    pub staleness: u64,
    /// This shard's fencing epoch (starts at 1, bumped by every
    /// promotion; a submit carrying an older epoch is rejected).
    pub epoch: u64,
    /// Leader WAL records not yet applied by this shard's follower
    /// (0 when no replica is attached).
    pub replica_lag: u64,
    /// Health state: 0 = dead slot, 1 = live leader without a
    /// follower, 2 = live leader with a replica tailing its WAL.
    pub health: u8,
}

/// One view's slice of the metrics breakdown (registry serving; the
/// view/subscriber aggregates in [`NetMetrics`] are sums/maxes over
/// these).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ViewMetricsRow {
    /// Registry view id.
    pub view: u32,
    /// Sharing-group index (views in one group propagate deltas once).
    pub group: u32,
    /// Flushes this view has closed (its delta seq head).
    pub flushes: u64,
    /// Total pending modifications not yet reflected in the view (the
    /// staleness vector's sum).
    pub pending: u64,
    /// Per-view freshness violations (must stay 0).
    pub violations: u64,
    /// Delta batches published for this view.
    pub deltas_pushed: u64,
    /// Live push subscribers on this view.
    pub subscribers: u64,
    /// Largest observed subscriber lag on this view (seqs behind head).
    pub sub_lag_max: u64,
}

/// The server's answer to one request.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Liveness reply.
    Pong,
    /// The whole submit batch was ingested.
    SubmitOk {
        /// Modifications applied (= the batch size).
        accepted: u64,
    },
    /// A served read.
    ReadOk(WireReadResult),
    /// A metrics snapshot.
    MetricsOk(Box<NetMetrics>),
    /// A forced flush completed.
    FlushOk {
        /// Model cost of the flush.
        flush_cost: f64,
        /// Whether it broke the ≤ C guarantee.
        violated: bool,
    },
    /// A typed failure; the request had no effect unless the code says
    /// otherwise (see [`ErrorCode`]).
    Error {
        /// The taxonomy bucket.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// A slice of a shard leader's WAL tail, answering
    /// [`Request::ReplicaSubscribe`]. `bytes` holds whole checksummed
    /// WAL record frames (no WAL file header) — exactly the bytes the
    /// leader appended, so the follower re-validates each record's
    /// checksum before applying. An empty `bytes` means the follower is
    /// caught up.
    WalSegment {
        /// The shard's current fencing epoch, piggybacked so the
        /// follower tracks leadership changes without extra requests.
        epoch: u64,
        /// Record index of the first record in `bytes`.
        from_record: u64,
        /// Total records in the leader's WAL — `leader_records -
        /// (from_record + count)` is the follower's remaining lag.
        leader_records: u64,
        /// Raw WAL record frames (`len u32 | fxhash64 u64 | payload`).
        bytes: Vec<u8>,
    },
    /// A push subscription was accepted, answering
    /// [`Request::Subscribe`] — and also sent mid-stream when a slow
    /// subscriber fell off the server's delta ring and must restart
    /// from a snapshot. With `resync` true, `rows` is the full
    /// materialized view at `seq` (replacing any folded state); with
    /// `resync` false, `rows` is empty and [`Response::ViewDelta`]
    /// frames will flow starting at the requested seq.
    SubscribeOk {
        /// The subscribed view.
        view: u32,
        /// The snapshot's seq (resync) or the seq *before* the first
        /// delta that will be pushed (resume-ack).
        seq: u64,
        /// Whether `rows` replaces the subscriber's folded state.
        resync: bool,
        /// Content checksum of the view at `seq`.
        checksum: u64,
        /// The snapshot rows (empty on a resume-ack).
        rows: Vec<WRow>,
    },
    /// One pushed delta batch: the signed row difference taking the
    /// subscriber's folded state from `seq - 1` to `seq`. Deltas for
    /// one view arrive in seq order with no gap and no duplicate.
    ViewDelta {
        /// The subscribed view.
        view: u32,
        /// The seq this delta produces.
        seq: u64,
        /// Content checksum of the view at `seq` (fold verification).
        checksum: u64,
        /// The view's total pending backlog at publication.
        staleness: u64,
        /// Signed difference rows (weight > 0 added, < 0 removed).
        rows: Vec<WRow>,
    },
}

/// Encodes a response payload.
pub fn encode_response(r: &Response) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    put_response(&mut buf, r);
    buf
}

/// Appends a response payload (the server encodes straight into its
/// connection's write buffer).
pub(crate) fn put_response(buf: &mut Vec<u8>, r: &Response) {
    match r {
        Response::Pong => buf.put_u8(0),
        Response::SubmitOk { accepted } => {
            buf.put_u8(1);
            buf.put_u64_le(*accepted);
        }
        Response::ReadOk(rr) => {
            buf.put_u8(2);
            buf.put_u8(u8::from(rr.fresh));
            buf.put_u64_le(rr.lag);
            buf.put_f64_le(rr.flush_cost);
            buf.put_u8(u8::from(rr.violated));
            buf.put_u8(u8::from(rr.degraded));
            buf.put_u64_le(rr.checksum);
            match &rr.rows {
                None => buf.put_u8(0),
                Some(rows) => {
                    buf.put_u8(1);
                    put_wrows(buf, rows);
                }
            }
        }
        Response::MetricsOk(m) => {
            buf.put_u8(3);
            buf.put_u64_le(m.events_ingested);
            buf.put_u64_le(m.ticks);
            buf.put_u64_le(m.flush_count);
            buf.put_f64_le(m.total_flush_cost);
            buf.put_u64_le(m.fresh_reads);
            buf.put_u64_le(m.stale_reads);
            buf.put_u64_le(m.snapshot_reads);
            buf.put_u64_le(m.constraint_violations);
            buf.put_u64_le(m.policy_demotions);
            buf.put_u64_le(m.recalibrations);
            buf.put_u8(u8::from(m.degraded));
            buf.put_u64_le(m.queue_depth);
            buf.put_u64_le(m.max_queue_depth);
            buf.put_u64_le(m.shed_events);
            buf.put_u64_le(m.ingest_errors);
            buf.put_u64_le(m.wal_records);
            buf.put_u64_le(m.wal_fsync_lag);
            buf.put_u64_le(m.wal_sync_every);
            buf.put_u64_le(m.connections_active);
            buf.put_u64_le(m.connections_total);
            buf.put_u64_le(m.connections_rejected);
            buf.put_u64_le(m.requests);
            buf.put_u64_le(m.submitted_events);
            buf.put_u64_le(m.overload_rejections);
            buf.put_u64_le(m.deadline_rejections);
            buf.put_u64_le(m.shards);
            buf.put_u64_le(m.shards_live);
            buf.put_u64_le(m.staleness_max);
            buf.put_f64_le(m.budget);
            buf.put_u64_le(m.budget_rebalances);
            buf.put_u64_le(m.failovers);
            buf.put_u64_le(m.cluster_epoch);
            buf.put_u64_le(m.replica_lag_max);
            buf.put_u64_le(m.views);
            buf.put_u64_le(m.subscribers);
            buf.put_u64_le(m.deltas_pushed);
            buf.put_u64_le(m.sub_lag_max);
            buf.put_slice(&[0; RETIRED_METRICS_LEN]);
            match &m.last_error {
                None => buf.put_u8(0),
                Some(e) => {
                    buf.put_u8(1);
                    put_str(buf, e);
                }
            }
            match &m.per_shard {
                None => buf.put_u8(0),
                Some(rows) => {
                    buf.put_u8(1);
                    buf.put_u32_le(rows.len() as u32);
                    for s in rows {
                        buf.put_u32_le(s.shard);
                        buf.put_u8(u8::from(s.live));
                        buf.put_u64_le(s.events_ingested);
                        buf.put_u64_le(s.queue_depth);
                        buf.put_u64_le(s.flush_count);
                        buf.put_f64_le(s.total_flush_cost);
                        buf.put_f64_le(s.budget);
                        buf.put_u64_le(s.staleness);
                        buf.put_u64_le(s.epoch);
                        buf.put_u64_le(s.replica_lag);
                        buf.put_u8(s.health);
                    }
                }
            }
            match &m.per_view {
                None => buf.put_u8(0),
                Some(rows) => {
                    buf.put_u8(1);
                    buf.put_u32_le(rows.len() as u32);
                    for v in rows {
                        buf.put_u32_le(v.view);
                        buf.put_u32_le(v.group);
                        buf.put_u64_le(v.flushes);
                        buf.put_u64_le(v.pending);
                        buf.put_u64_le(v.violations);
                        buf.put_u64_le(v.deltas_pushed);
                        buf.put_u64_le(v.subscribers);
                        buf.put_u64_le(v.sub_lag_max);
                    }
                }
            }
        }
        Response::FlushOk {
            flush_cost,
            violated,
        } => {
            buf.put_u8(4);
            buf.put_f64_le(*flush_cost);
            buf.put_u8(u8::from(*violated));
        }
        Response::Error { code, message } => {
            buf.put_u8(5);
            buf.put_u8(code.as_u8());
            put_str(buf, message);
        }
        Response::WalSegment {
            epoch,
            from_record,
            leader_records,
            bytes,
        } => {
            buf.put_u8(6);
            buf.put_u64_le(*epoch);
            buf.put_u64_le(*from_record);
            buf.put_u64_le(*leader_records);
            buf.put_u32_le(bytes.len() as u32);
            buf.put_slice(bytes);
        }
        Response::SubscribeOk {
            view,
            seq,
            resync,
            checksum,
            rows,
        } => {
            buf.put_u8(7);
            buf.put_u32_le(*view);
            buf.put_u64_le(*seq);
            buf.put_u8(u8::from(*resync));
            buf.put_u64_le(*checksum);
            put_wrows(buf, rows);
        }
        Response::ViewDelta {
            view,
            seq,
            checksum,
            staleness,
            rows,
        } => {
            buf.put_u8(8);
            buf.put_u32_le(*view);
            buf.put_u64_le(*seq);
            buf.put_u64_le(*checksum);
            buf.put_u64_le(*staleness);
            put_wrows(buf, rows);
        }
    }
}

/// Encodes a count-prefixed weighted-row list (the `ReadOk` row layout
/// without its presence flag).
fn put_wrows(buf: &mut Vec<u8>, rows: &[WRow]) {
    buf.put_u32_le(rows.len() as u32);
    for (row, w) in rows {
        put_row(buf, row);
        buf.put_i64_le(*w);
    }
}

/// Decodes a count-prefixed weighted-row list.
fn get_wrows(r: &mut Reader<'_>) -> Result<Vec<WRow>, EngineError> {
    // A weighted row takes at least its arity and weight.
    (0..r.count(4 + 8, "row count")?)
        .map(|_| Ok((r.row()?, r.i64("row weight")?)))
        .collect()
}

/// Decodes a response payload. Every failure is a typed
/// [`EngineError::Corrupt`]; never panics.
pub fn decode_response(payload: &[u8]) -> Result<Response, EngineError> {
    let mut r = Reader::new(payload, "response");
    let resp = match r.u8("kind")? {
        0 => Response::Pong,
        1 => Response::SubmitOk {
            accepted: r.u64("submit-ok")?,
        },
        2 => Response::ReadOk(WireReadResult {
            fresh: r.flag("read-ok header")?,
            lag: r.u64("read-ok header")?,
            flush_cost: r.f64("read-ok header")?,
            violated: r.flag("read-ok header")?,
            degraded: r.flag("read-ok header")?,
            checksum: r.u64("read-ok header")?,
            rows: match r.u8("rows flag")? {
                0 => None,
                1 => Some(get_wrows(&mut r)?),
                other => return Err(r.corrupt(format!("rows flag {other}"))),
            },
        }),
        3 => {
            let mut m = NetMetrics {
                events_ingested: r.u64("metrics")?,
                ticks: r.u64("metrics")?,
                flush_count: r.u64("metrics")?,
                total_flush_cost: r.f64("metrics")?,
                fresh_reads: r.u64("metrics")?,
                stale_reads: r.u64("metrics")?,
                snapshot_reads: r.u64("metrics")?,
                constraint_violations: r.u64("metrics")?,
                policy_demotions: r.u64("metrics")?,
                recalibrations: r.u64("metrics")?,
                degraded: r.flag("metrics")?,
                queue_depth: r.u64("metrics")?,
                max_queue_depth: r.u64("metrics")?,
                shed_events: r.u64("metrics")?,
                ingest_errors: r.u64("metrics")?,
                wal_records: r.u64("metrics")?,
                wal_fsync_lag: r.u64("metrics")?,
                wal_sync_every: r.u64("metrics")?,
                connections_active: r.u64("metrics")?,
                connections_total: r.u64("metrics")?,
                connections_rejected: r.u64("metrics")?,
                requests: r.u64("metrics")?,
                submitted_events: r.u64("metrics")?,
                overload_rejections: r.u64("metrics")?,
                deadline_rejections: r.u64("metrics")?,
                shards: r.u64("metrics")?,
                shards_live: r.u64("metrics")?,
                staleness_max: r.u64("metrics")?,
                budget: r.f64("metrics")?,
                budget_rebalances: r.u64("metrics")?,
                failovers: r.u64("metrics")?,
                cluster_epoch: r.u64("metrics")?,
                replica_lag_max: r.u64("metrics")?,
                views: r.u64("metrics")?,
                subscribers: r.u64("metrics")?,
                deltas_pushed: r.u64("metrics")?,
                sub_lag_max: r.u64("metrics")?,
                last_error: None,
                per_shard: None,
                per_view: None,
            };
            r.bytes(RETIRED_METRICS_LEN, "metrics")?;
            m.last_error = match r.u8("metrics error flag")? {
                0 => None,
                1 => Some(r.str()?.to_string()),
                other => return Err(r.corrupt(format!("error flag {other}"))),
            };
            m.per_shard = match r.u8("metrics shard flag")? {
                0 => None,
                // Each row is 70 fixed bytes.
                1 => Some(
                    (0..r.count(4 + 2 + 8 * 8, "shard row count")?)
                        .map(|_| {
                            Ok(ShardMetricsRow {
                                shard: r.u32("shard row")?,
                                live: r.flag("shard row")?,
                                events_ingested: r.u64("shard row")?,
                                queue_depth: r.u64("shard row")?,
                                flush_count: r.u64("shard row")?,
                                total_flush_cost: r.f64("shard row")?,
                                budget: r.f64("shard row")?,
                                staleness: r.u64("shard row")?,
                                epoch: r.u64("shard row")?,
                                replica_lag: r.u64("shard row")?,
                                health: r.u8("shard row")?,
                            })
                        })
                        .collect::<Result<_, EngineError>>()?,
                ),
                other => return Err(r.corrupt(format!("shard flag {other}"))),
            };
            m.per_view = match r.u8("metrics view flag")? {
                0 => None,
                // Each row is 56 fixed bytes.
                1 => Some(
                    (0..r.count(4 + 4 + 6 * 8, "view row count")?)
                        .map(|_| {
                            Ok(ViewMetricsRow {
                                view: r.u32("view row")?,
                                group: r.u32("view row")?,
                                flushes: r.u64("view row")?,
                                pending: r.u64("view row")?,
                                violations: r.u64("view row")?,
                                deltas_pushed: r.u64("view row")?,
                                subscribers: r.u64("view row")?,
                                sub_lag_max: r.u64("view row")?,
                            })
                        })
                        .collect::<Result<_, EngineError>>()?,
                ),
                other => return Err(r.corrupt(format!("view flag {other}"))),
            };
            Response::MetricsOk(Box::new(m))
        }
        4 => Response::FlushOk {
            flush_cost: r.f64("flush-ok")?,
            violated: r.flag("flush-ok")?,
        },
        5 => {
            let raw = r.u8("error code")?;
            let code =
                ErrorCode::from_u8(raw).ok_or_else(|| r.corrupt(format!("error code {raw}")))?;
            Response::Error {
                code,
                message: r.str()?.to_string(),
            }
        }
        6 => Response::WalSegment {
            epoch: r.u64("wal-segment header")?,
            from_record: r.u64("wal-segment header")?,
            leader_records: r.u64("wal-segment header")?,
            bytes: {
                let len = r.u32("wal-segment header")? as usize;
                r.bytes(len, "wal-segment bytes")?.to_vec()
            },
        },
        7 => Response::SubscribeOk {
            view: r.u32("subscribe-ok header")?,
            seq: r.u64("subscribe-ok header")?,
            resync: r.flag("subscribe-ok header")?,
            checksum: r.u64("subscribe-ok header")?,
            rows: get_wrows(&mut r)?,
        },
        8 => Response::ViewDelta {
            view: r.u32("view-delta header")?,
            seq: r.u64("view-delta header")?,
            checksum: r.u64("view-delta header")?,
            staleness: r.u64("view-delta header")?,
            rows: get_wrows(&mut r)?,
        },
        other => return Err(r.corrupt(format!("response kind {other}"))),
    };
    r.finish()?;
    Ok(resp)
}

/// Sends one request frame.
pub fn send_request<W: Write>(w: &mut W, f: &RequestFrame) -> std::io::Result<()> {
    send(w, |b| put_request(b, f))
}

/// Receives one request frame.
pub fn recv_request<R: Read>(r: &mut R) -> Result<RequestFrame, FrameError> {
    let payload = read_frame(r)?;
    decode_request_ref(&payload)
        .and_then(|f| f.to_owned_frame())
        .map_err(FrameError::Corrupt)
}

/// Sends one response frame.
pub fn send_response<W: Write>(w: &mut W, resp: &Response) -> std::io::Result<()> {
    send(w, |b| put_response(b, resp))
}

/// Receives one response frame.
pub fn recv_response<R: Read>(r: &mut R) -> Result<Response, FrameError> {
    decode_response(&read_frame(r)?).map_err(FrameError::Corrupt)
}

/// An incremental frame parser over a growable read buffer.
///
/// The blocking path ([`read_frame`]) owns the socket and can call
/// `read_exact`; an event-loop server cannot — it gets whatever bytes
/// `read` returns at readiness, which may be half a header, three
/// frames and a torn fourth, or one byte. `FrameBuffer` accumulates
/// those bytes and yields complete validated frames *in place*: the
/// payload [`Range`](std::ops::Range) returned by [`next_frame`]
/// borrows the buffer directly (resolve it with [`payload`]), so a
/// Submit batch is decoded zero-copy straight out of the connection's
/// read buffer.
///
/// [`next_frame`]: FrameBuffer::next_frame
/// [`payload`]: FrameBuffer::payload
///
/// The torn-vs-corrupt taxonomy of the blocking path is preserved:
/// * incomplete bytes → `Ok(None)` (wait for more); EOF while
///   [`mid_frame`](FrameBuffer::mid_frame) is true is the caller's torn
///   frame,
/// * EOF with an empty buffer is a clean [`FrameError::Closed`],
/// * oversized length or checksum mismatch → [`FrameError::Corrupt`]
///   (the stream cannot be resynchronised; drop the connection).
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    start: usize,
}

/// Bytes requested from the socket per [`FrameBuffer::fill_from`] call.
const READ_CHUNK: usize = 64 * 1024;

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> FrameBuffer {
        FrameBuffer::default()
    }

    /// Unparsed bytes currently buffered.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// True when buffered bytes form a partial frame (or handshake) —
    /// EOF now means the peer died mid-message, not a clean close.
    pub fn mid_frame(&self) -> bool {
        self.buffered() > 0
    }

    /// Discards already-consumed bytes so the buffer only holds the
    /// unparsed tail. Invalidates any outstanding payload range.
    fn compact(&mut self) {
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }

    /// Performs **one** `read` call into the buffer, first compacting
    /// away consumed bytes. Returns the byte count (`Ok(0)` = EOF);
    /// `WouldBlock` and friends surface as errors for the caller's
    /// readiness loop. Invalidates any outstanding payload range.
    pub fn fill_from<R: Read>(&mut self, r: &mut R) -> std::io::Result<usize> {
        self.compact();
        let len = self.buf.len();
        self.buf.resize(len + READ_CHUNK, 0);
        let result = r.read(&mut self.buf[len..]);
        self.buf.truncate(len + *result.as_ref().unwrap_or(&0));
        result
    }

    /// Appends raw bytes (test harnesses and in-memory transports).
    /// Invalidates any outstanding payload range.
    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// Consumes exactly `n` buffered bytes if available (the fixed-size
    /// handshake hello), without frame validation.
    pub fn take(&mut self, n: usize) -> Option<&[u8]> {
        if self.buffered() < n {
            return None;
        }
        let s = self.start;
        self.start += n;
        Some(&self.buf[s..self.start])
    }

    /// Tries to parse the next complete frame. `Ok(Some(range))` is the
    /// payload's position in the buffer — resolve with
    /// [`payload`](FrameBuffer::payload); the range stays valid until
    /// the next `fill_from`/`extend_from_slice`. `Ok(None)` means more
    /// bytes are needed. Length and checksum validation matches
    /// [`read_frame`] exactly.
    pub fn next_frame(&mut self) -> Result<Option<std::ops::Range<usize>>, FrameError> {
        let Split::Frame(payload) = split_wire(&self.buf[self.start..])? else {
            return Ok(None);
        };
        let start = self.start + FRAME_HEADER_LEN;
        self.start = start + payload.len();
        Ok(Some(start..self.start))
    }

    /// Resolves a range returned by [`next_frame`](FrameBuffer::next_frame).
    pub fn payload(&self, range: std::ops::Range<usize>) -> &[u8] {
        &self.buf[range]
    }
}

/// A Submit batch borrowing its modification bytes from the frame
/// payload. Produced fully validated by [`decode_request_ref`]: the
/// tag/arity/UTF-8 structure of every modification was checked during
/// the skip-walk, so [`decode_mods_into`](SubmitRef::decode_mods_into)
/// only materializes.
#[derive(Clone, Copy, Debug)]
pub struct SubmitRef<'a> {
    /// The client's view of the target shard's fencing epoch (0 =
    /// skip the check).
    pub epoch: u64,
    /// Base-table position within the view.
    pub table: u32,
    /// Number of modifications in [`mods`](SubmitRef::mods).
    pub count: u32,
    mods: &'a [u8],
}

impl<'a> SubmitRef<'a> {
    /// The raw encoded modification bytes (structurally validated).
    pub fn mods(&self) -> &'a [u8] {
        self.mods
    }

    /// Materializes the batch into `out` (appending). The engine's
    /// `Modification` holds `Arc`ed rows, so this is where the payload's
    /// only per-row allocations happen — at ingest, not at decode.
    pub fn decode_mods_into(&self, out: &mut Vec<Modification>) -> Result<(), EngineError> {
        let mut r = Reader::new(self.mods, "request");
        out.reserve(self.count as usize);
        for _ in 0..self.count {
            out.push(r.modification()?);
        }
        Ok(())
    }
}

/// The zero-copy twin of [`Request`]: Submit payload bytes stay
/// borrowed from the read buffer.
#[derive(Clone, Copy, Debug)]
pub enum RequestRef<'a> {
    /// Liveness probe.
    Ping,
    /// Ingest a batch of DML (payload borrowed, pre-validated).
    Submit(SubmitRef<'a>),
    /// Read a view.
    Read {
        /// Registry view id (0 on a single-view server).
        view: u32,
        /// Fresh (flush-then-read, ≤ C) or stale (free).
        fresh: bool,
        /// Return materialized rows, not just the checksum.
        want_rows: bool,
    },
    /// Fetch a metrics snapshot.
    Metrics {
        /// Also return the per-shard breakdown rows.
        per_shard: bool,
        /// Also return the per-view breakdown rows.
        per_view: bool,
    },
    /// Force a full flush.
    Flush,
    /// Poll a shard leader's WAL tail (replication).
    ReplicaSubscribe {
        /// Shard slot whose WAL tail to read.
        shard: u32,
        /// First record index wanted.
        from_record: u64,
    },
    /// Open a live push subscription on a registry view.
    Subscribe {
        /// Registry view id.
        view: u32,
        /// First delta seq wanted; `u64::MAX` = from the current
        /// snapshot.
        from_seq: u64,
    },
    /// Close a push subscription on a view.
    Unsubscribe {
        /// Registry view id.
        view: u32,
    },
}

/// A borrowed request plus its deadline budget — what
/// [`decode_request_ref`] yields straight out of a [`FrameBuffer`].
#[derive(Clone, Copy, Debug)]
pub struct RequestRefFrame<'a> {
    /// Milliseconds of deadline budget remaining at send time
    /// (0 = no deadline).
    pub deadline_ms: u32,
    /// The operation.
    pub request: RequestRef<'a>,
}

impl RequestRefFrame<'_> {
    /// Materializes into the owned [`RequestFrame`]. Cannot fail in
    /// practice — the payload was validated by [`decode_request_ref`] —
    /// but decoding is fallible by type.
    pub fn to_owned_frame(&self) -> Result<RequestFrame, EngineError> {
        let request = match self.request {
            RequestRef::Ping => Request::Ping,
            RequestRef::Submit(s) => {
                let mut mods = Vec::new();
                s.decode_mods_into(&mut mods)?;
                Request::Submit {
                    epoch: s.epoch,
                    table: s.table,
                    mods,
                }
            }
            RequestRef::Read {
                view,
                fresh,
                want_rows,
            } => Request::Read {
                view,
                fresh,
                want_rows,
            },
            RequestRef::Metrics {
                per_shard,
                per_view,
            } => Request::Metrics {
                per_shard,
                per_view,
            },
            RequestRef::Flush => Request::Flush,
            RequestRef::ReplicaSubscribe { shard, from_record } => {
                Request::ReplicaSubscribe { shard, from_record }
            }
            RequestRef::Subscribe { view, from_seq } => Request::Subscribe { view, from_seq },
            RequestRef::Unsubscribe { view } => Request::Unsubscribe { view },
        };
        Ok(RequestFrame {
            deadline_ms: self.deadline_ms,
            request,
        })
    }
}

/// Decodes a request payload **without copying or allocating**: the
/// Submit body stays a borrowed, structurally validated byte slice
/// inside the returned [`RequestRefFrame`]. Every failure is a typed
/// [`EngineError::Corrupt`] naming the offset; never panics.
pub fn decode_request_ref(payload: &[u8]) -> Result<RequestRefFrame<'_>, EngineError> {
    let mut r = Reader::new(payload, "request");
    let deadline_ms = r.u32("header")?;
    let request = match r.u8("header")? {
        0 => RequestRef::Ping,
        1 => {
            let epoch = r.u64("submit header")?;
            let table = r.u32("submit header")?;
            // A modification takes at least its tag and row arity.
            let count = r.count(1 + 4, "submit count")?;
            let start = r.position();
            for _ in 0..count {
                r.skip_modification()?;
            }
            RequestRef::Submit(SubmitRef {
                epoch,
                table,
                count: count as u32,
                mods: &payload[start..r.position()],
            })
        }
        2 => RequestRef::Read {
            view: r.u32("read flags")?,
            fresh: r.flag("read flags")?,
            want_rows: r.flag("read flags")?,
        },
        3 => RequestRef::Metrics {
            per_shard: r.flag("metrics flags")?,
            per_view: r.flag("metrics flags")?,
        },
        4 => RequestRef::Flush,
        5 => RequestRef::ReplicaSubscribe {
            shard: r.u32("replica-subscribe")?,
            from_record: r.u64("replica-subscribe")?,
        },
        6 => RequestRef::Subscribe {
            view: r.u32("subscribe")?,
            from_seq: r.u64("subscribe")?,
        },
        7 => RequestRef::Unsubscribe {
            view: r.u32("unsubscribe")?,
        },
        other => return Err(r.corrupt(format!("request kind {other}"))),
    };
    r.finish()?;
    Ok(RequestRefFrame {
        deadline_ms,
        request,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aivm_engine::{Row, Value};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::io::Cursor;

    fn arb_value(rng: &mut SmallRng) -> Value {
        match rng.gen_range(0..4u32) {
            0 => Value::Null,
            1 => Value::Int(rng.gen_range(i64::MIN..i64::MAX)),
            2 => Value::Float(rng.gen_range(-1e9..1e9)),
            _ => {
                let len = rng.gen_range(0..20usize);
                Value::str(
                    (0..len)
                        .map(|_| char::from(rng.gen_range(32u8..127)))
                        .collect::<String>(),
                )
            }
        }
    }

    fn arb_row(rng: &mut SmallRng) -> Row {
        let arity = rng.gen_range(1..6usize);
        Row::new((0..arity).map(|_| arb_value(rng)).collect())
    }

    fn arb_modification(rng: &mut SmallRng) -> Modification {
        match rng.gen_range(0..3u32) {
            0 => Modification::Insert(arb_row(rng)),
            1 => Modification::Delete(arb_row(rng)),
            _ => Modification::Update {
                old: arb_row(rng),
                new: arb_row(rng),
            },
        }
    }

    fn arb_request(rng: &mut SmallRng) -> RequestFrame {
        let request = match rng.gen_range(0..8u32) {
            0 => Request::Ping,
            1 => Request::Submit {
                epoch: rng.gen_range(0..1000u64),
                table: rng.gen_range(0..8u32),
                mods: (0..rng.gen_range(0..10usize))
                    .map(|_| arb_modification(rng))
                    .collect(),
            },
            2 => Request::Read {
                view: rng.gen_range(0..128u32),
                fresh: rng.gen_bool(0.5),
                want_rows: rng.gen_bool(0.5),
            },
            3 => Request::Metrics {
                per_shard: rng.gen_bool(0.5),
                per_view: rng.gen_bool(0.5),
            },
            4 => Request::ReplicaSubscribe {
                shard: rng.gen_range(0..8u32),
                from_record: rng.gen_range(0..u64::MAX),
            },
            5 => Request::Subscribe {
                view: rng.gen_range(0..128u32),
                from_seq: if rng.gen_bool(0.2) {
                    u64::MAX
                } else {
                    rng.gen_range(0..100_000u64)
                },
            },
            6 => Request::Unsubscribe {
                view: rng.gen_range(0..128u32),
            },
            _ => Request::Flush,
        };
        RequestFrame {
            deadline_ms: rng.gen_range(0..100_000u32),
            request,
        }
    }

    fn arb_metrics(rng: &mut SmallRng) -> NetMetrics {
        NetMetrics {
            events_ingested: rng.gen_range(0..u64::MAX),
            ticks: rng.gen_range(0..u64::MAX),
            flush_count: rng.gen_range(0..u64::MAX),
            total_flush_cost: rng.gen_range(0.0..1e12),
            fresh_reads: rng.gen_range(0..u64::MAX),
            stale_reads: rng.gen_range(0..u64::MAX),
            snapshot_reads: rng.gen_range(0..u64::MAX),
            constraint_violations: rng.gen_range(0..u64::MAX),
            policy_demotions: rng.gen_range(0..2u64),
            recalibrations: rng.gen_range(0..9u64),
            degraded: rng.gen_bool(0.5),
            queue_depth: rng.gen_range(0..u64::MAX),
            max_queue_depth: rng.gen_range(0..u64::MAX),
            shed_events: rng.gen_range(0..u64::MAX),
            ingest_errors: rng.gen_range(0..u64::MAX),
            wal_records: rng.gen_range(0..u64::MAX),
            wal_fsync_lag: rng.gen_range(0..u64::MAX),
            wal_sync_every: rng.gen_range(0..u64::MAX),
            connections_active: rng.gen_range(0..u64::MAX),
            connections_total: rng.gen_range(0..u64::MAX),
            connections_rejected: rng.gen_range(0..u64::MAX),
            requests: rng.gen_range(0..u64::MAX),
            submitted_events: rng.gen_range(0..u64::MAX),
            overload_rejections: rng.gen_range(0..u64::MAX),
            deadline_rejections: rng.gen_range(0..u64::MAX),
            shards: rng.gen_range(1..9u64),
            shards_live: rng.gen_range(0..9u64),
            staleness_max: rng.gen_range(0..u64::MAX),
            budget: rng.gen_range(0.0..1e6),
            budget_rebalances: rng.gen_range(0..u64::MAX),
            failovers: rng.gen_range(0..10u64),
            cluster_epoch: rng.gen_range(1..100u64),
            replica_lag_max: rng.gen_range(0..100_000u64),
            views: rng.gen_range(1..200u64),
            subscribers: rng.gen_range(0..1000u64),
            deltas_pushed: rng.gen_range(0..u64::MAX),
            sub_lag_max: rng.gen_range(0..10_000u64),
            last_error: rng
                .gen_bool(0.3)
                .then(|| "scheduler tick failed: boom".to_string()),
            per_shard: rng.gen_bool(0.4).then(|| {
                (0..rng.gen_range(1..5u32))
                    .map(|i| ShardMetricsRow {
                        shard: i,
                        live: rng.gen_bool(0.8),
                        events_ingested: rng.gen_range(0..u64::MAX),
                        queue_depth: rng.gen_range(0..10_000u64),
                        flush_count: rng.gen_range(0..u64::MAX),
                        total_flush_cost: rng.gen_range(0.0..1e9),
                        budget: rng.gen_range(0.0..1e6),
                        staleness: rng.gen_range(0..100_000u64),
                        epoch: rng.gen_range(1..50u64),
                        replica_lag: rng.gen_range(0..100_000u64),
                        health: rng.gen_range(0..3u8),
                    })
                    .collect()
            }),
            per_view: rng.gen_bool(0.4).then(|| {
                (0..rng.gen_range(1..6u32))
                    .map(|i| ViewMetricsRow {
                        view: i,
                        group: rng.gen_range(0..4u32),
                        flushes: rng.gen_range(0..u64::MAX),
                        pending: rng.gen_range(0..100_000u64),
                        violations: rng.gen_range(0..3u64),
                        deltas_pushed: rng.gen_range(0..u64::MAX),
                        subscribers: rng.gen_range(0..100u64),
                        sub_lag_max: rng.gen_range(0..10_000u64),
                    })
                    .collect()
            }),
        }
    }

    fn arb_response(rng: &mut SmallRng) -> Response {
        match rng.gen_range(0..9u32) {
            0 => Response::Pong,
            1 => Response::SubmitOk {
                accepted: rng.gen_range(0..u64::MAX),
            },
            2 => Response::ReadOk(WireReadResult {
                fresh: rng.gen_bool(0.5),
                lag: rng.gen_range(0..1000u64),
                flush_cost: rng.gen_range(0.0..1e6),
                violated: rng.gen_bool(0.1),
                degraded: rng.gen_bool(0.1),
                checksum: rng.gen_range(0..u64::MAX),
                rows: rng.gen_bool(0.6).then(|| {
                    (0..rng.gen_range(0..8usize))
                        .map(|_| (arb_row(rng), rng.gen_range(-5i64..5)))
                        .collect()
                }),
            }),
            3 => Response::MetricsOk(Box::new(arb_metrics(rng))),
            4 => Response::FlushOk {
                flush_cost: rng.gen_range(0.0..1e6),
                violated: rng.gen_bool(0.1),
            },
            5 => Response::WalSegment {
                epoch: rng.gen_range(1..50u64),
                from_record: rng.gen_range(0..10_000u64),
                leader_records: rng.gen_range(0..10_000u64),
                bytes: (0..rng.gen_range(0..64usize))
                    .map(|_| rng.gen_range(0..256u64) as u8)
                    .collect(),
            },
            6 => Response::SubscribeOk {
                view: rng.gen_range(0..128u32),
                seq: rng.gen_range(0..100_000u64),
                resync: rng.gen_bool(0.3),
                checksum: rng.gen_range(0..u64::MAX),
                rows: (0..rng.gen_range(0..8usize))
                    .map(|_| (arb_row(rng), rng.gen_range(1i64..5)))
                    .collect(),
            },
            7 => Response::ViewDelta {
                view: rng.gen_range(0..128u32),
                seq: rng.gen_range(0..100_000u64),
                checksum: rng.gen_range(0..u64::MAX),
                staleness: rng.gen_range(0..10_000u64),
                rows: (0..rng.gen_range(0..8usize))
                    .map(|_| (arb_row(rng), rng.gen_range(-5i64..5)))
                    .collect(),
            },
            _ => Response::Error {
                code: ErrorCode::from_u8(rng.gen_range(0..7u8)).unwrap(),
                message: "typed failure".into(),
            },
        }
    }

    #[test]
    fn request_roundtrip_property() {
        let mut rng = SmallRng::seed_from_u64(0xA1_51);
        for _ in 0..300 {
            let f = arb_request(&mut rng);
            let enc = encode_request(&f);
            let got = decode_request_ref(&enc).unwrap();
            assert_eq!(got.to_owned_frame().unwrap(), f);
        }
    }

    #[test]
    fn response_roundtrip_property() {
        let mut rng = SmallRng::seed_from_u64(0xA1_52);
        for _ in 0..300 {
            let r = arb_response(&mut rng);
            let enc = encode_response(&r);
            assert_eq!(decode_response(&enc).unwrap(), r);
        }
    }

    #[test]
    fn every_truncation_is_a_typed_error_never_a_panic() {
        // Mirrors the WAL's torn-tail tests: a strict prefix of any
        // valid payload must decode to EngineError::Corrupt — no panic,
        // no silent reinterpretation as a different complete message.
        let mut rng = SmallRng::seed_from_u64(0xA1_53);
        for _ in 0..40 {
            let enc = encode_request(&arb_request(&mut rng));
            for cut in 0..enc.len() {
                match decode_request_ref(&enc[..cut]) {
                    Err(EngineError::Corrupt { offset, .. }) => {
                        assert!(offset <= cut as u64);
                    }
                    other => panic!("prefix {cut}/{} decoded to {other:?}", enc.len()),
                }
            }
            let enc = encode_response(&arb_response(&mut rng));
            for cut in 0..enc.len() {
                match decode_response(&enc[..cut]) {
                    Err(EngineError::Corrupt { offset, .. }) => {
                        assert!(offset <= cut as u64);
                    }
                    other => panic!("prefix {cut}/{} decoded to {other:?}", enc.len()),
                }
            }
        }
    }

    #[test]
    fn corrupted_payload_bytes_never_panic_the_decoders() {
        // Byte flips below the frame checksum's protection: the decoder
        // must return (Ok with altered content, or a typed error), never
        // panic — the guarantee the server leans on before trusting any
        // client bytes.
        let mut rng = SmallRng::seed_from_u64(0xA1_54);
        for _ in 0..40 {
            let mut enc = encode_request(&arb_request(&mut rng));
            for i in 0..enc.len() {
                let orig = enc[i];
                enc[i] = orig.wrapping_add(rng.gen_range(1..255u8));
                let _ = decode_request_ref(&enc).and_then(|f| f.to_owned_frame());
                enc[i] = orig;
            }
            let mut enc = encode_response(&arb_response(&mut rng));
            for i in 0..enc.len() {
                let orig = enc[i];
                enc[i] = orig.wrapping_add(rng.gen_range(1..255u8));
                let _ = decode_response(&enc);
                enc[i] = orig;
            }
        }
    }

    #[test]
    fn frame_layer_detects_flipped_bytes() {
        let payload = encode_request(&RequestFrame {
            deadline_ms: 250,
            request: Request::Metrics {
                per_shard: false,
                per_view: false,
            },
        });
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        // Flip every payload byte in turn: the checksum must catch it.
        for i in FRAME_HEADER_LEN..wire.len() {
            let mut bad = wire.clone();
            bad[i] ^= 0x40;
            match read_frame(&mut Cursor::new(bad)) {
                Err(FrameError::Corrupt(EngineError::Corrupt { message, .. })) => {
                    assert!(message.contains("checksum"), "got {message}");
                }
                other => panic!("flip at {i}: {other:?}"),
            }
        }
        // Flipping checksum bytes in the header is caught the same way;
        // flipping length bytes yields checksum failure, a torn read, or
        // an oversize rejection — an error either way.
        for i in 0..FRAME_HEADER_LEN {
            let mut bad = wire.clone();
            bad[i] ^= 0x40;
            assert!(read_frame(&mut Cursor::new(bad)).is_err(), "flip at {i}");
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        wire.extend_from_slice(&0u64.to_le_bytes());
        match read_frame(&mut Cursor::new(wire)) {
            Err(FrameError::Corrupt(EngineError::Corrupt { message, .. })) => {
                assert!(message.contains("exceeds cap"), "got {message}");
            }
            other => panic!("expected oversize rejection, got {other:?}"),
        }
    }

    #[test]
    fn clean_close_and_torn_frame_are_distinguished() {
        // Empty stream = clean close.
        assert!(matches!(
            read_frame(&mut Cursor::new(Vec::new())),
            Err(FrameError::Closed)
        ));
        // A partial header or partial payload = torn (I/O), not Closed.
        let payload = encode_response(&Response::Pong);
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        for cut in 1..wire.len() {
            match read_frame(&mut Cursor::new(wire[..cut].to_vec())) {
                Err(FrameError::Io(e)) => {
                    assert_eq!(e.kind(), ErrorKind::UnexpectedEof);
                }
                other => panic!("cut at {cut}: {other:?}"),
            }
        }
    }

    #[test]
    fn frames_stream_back_to_back() {
        let reqs: Vec<RequestFrame> = {
            let mut rng = SmallRng::seed_from_u64(0xA1_55);
            (0..20).map(|_| arb_request(&mut rng)).collect()
        };
        let mut wire = Vec::new();
        for f in &reqs {
            send_request(&mut wire, f).unwrap();
        }
        let mut cursor = Cursor::new(wire);
        for f in &reqs {
            assert_eq!(&recv_request(&mut cursor).unwrap(), f);
        }
        assert!(matches!(recv_request(&mut cursor), Err(FrameError::Closed)));
    }

    #[test]
    fn handshake_roundtrip_and_rejections() {
        let mut wire = Vec::new();
        write_hello(&mut wire).unwrap();
        assert_eq!(read_hello(&mut Cursor::new(wire)).unwrap(), NET_VERSION);

        for status in [
            HandshakeStatus::Ok,
            HandshakeStatus::Overloaded,
            HandshakeStatus::VersionMismatch,
        ] {
            let mut wire = Vec::new();
            write_hello_reply(&mut wire, status).unwrap();
            assert_eq!(read_hello_reply(&mut Cursor::new(wire)).unwrap(), status);
        }

        // Wrong magic is corrupt, both directions.
        let bad = b"NOPE\x01\x00".to_vec();
        assert!(matches!(
            read_hello(&mut Cursor::new(bad)),
            Err(FrameError::Corrupt(_))
        ));
        let bad = b"NOPE\x01\x00\x00".to_vec();
        assert!(matches!(
            read_hello_reply(&mut Cursor::new(bad)),
            Err(FrameError::Corrupt(_))
        ));
        // A future server version is surfaced as corrupt (the client
        // cannot trust the rest of the byte stream).
        let mut wire = Vec::new();
        wire.extend_from_slice(NET_MAGIC);
        wire.extend_from_slice(&(NET_VERSION + 1).to_le_bytes());
        wire.push(0);
        assert!(read_hello_reply(&mut Cursor::new(wire)).is_err());
    }

    #[test]
    fn frame_buffer_decodes_identically_across_arbitrary_chunk_boundaries() {
        // The event-loop server sees TCP bytes at arbitrary boundaries:
        // half a header, three frames coalesced, one byte at a time.
        // Property: however a valid multi-frame stream is sliced into
        // chunks, the FrameBuffer yields exactly the frames sent.
        let mut rng = SmallRng::seed_from_u64(0xA1_60);
        for _ in 0..40 {
            let reqs: Vec<RequestFrame> = (0..rng.gen_range(1..10usize))
                .map(|_| arb_request(&mut rng))
                .collect();
            let mut wire = Vec::new();
            for f in &reqs {
                send_request(&mut wire, f).unwrap();
            }
            let mut fb = FrameBuffer::new();
            let mut decoded = Vec::new();
            let mut pos = 0;
            while pos < wire.len() {
                // Mix tiny (split) and large (coalescing) chunks.
                let cap = (wire.len() - pos).min(if rng.gen_bool(0.5) { 3 } else { 64 });
                let n = rng.gen_range(1..=cap.max(1));
                fb.extend_from_slice(&wire[pos..pos + n]);
                pos += n;
                while let Some(range) = fb.next_frame().unwrap() {
                    let f = decode_request_ref(fb.payload(range)).unwrap();
                    decoded.push(f.to_owned_frame().unwrap());
                }
            }
            assert_eq!(decoded, reqs);
            // Stream fully consumed at a frame boundary: a close here
            // is clean, not torn.
            assert!(!fb.mid_frame());
        }
    }

    #[test]
    fn frame_buffer_preserves_torn_vs_corrupt_taxonomy() {
        let payload = encode_request(&RequestFrame {
            deadline_ms: 99,
            request: Request::Metrics {
                per_shard: false,
                per_view: false,
            },
        });
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();

        // Every strict prefix: incomplete (Ok(None)) with mid_frame()
        // true — EOF here is the caller's torn frame, never Corrupt.
        for cut in 1..wire.len() {
            let mut fb = FrameBuffer::new();
            fb.extend_from_slice(&wire[..cut]);
            assert!(fb.next_frame().unwrap().is_none(), "cut at {cut}");
            assert!(fb.mid_frame(), "cut at {cut}");
        }

        // Flipped payload bytes: checksum catches them as Corrupt.
        for i in FRAME_HEADER_LEN..wire.len() {
            let mut bad = wire.clone();
            bad[i] ^= 0x40;
            let mut fb = FrameBuffer::new();
            fb.extend_from_slice(&bad);
            match fb.next_frame() {
                Err(FrameError::Corrupt(EngineError::Corrupt { message, .. })) => {
                    assert!(message.contains("checksum"), "got {message}");
                }
                other => panic!("flip at {i}: {other:?}"),
            }
        }

        // Oversized length prefix: rejected before buffering the
        // claimed payload.
        let mut fb = FrameBuffer::new();
        let mut bad = Vec::new();
        bad.extend_from_slice(&u32::MAX.to_le_bytes());
        bad.extend_from_slice(&0u64.to_le_bytes());
        fb.extend_from_slice(&bad);
        match fb.next_frame() {
            Err(FrameError::Corrupt(EngineError::Corrupt { message, .. })) => {
                assert!(message.contains("exceeds cap"), "got {message}");
            }
            other => panic!("expected oversize rejection, got {other:?}"),
        }
    }

    #[test]
    fn frame_buffer_fill_from_reads_incrementally() {
        // fill_from does one read per call and tolerates a reader that
        // returns one byte at a time.
        struct OneByte(Cursor<Vec<u8>>);
        impl Read for OneByte {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let n = 1.min(buf.len());
                self.0.read(&mut buf[..n])
            }
        }
        let f = RequestFrame {
            deadline_ms: 7,
            request: Request::Read {
                view: 0,
                fresh: true,
                want_rows: false,
            },
        };
        let mut wire = Vec::new();
        send_request(&mut wire, &f).unwrap();
        let total = wire.len();
        let mut r = OneByte(Cursor::new(wire));
        let mut fb = FrameBuffer::new();
        let mut seen = None;
        for _ in 0..total {
            assert_eq!(fb.fill_from(&mut r).unwrap(), 1);
            if let Some(range) = fb.next_frame().unwrap() {
                let f = decode_request_ref(fb.payload(range)).unwrap();
                seen = Some(f.to_owned_frame().unwrap());
            }
        }
        assert_eq!(seen, Some(f));
        assert_eq!(fb.fill_from(&mut r).unwrap(), 0); // clean EOF
        assert!(!fb.mid_frame());
    }

    #[test]
    fn frame_buffer_take_serves_the_fixed_size_hello() {
        let mut wire = Vec::new();
        write_hello(&mut wire).unwrap();
        let mut fb = FrameBuffer::new();
        fb.extend_from_slice(&wire[..3]);
        assert!(fb.take(6).is_none()); // incomplete hello
        fb.extend_from_slice(&wire[3..]);
        let hello = fb.take(6).unwrap();
        assert_eq!(&hello[..4], NET_MAGIC);
        assert_eq!(u16::from_le_bytes([hello[4], hello[5]]), NET_VERSION);
        assert!(!fb.mid_frame());
    }

    #[test]
    fn error_code_taxonomy_roundtrip_and_retry_safety() {
        for code in [
            ErrorCode::Overloaded,
            ErrorCode::DeadlineExceeded,
            ErrorCode::BadRequest,
            ErrorCode::Unavailable,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::from_u8(code.as_u8()), Some(code));
            // Only overload rejections happen provably before side
            // effects, so only they are submit-retry-safe.
            assert_eq!(code.is_retry_safe(), code == ErrorCode::Overloaded);
        }
        // The sharded rejections are also pre-admission: the router
        // checks liveness/epoch before enqueueing anything.
        for code in [ErrorCode::ShardUnavailable, ErrorCode::StaleEpoch] {
            assert_eq!(ErrorCode::from_u8(code.as_u8()), Some(code));
            assert!(code.is_retry_safe());
        }
        assert_eq!(ErrorCode::from_u8(99), None);
        assert!(Request::Ping.is_idempotent());
        assert!(Request::ReplicaSubscribe {
            shard: 0,
            from_record: 0
        }
        .is_idempotent());
        assert!(!Request::Submit {
            epoch: 0,
            table: 0,
            mods: vec![]
        }
        .is_idempotent());
    }
}
