//! `aivm-client` — the client side of the `aivm-net` wire protocol.
//!
//! A [`Client`] owns a small pool of TCP connections to one server and
//! gives every request three behaviours the raw protocol leaves to the
//! caller:
//!
//! * **Deadline propagation** — each request runs under one deadline
//!   budget ([`ClientConfig::deadline`]). The *remaining* budget at
//!   send time rides the wire in `deadline_ms` (so the server refuses
//!   work the client has already given up on), bounds the socket
//!   connect/read timeouts, and caps retry backoff sleeps. When the
//!   budget is spent, the call returns
//!   [`ClientError::DeadlineExceeded`] — it never blocks past it.
//! * **Bounded retries with jittered backoff** — transient failures
//!   retry up to [`ClientConfig::retries`] times, sleeping
//!   `base × 2^attempt × uniform(0.5, 1.0)` between attempts (seeded,
//!   so test runs are reproducible). What counts as transient depends
//!   on idempotency: reads, pings, metrics and flushes retry on any
//!   transport error or server `Overloaded`; a **submit** retries
//!   *only* on rejections the server guarantees happened before any
//!   side effect (`Overloaded`, connection-cap handshake rejections,
//!   dial failures) — a transport error mid-submit is returned to the
//!   caller, because retrying could double-apply the batch.
//! * **Connection pooling** — completed requests return their
//!   connection to a bounded pool; any error discards it (a failed
//!   stream cannot be resynchronised). Pool checkout is cheap enough to
//!   share one `Client` across threads (`&self` methods, internal
//!   locking).
//! * **A circuit breaker** — after [`ClientConfig::breaker_threshold`]
//!   consecutive transport-level failures the endpoint is presumed
//!   down and requests fail fast with [`ClientError::CircuitOpen`]
//!   (no dial, no deadline burned) until a jittered cooldown elapses;
//!   then exactly one request is let through as a half-open probe —
//!   its outcome closes or re-opens the circuit. Typed server
//!   rejections (`Overloaded`, `StaleEpoch`, ...) prove the endpoint
//!   alive and never trip the breaker.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use aivm_engine::{EngineError, Modification, WRow};
use aivm_net::{
    read_hello_reply, recv_response, send_request, write_hello, ErrorCode, FrameError,
    HandshakeStatus, NetMetrics, Request, RequestFrame, Response, WireReadResult,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Client behaviour knobs.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Per-request deadline budget (connect + queue + retries + reply).
    pub deadline: Duration,
    /// Retries after the first attempt (0 = fail fast).
    pub retries: u32,
    /// Base backoff before the first retry; doubles per attempt.
    pub backoff: Duration,
    /// Cap on a single backoff sleep.
    pub max_backoff: Duration,
    /// Idle connections kept pooled (further ones are closed on
    /// return).
    pub pool: usize,
    /// Seed for backoff jitter (reproducible retry schedules).
    pub seed: u64,
    /// Consecutive transport failures that open the circuit breaker
    /// (`0` disables it).
    pub breaker_threshold: u32,
    /// How long an open circuit rejects before letting a half-open
    /// probe through (jittered `× uniform(0.5, 1.0)` per trip, like
    /// retry backoff, so a fleet of clients does not re-probe in sync).
    pub breaker_cooldown: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            deadline: Duration::from_secs(5),
            retries: 3,
            backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(200),
            pool: 2,
            seed: 0,
            breaker_threshold: 0,
            breaker_cooldown: Duration::from_millis(100),
        }
    }
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure after retries (or on a non-retryable request).
    Io(std::io::Error),
    /// The byte stream failed validation; the connection was dropped.
    Protocol(EngineError),
    /// The server answered with a typed error frame.
    Rejected {
        /// The taxonomy bucket.
        code: ErrorCode,
        /// Server-provided detail.
        message: String,
    },
    /// The handshake was refused (server at its connection cap after
    /// retries, or a protocol version mismatch).
    Handshake(HandshakeStatus),
    /// The deadline budget was spent before a reply arrived.
    DeadlineExceeded,
    /// The server replied with a frame of the wrong kind.
    UnexpectedResponse(&'static str),
    /// The circuit breaker is open: recent consecutive transport
    /// failures marked the endpoint down, and the cooldown has not
    /// elapsed. Nothing was sent.
    CircuitOpen,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol: {e}"),
            ClientError::Rejected { code, message } => write!(f, "rejected ({code}): {message}"),
            ClientError::Handshake(s) => write!(f, "handshake refused: {s:?}"),
            ClientError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ClientError::UnexpectedResponse(what) => write!(f, "unexpected response: {what}"),
            ClientError::CircuitOpen => write!(f, "circuit open: endpoint presumed down"),
        }
    }
}

impl std::error::Error for ClientError {}

impl ClientError {
    /// True when the failure is the server saying "not now" — the
    /// overload signals a load generator counts apart from hard errors.
    pub fn is_overload(&self) -> bool {
        matches!(
            self,
            ClientError::Rejected {
                code: ErrorCode::Overloaded,
                ..
            } | ClientError::Handshake(HandshakeStatus::Overloaded)
        )
    }

    /// True when a sharded server rejected the request because its
    /// owning shard is down. Guaranteed to precede any side effect, so
    /// retrying is safe — and useful, since a killed shard may rejoin
    /// after recovery.
    pub fn is_shard_unavailable(&self) -> bool {
        matches!(
            self,
            ClientError::Rejected {
                code: ErrorCode::ShardUnavailable,
                ..
            }
        )
    }

    /// True when a sharded server rejected a submit because it was
    /// stamped with a pre-failover epoch. Guaranteed to precede any
    /// side effect; refresh the epoch (from `Metrics`) and retry.
    pub fn is_stale_epoch(&self) -> bool {
        matches!(
            self,
            ClientError::Rejected {
                code: ErrorCode::StaleEpoch,
                ..
            }
        )
    }
}

/// Retry counters, for load-run summaries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Retries triggered by `Overloaded` rejections (frame or
    /// handshake).
    pub overload_retries: u64,
    /// Retries triggered by transport errors (idempotent requests and
    /// pre-send dial failures only).
    pub transport_retries: u64,
    /// Times the circuit breaker tripped open.
    pub breaker_trips: u64,
    /// Requests rejected fast with [`ClientError::CircuitOpen`].
    pub breaker_rejections: u64,
}

/// Circuit-breaker state (see the crate docs).
enum BreakerState {
    /// Normal service; counts consecutive transport failures.
    Closed { fails: u32 },
    /// Failing fast until the cooldown elapses.
    Open { until: Instant },
    /// One probe request is in flight; its outcome decides.
    HalfOpen,
}

/// A pooled, deadline-aware connection to one `aivm-net` server. Share
/// by reference across threads; all methods take `&self`.
pub struct Client {
    addr: SocketAddr,
    cfg: ClientConfig,
    pool: Mutex<Vec<TcpStream>>,
    rng: Mutex<SmallRng>,
    overload_retries: AtomicU64,
    transport_retries: AtomicU64,
    breaker: Mutex<BreakerState>,
    breaker_trips: AtomicU64,
    breaker_rejections: AtomicU64,
}

impl Client {
    /// Creates a client for `addr`. No connection is opened until the
    /// first request.
    pub fn new(addr: impl ToSocketAddrs, cfg: ClientConfig) -> std::io::Result<Client> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::AddrNotAvailable, "no address resolved")
        })?;
        Ok(Client {
            addr,
            rng: Mutex::new(SmallRng::seed_from_u64(cfg.seed)),
            cfg,
            pool: Mutex::new(Vec::new()),
            overload_retries: AtomicU64::new(0),
            transport_retries: AtomicU64::new(0),
            breaker: Mutex::new(BreakerState::Closed { fails: 0 }),
            breaker_trips: AtomicU64::new(0),
            breaker_rejections: AtomicU64::new(0),
        })
    }

    /// Retry counters accumulated over the client's lifetime.
    pub fn retry_stats(&self) -> RetryStats {
        RetryStats {
            overload_retries: self.overload_retries.load(Ordering::Relaxed),
            transport_retries: self.transport_retries.load(Ordering::Relaxed),
            breaker_trips: self.breaker_trips.load(Ordering::Relaxed),
            breaker_rejections: self.breaker_rejections.load(Ordering::Relaxed),
        }
    }

    /// Liveness probe.
    pub fn ping(&self) -> Result<(), ClientError> {
        match self.request(Request::Ping)? {
            Response::Pong => Ok(()),
            _ => Err(ClientError::UnexpectedResponse("expected Pong")),
        }
    }

    /// Submits a DML batch for one base table (position within the
    /// view). Retried only on rejections that provably preceded any
    /// side effect; on success every modification was ingested, in
    /// order.
    pub fn submit(&self, table: u32, mods: Vec<Modification>) -> Result<u64, ClientError> {
        self.submit_fenced(0, table, mods)
    }

    /// [`Client::submit`] stamped with the target shard's fencing
    /// `epoch` (from a prior `Metrics` per-shard row; `0` skips the
    /// check). A sharded server rejects the batch with
    /// [`ErrorCode::StaleEpoch`] *before any side effect* when the
    /// shard has failed over since — the caller refreshes the epoch
    /// and retries safely, and a batch routed through a deposed
    /// leader's view of the cluster is never double-applied.
    pub fn submit_fenced(
        &self,
        epoch: u64,
        table: u32,
        mods: Vec<Modification>,
    ) -> Result<u64, ClientError> {
        match self.request(Request::Submit { epoch, table, mods })? {
            Response::SubmitOk { accepted } => Ok(accepted),
            _ => Err(ClientError::UnexpectedResponse("expected SubmitOk")),
        }
    }

    /// Reads view 0. `fresh` forces a flush-then-read (≤ C);
    /// `want_rows` ships the materialized rows, not just the checksum.
    pub fn read(&self, fresh: bool, want_rows: bool) -> Result<WireReadResult, ClientError> {
        self.read_view(0, fresh, want_rows)
    }

    /// Reads one registry view by id (single-view servers only have
    /// view 0). Stale reads are served wait-free from the published
    /// snapshot; fresh reads flush the view's sharing group first.
    pub fn read_view(
        &self,
        view: u32,
        fresh: bool,
        want_rows: bool,
    ) -> Result<WireReadResult, ClientError> {
        match self.request(Request::Read {
            view,
            fresh,
            want_rows,
        })? {
            Response::ReadOk(r) => Ok(r),
            _ => Err(ClientError::UnexpectedResponse("expected ReadOk")),
        }
    }

    /// Fetches a metrics snapshot (aggregated across shards on a
    /// sharded server).
    pub fn metrics(&self) -> Result<NetMetrics, ClientError> {
        self.metrics_full(false, false)
    }

    /// Fetches a metrics snapshot, optionally including the per-shard
    /// breakdown (`per_shard`; a single-runtime server answers with its
    /// one shard).
    pub fn metrics_detailed(&self, per_shard: bool) -> Result<NetMetrics, ClientError> {
        self.metrics_full(per_shard, false)
    }

    /// Fetches a metrics snapshot with any combination of the per-shard
    /// and per-view breakdowns (the latter only a registry server
    /// fills).
    pub fn metrics_full(&self, per_shard: bool, per_view: bool) -> Result<NetMetrics, ClientError> {
        match self.request(Request::Metrics {
            per_shard,
            per_view,
        })? {
            Response::MetricsOk(m) => Ok(*m),
            _ => Err(ClientError::UnexpectedResponse("expected MetricsOk")),
        }
    }

    /// Forces a full flush, returning `(flush_cost, violated)`.
    pub fn flush(&self) -> Result<(f64, bool), ClientError> {
        match self.request(Request::Flush)? {
            Response::FlushOk {
                flush_cost,
                violated,
            } => Ok((flush_cost, violated)),
            _ => Err(ClientError::UnexpectedResponse("expected FlushOk")),
        }
    }

    /// Opens a live push subscription on a registry view, returning a
    /// blocking [`Subscription`] iterator over
    /// [`SubscriptionEvent`]s.
    ///
    /// `from_seq` is the first delta seq wanted (the subscriber's last
    /// folded seq + 1); [`Client::subscribe_head`] starts from the
    /// current snapshot instead. A `from_seq` the server no longer
    /// holds deltas for degrades to a snapshot resync — the first
    /// event is then a [`SubscriptionEvent::Snapshot`] replacing any
    /// folded state, never an error.
    ///
    /// The subscription rides its own dedicated connection (pushes are
    /// unsolicited frames; pooled request/reply connections never see
    /// them), so dropping the `Subscription` closes it and the server
    /// releases the subscriber slot.
    pub fn subscribe(&self, view: u32, from_seq: u64) -> Result<Subscription, ClientError> {
        let remaining = self.cfg.deadline;
        let mut stream = self.dial(remaining)?;
        let deadline_ms = remaining.as_millis().min(u128::from(u32::MAX)) as u32;
        send_request(
            &mut stream,
            &RequestFrame {
                deadline_ms,
                request: Request::Subscribe { view, from_seq },
            },
        )
        .map_err(ClientError::Io)?;
        match recv_sub_response(&mut stream)? {
            Response::SubscribeOk {
                view: v,
                seq,
                resync,
                checksum,
                rows,
            } => {
                if v != view {
                    return Err(ClientError::UnexpectedResponse(
                        "SubscribeOk for a different view",
                    ));
                }
                let pending = resync.then_some(SubscriptionEvent::Snapshot {
                    view,
                    seq,
                    checksum,
                    rows,
                });
                Ok(Subscription {
                    stream,
                    view,
                    next_seq: seq + 1,
                    pending,
                    done: false,
                })
            }
            Response::Error { code, message } => Err(ClientError::Rejected { code, message }),
            _ => Err(ClientError::UnexpectedResponse("expected SubscribeOk")),
        }
    }

    /// [`Client::subscribe`] starting from the current snapshot: the
    /// first event is always the full state, then deltas follow.
    pub fn subscribe_head(&self, view: u32) -> Result<Subscription, ClientError> {
        self.subscribe(view, u64::MAX)
    }

    /// Runs one request under the deadline/retry/breaker policy
    /// described in the crate docs.
    pub fn request(&self, request: Request) -> Result<Response, ClientError> {
        let started = Instant::now();
        let idempotent = request.is_idempotent();
        let mut attempt = 0u32;
        loop {
            let Some(remaining) = self.cfg.deadline.checked_sub(started.elapsed()) else {
                return Err(ClientError::DeadlineExceeded);
            };
            if remaining.is_zero() {
                return Err(ClientError::DeadlineExceeded);
            }
            if !self.breaker_admit() {
                self.breaker_rejections.fetch_add(1, Ordering::Relaxed);
                return Err(ClientError::CircuitOpen);
            }
            let outcome = self.attempt(&request, remaining);
            match &outcome {
                // Any reply frame — including a typed rejection —
                // proves the endpoint alive.
                Ok(_) | Err(ClientError::Rejected { .. }) => self.breaker_record(true),
                Err(_) => self.breaker_record(false),
            }
            let err = match outcome {
                Ok(resp) => return Ok(resp),
                Err(e) => e,
            };
            // The server guarantees Overloaded and ShardUnavailable
            // rejections precede any side effect (retry-safe for every
            // request kind); a transport failure is only safe to retry
            // when the request is idempotent.
            let overload = err.is_overload();
            let retryable = overload
                || err.is_shard_unavailable()
                || (idempotent && matches!(err, ClientError::Io(_) | ClientError::Protocol(_)));
            attempt += 1;
            if !retryable || attempt > self.cfg.retries {
                return Err(err);
            }
            if overload {
                self.overload_retries.fetch_add(1, Ordering::Relaxed);
            } else {
                self.transport_retries.fetch_add(1, Ordering::Relaxed);
            }
            let sleep = self
                .jittered_backoff(attempt)
                .min(self.cfg.deadline.saturating_sub(started.elapsed()));
            if sleep.is_zero() {
                return Err(ClientError::DeadlineExceeded);
            }
            std::thread::sleep(sleep);
        }
    }

    /// Whether the breaker lets a request through right now. An open
    /// circuit whose cooldown elapsed flips to half-open and admits
    /// exactly this caller as the probe.
    fn breaker_admit(&self) -> bool {
        if self.cfg.breaker_threshold == 0 {
            return true;
        }
        let mut state = self.breaker.lock().unwrap_or_else(|e| e.into_inner());
        match *state {
            BreakerState::Closed { .. } => true,
            BreakerState::Open { until } => {
                if Instant::now() >= until {
                    *state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
            // A probe is already in flight; don't pile on.
            BreakerState::HalfOpen => false,
        }
    }

    /// Feeds one attempt outcome to the breaker. Success (any reply
    /// frame) closes it; a transport failure counts toward the
    /// threshold, and a failed half-open probe re-opens immediately.
    fn breaker_record(&self, success: bool) {
        if self.cfg.breaker_threshold == 0 {
            return;
        }
        let mut state = self.breaker.lock().unwrap_or_else(|e| e.into_inner());
        if success {
            *state = BreakerState::Closed { fails: 0 };
            return;
        }
        let trip = match *state {
            BreakerState::Closed { fails } => {
                let fails = fails + 1;
                if fails >= self.cfg.breaker_threshold {
                    true
                } else {
                    *state = BreakerState::Closed { fails };
                    false
                }
            }
            BreakerState::HalfOpen => true,
            BreakerState::Open { .. } => return,
        };
        if trip {
            let factor = {
                let mut rng = self.rng.lock().unwrap_or_else(|e| e.into_inner());
                rng.gen_range(0.5..1.0)
            };
            *state = BreakerState::Open {
                until: Instant::now() + self.cfg.breaker_cooldown.mul_f64(factor),
            };
            self.breaker_trips.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// `base × 2^(attempt-1) × uniform(0.5, 1.0)`, capped.
    fn jittered_backoff(&self, attempt: u32) -> Duration {
        let factor = {
            let mut rng = self.rng.lock().unwrap_or_else(|e| e.into_inner());
            rng.gen_range(0.5..1.0)
        };
        let base = self
            .cfg
            .backoff
            .saturating_mul(1u32 << (attempt - 1).min(16))
            .min(self.cfg.max_backoff);
        base.mul_f64(factor)
    }

    /// One attempt: checkout (or dial), send with the remaining budget
    /// on the wire, await the reply within it.
    fn attempt(&self, request: &Request, remaining: Duration) -> Result<Response, ClientError> {
        let mut stream = self.checkout(remaining)?;
        let deadline_ms = remaining.as_millis().min(u128::from(u32::MAX)) as u32;
        stream
            .set_read_timeout(Some(remaining))
            .and_then(|()| stream.set_write_timeout(Some(remaining)))
            .map_err(ClientError::Io)?;
        let frame = RequestFrame {
            deadline_ms,
            request: request.clone(),
        };
        if let Err(e) = send_request(&mut stream, &frame) {
            // A send on a pooled connection can hit a stale socket the
            // server already closed; that is a transport error (the
            // retry policy decides, by idempotency, what to do).
            return Err(ClientError::Io(e));
        }
        match recv_response(&mut stream) {
            Ok(resp) => {
                match &resp {
                    Response::Error { code, message } => {
                        // The connection stays healthy after a typed
                        // error; pool it.
                        self.checkin(stream);
                        Err(ClientError::Rejected {
                            code: *code,
                            message: message.clone(),
                        })
                    }
                    _ => {
                        self.checkin(stream);
                        Ok(resp)
                    }
                }
            }
            Err(FrameError::Closed) => Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "server closed the connection",
            ))),
            Err(e) if e.is_timeout() => Err(ClientError::DeadlineExceeded),
            Err(FrameError::Io(e)) => Err(ClientError::Io(e)),
            Err(FrameError::Corrupt(e)) => Err(ClientError::Protocol(e)),
        }
    }

    /// Pops a pooled connection or dials (handshaking) a new one within
    /// the remaining deadline.
    fn checkout(&self, remaining: Duration) -> Result<TcpStream, ClientError> {
        if let Some(s) = self.pool.lock().unwrap_or_else(|e| e.into_inner()).pop() {
            return Ok(s);
        }
        self.dial(remaining)
    }

    /// Dials and handshakes a fresh connection within the remaining
    /// deadline, bypassing the pool.
    fn dial(&self, remaining: Duration) -> Result<TcpStream, ClientError> {
        let mut stream =
            TcpStream::connect_timeout(&self.addr, remaining).map_err(ClientError::Io)?;
        stream.set_nodelay(true).map_err(ClientError::Io)?;
        stream
            .set_read_timeout(Some(remaining))
            .map_err(ClientError::Io)?;
        write_hello(&mut stream).map_err(ClientError::Io)?;
        match read_hello_reply(&mut stream) {
            Ok(HandshakeStatus::Ok) => Ok(stream),
            Ok(status) => Err(ClientError::Handshake(status)),
            Err(FrameError::Corrupt(e)) => Err(ClientError::Protocol(e)),
            Err(FrameError::Closed) => Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "server closed during handshake",
            ))),
            Err(FrameError::Io(e)) => Err(ClientError::Io(e)),
        }
    }

    /// Returns a healthy connection to the pool (closed if full).
    fn checkin(&self, stream: TcpStream) {
        let mut pool = self.pool.lock().unwrap_or_else(|e| e.into_inner());
        if pool.len() < self.cfg.pool {
            pool.push(stream);
        }
    }
}

/// Receives one frame on a subscription connection, mapping transport
/// failures into [`ClientError`]. A clean server close surfaces as
/// `Io(ConnectionReset)`; the iterator turns it into end-of-stream.
fn recv_sub_response(stream: &mut TcpStream) -> Result<Response, ClientError> {
    match recv_response(stream) {
        Ok(resp) => Ok(resp),
        Err(FrameError::Closed) => Err(ClientError::Io(std::io::Error::new(
            std::io::ErrorKind::ConnectionReset,
            "server closed the subscription",
        ))),
        Err(e) if e.is_timeout() => Err(ClientError::DeadlineExceeded),
        Err(FrameError::Io(e)) => Err(ClientError::Io(e)),
        Err(FrameError::Corrupt(e)) => Err(ClientError::Protocol(e)),
    }
}

/// One event pushed on a live [`Subscription`].
#[derive(Clone, Debug, PartialEq)]
pub enum SubscriptionEvent {
    /// A full-state resync. Replace any folded state with `rows` —
    /// sent as the first event of a from-head subscribe, and mid-stream
    /// whenever the subscriber fell off the server's bounded delta ring
    /// (slow-consumer degradation: the server resyncs instead of
    /// queueing without bound).
    Snapshot {
        /// The subscribed view.
        view: u32,
        /// The snapshot's flush seq.
        seq: u64,
        /// Content checksum of `rows`.
        checksum: u64,
        /// The full materialized view at `seq`.
        rows: Vec<WRow>,
    },
    /// One delta batch: signed difference rows (weight > 0 added,
    /// < 0 removed) taking the folded state from `seq - 1` to `seq`.
    Delta {
        /// The subscribed view.
        view: u32,
        /// The seq this delta produces.
        seq: u64,
        /// Content checksum of the folded state at `seq`.
        checksum: u64,
        /// The view's total pending backlog when this was published.
        staleness: u64,
        /// The signed difference rows.
        rows: Vec<WRow>,
    },
}

impl SubscriptionEvent {
    /// The seq the event's state corresponds to.
    pub fn seq(&self) -> u64 {
        match self {
            SubscriptionEvent::Snapshot { seq, .. } | SubscriptionEvent::Delta { seq, .. } => *seq,
        }
    }

    /// The content checksum the subscriber's folded state must match
    /// after applying this event.
    pub fn checksum(&self) -> u64 {
        match self {
            SubscriptionEvent::Snapshot { checksum, .. }
            | SubscriptionEvent::Delta { checksum, .. } => *checksum,
        }
    }
}

/// Closes a [`Subscription`]'s socket from another thread, unblocking
/// its iterator (which then ends). Obtained via
/// [`Subscription::stopper`].
pub struct SubscriptionStopper {
    stream: TcpStream,
}

impl SubscriptionStopper {
    /// Shuts the subscription's connection down. The blocked iterator
    /// wakes with end-of-stream.
    pub fn stop(&self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

/// A blocking iterator over the pushed events of one registry view,
/// opened by [`Client::subscribe`].
///
/// The iterator yields [`SubscriptionEvent`]s in seq order and
/// enforces the protocol's no-gap/no-duplicate discipline: a delta
/// whose seq is not exactly `last + 1` ends the stream with an error
/// (the server never sends one — a gap means the transport lied).
/// Dropping the subscription closes its dedicated connection, which is
/// how the server learns to release the subscriber slot; no explicit
/// unsubscribe round-trip is required.
pub struct Subscription {
    stream: TcpStream,
    view: u32,
    next_seq: u64,
    pending: Option<SubscriptionEvent>,
    done: bool,
}

impl Subscription {
    /// The subscribed view id.
    pub fn view(&self) -> u32 {
        self.view
    }

    /// The seq of the next delta the iterator expects.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// A handle that closes this subscription's socket from another
    /// thread, unblocking the iterator.
    pub fn stopper(&self) -> std::io::Result<SubscriptionStopper> {
        Ok(SubscriptionStopper {
            stream: self.stream.try_clone()?,
        })
    }

    /// Receives the next event, blocking at most `timeout`.
    ///
    /// `Ok(None)` means the wait timed out *between* frames — the
    /// subscription is still live and the call can be repeated. Note
    /// that a timeout that fires in the middle of a partially received
    /// frame poisons the byte stream; use [`Subscription::stopper`] for
    /// clean cross-thread shutdown and this only where the caller owns
    /// the pacing (e.g. polling an idle view).
    pub fn recv_timeout(
        &mut self,
        timeout: Duration,
    ) -> Result<Option<SubscriptionEvent>, ClientError> {
        match self.recv_event(Some(timeout)) {
            Err(ClientError::DeadlineExceeded) => Ok(None),
            other => other,
        }
    }

    /// Core receive: returns `Ok(None)` at end-of-stream (server
    /// closed), the next event otherwise.
    fn recv_event(
        &mut self,
        timeout: Option<Duration>,
    ) -> Result<Option<SubscriptionEvent>, ClientError> {
        if let Some(ev) = self.pending.take() {
            return Ok(Some(ev));
        }
        if self.done {
            return Ok(None);
        }
        self.stream.set_read_timeout(timeout).map_err(|e| {
            self.done = true;
            ClientError::Io(e)
        })?;
        match recv_sub_response(&mut self.stream) {
            Ok(Response::ViewDelta {
                view,
                seq,
                checksum,
                staleness,
                rows,
            }) => {
                if view != self.view {
                    self.done = true;
                    return Err(ClientError::UnexpectedResponse(
                        "ViewDelta for a different view",
                    ));
                }
                if seq != self.next_seq {
                    self.done = true;
                    return Err(ClientError::UnexpectedResponse(
                        "ViewDelta out of seq order (gap or duplicate)",
                    ));
                }
                self.next_seq = seq + 1;
                Ok(Some(SubscriptionEvent::Delta {
                    view,
                    seq,
                    checksum,
                    staleness,
                    rows,
                }))
            }
            Ok(Response::SubscribeOk {
                view,
                seq,
                resync,
                checksum,
                rows,
            }) => {
                // Mid-stream resync: this subscriber fell off the delta
                // ring and the server restarted it from a snapshot.
                if view != self.view || !resync {
                    self.done = true;
                    return Err(ClientError::UnexpectedResponse(
                        "unexpected SubscribeOk mid-stream",
                    ));
                }
                self.next_seq = seq + 1;
                Ok(Some(SubscriptionEvent::Snapshot {
                    view,
                    seq,
                    checksum,
                    rows,
                }))
            }
            Ok(Response::Error { code, message }) => {
                self.done = true;
                Err(ClientError::Rejected { code, message })
            }
            Ok(_) => {
                self.done = true;
                Err(ClientError::UnexpectedResponse(
                    "unexpected frame kind on a subscription",
                ))
            }
            Err(ClientError::DeadlineExceeded) if timeout.is_some() => {
                Err(ClientError::DeadlineExceeded)
            }
            Err(e) => {
                // Transport end (including a clean server close or a
                // stopper shutdown) terminates the stream.
                self.done = true;
                match e {
                    ClientError::Io(ref io)
                        if io.kind() == std::io::ErrorKind::ConnectionReset
                            || io.kind() == std::io::ErrorKind::UnexpectedEof =>
                    {
                        Ok(None)
                    }
                    other => Err(other),
                }
            }
        }
    }
}

impl Iterator for Subscription {
    type Item = Result<SubscriptionEvent, ClientError>;

    /// Blocks until the next pushed event; `None` when the server (or a
    /// [`SubscriptionStopper`]) closed the connection.
    fn next(&mut self) -> Option<Self::Item> {
        match self.recv_event(None) {
            Ok(Some(ev)) => Some(Ok(ev)),
            Ok(None) => None,
            Err(e) => Some(Err(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_jittered_bounded_and_monotone_in_expectation() {
        let client = Client::new(
            "127.0.0.1:1",
            ClientConfig {
                backoff: Duration::from_millis(10),
                max_backoff: Duration::from_millis(100),
                seed: 7,
                ..ClientConfig::default()
            },
        )
        .unwrap();
        for attempt in 1..=10u32 {
            let d = client.jittered_backoff(attempt);
            // Jitter halves at most; the cap bounds above.
            assert!(d >= Duration::from_millis(5), "attempt {attempt}: {d:?}");
            assert!(d <= Duration::from_millis(100), "attempt {attempt}: {d:?}");
        }
        // Same seed → same schedule (reproducibility). A fresh pair,
        // because `client`'s RNG has already advanced above.
        let make = || {
            Client::new(
                "127.0.0.1:1",
                ClientConfig {
                    backoff: Duration::from_millis(10),
                    max_backoff: Duration::from_millis(100),
                    seed: 7,
                    ..ClientConfig::default()
                },
            )
            .unwrap()
        };
        let (a, b) = (make(), make());
        for attempt in 1..=10u32 {
            assert_eq!(a.jittered_backoff(attempt), b.jittered_backoff(attempt));
        }
    }

    #[test]
    fn dead_endpoint_fails_within_deadline_not_forever() {
        // Port 1 on localhost refuses immediately; the client must give
        // up after its bounded retries, well within the deadline.
        let client = Client::new(
            "127.0.0.1:1",
            ClientConfig {
                deadline: Duration::from_secs(2),
                retries: 2,
                backoff: Duration::from_millis(1),
                ..ClientConfig::default()
            },
        )
        .unwrap();
        let started = Instant::now();
        let err = client.ping().unwrap_err();
        assert!(
            matches!(err, ClientError::Io(_) | ClientError::DeadlineExceeded),
            "got {err}"
        );
        assert!(started.elapsed() < Duration::from_secs(2));
        // The dial failures counted as transport retries.
        assert_eq!(client.retry_stats().transport_retries, 2);
    }

    #[test]
    fn breaker_opens_fails_fast_and_half_open_probes() {
        let client = Client::new(
            "127.0.0.1:1",
            ClientConfig {
                deadline: Duration::from_secs(2),
                retries: 0,
                backoff: Duration::from_millis(1),
                breaker_threshold: 2,
                breaker_cooldown: Duration::from_millis(50),
                ..ClientConfig::default()
            },
        )
        .unwrap();
        let hard =
            |e: &ClientError| matches!(e, ClientError::Io(_) | ClientError::DeadlineExceeded);
        // Two consecutive hard failures trip the breaker open.
        assert!(hard(&client.ping().unwrap_err()));
        assert!(hard(&client.ping().unwrap_err()));
        assert_eq!(client.retry_stats().breaker_trips, 1);
        // Open circuit: fail fast, no dial, no deadline burned.
        let t0 = Instant::now();
        assert!(matches!(
            client.ping().unwrap_err(),
            ClientError::CircuitOpen
        ));
        assert!(t0.elapsed() < Duration::from_millis(20));
        assert!(client.retry_stats().breaker_rejections >= 1);
        // Cooldown elapsed (jitter only shortens it): exactly one probe
        // goes through, fails on the dead endpoint, re-opens.
        std::thread::sleep(Duration::from_millis(60));
        assert!(hard(&client.ping().unwrap_err()));
        assert_eq!(client.retry_stats().breaker_trips, 2);
        assert!(matches!(
            client.ping().unwrap_err(),
            ClientError::CircuitOpen
        ));
    }
}
