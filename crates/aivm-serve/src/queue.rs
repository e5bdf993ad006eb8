//! A bounded MPSC channel with optional overload shedding.
//!
//! The PR-2 server used `std::sync::mpsc::sync_channel`, whose only
//! overload behaviour is to block the producer. That is the right
//! default — backpressure preserves every event — but it has two
//! failure modes this layer fixes:
//!
//! * **a dead consumer hangs producers**: if the scheduler thread dies
//!   while the queue is full, blocked producers wait forever. Here the
//!   receiver's drop wakes all blocked senders with a disconnect error.
//! * **no load-shedding option**: past a configured high-water mark the
//!   queue can switch from *block* to *drop-oldest-sheddable*,
//!   counting every dropped message. Only messages marked sheddable
//!   (fire-and-forget ingest) are ever dropped; request/reply messages
//!   (reads, metrics) always survive, so callers never hang on a reply
//!   that was shed.
//!
//! Plain `Mutex<VecDeque>` + two `Condvar`s — the same building blocks
//! as `sync_channel`, with the queue state open for inspection
//! (`len`, `shed_count`).
//!
//! ## Weighted admission
//!
//! Capacity is measured in *weight units*, not messages. A message
//! admitted with [`Sender::send_weighted`] or
//! [`Sender::try_send_weighted`] charges its weight (a DML batch
//! charges one unit per modification) against the capacity, so the
//! bound is on outstanding *events*, however they are framed. This is
//! what keeps the maintenance backlog — and with it the cost of any
//! single flush — bounded no matter how ingest is batched on the wire.
//! Control messages (reads, metrics) are admitted with
//! [`Sender::send_control`], which bypasses the capacity check
//! entirely: they are few (at most one in flight per connection), must
//! never be refused for backlog reasons, and a frontend event loop
//! must never block on them.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Sending half of the channel (clonable).
pub struct Sender<T> {
    inner: Arc<Inner<T>>,
}

/// Receiving half of the channel (single consumer).
pub struct Receiver<T> {
    inner: Arc<Inner<T>>,
}

/// The consumer disconnected; the message was not delivered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SendError;

/// Why a non-blocking send failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrySendError {
    /// The queue is at capacity (and shedding, if enabled, could not
    /// make room). The message was not enqueued — callers that must not
    /// block (event loops) translate this to an `Overloaded` rejection.
    Full,
    /// The consumer disconnected; the message was not delivered.
    Disconnected,
}

/// Why a receive returned without a message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecvError {
    /// No message arrived within the timeout.
    Timeout,
    /// Every sender disconnected and the queue is drained.
    Disconnected,
}

struct Inner<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    high_water: Option<usize>,
}

struct State<T> {
    /// `(message, sheddable, weight)`.
    buf: VecDeque<(T, bool, usize)>,
    /// Sum of queued weights (what capacity bounds).
    weight: usize,
    senders: usize,
    receiver_alive: bool,
    shed: u64,
}

impl<T> State<T> {
    /// Evicts the oldest sheddable message, crediting its weight.
    /// Returns false when nothing sheddable is queued.
    fn shed_one(&mut self) -> bool {
        let Some(idx) = self.buf.iter().position(|(_, s, _)| *s) else {
            return false;
        };
        let (_, _, w) = self.buf.remove(idx).expect("index from position");
        self.weight -= w;
        // The counter is in weight units (events), matching what the
        // message carried.
        self.shed += w as u64;
        true
    }
}

impl<T> Inner<T> {
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        // A panicking thread cannot leave the queue state inconsistent
        // (every mutation is a single push/pop), so poison is ignored.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Creates a bounded channel of `capacity` messages. With
/// `high_water: Some(h)`, a send that finds `h` or more messages queued
/// sheds the oldest *sheddable* message instead of blocking (the shed
/// count is readable on both halves); with `None` the channel always
/// blocks when full.
pub fn channel<T>(capacity: usize, high_water: Option<usize>) -> (Sender<T>, Receiver<T>) {
    assert!(capacity > 0, "queue capacity must be positive");
    if let Some(h) = high_water {
        assert!(
            h > 0 && h <= capacity,
            "high-water mark must be in 1..=capacity"
        );
    }
    let inner = Arc::new(Inner {
        state: Mutex::new(State {
            buf: VecDeque::with_capacity(capacity.min(4096)),
            weight: 0,
            senders: 1,
            receiver_alive: true,
            shed: 0,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        capacity,
        high_water,
    });
    (
        Sender {
            inner: Arc::clone(&inner),
        },
        Receiver { inner },
    )
}

impl<T> Sender<T> {
    /// Sends a weight-1 message, blocking while the queue is full.
    /// `sheddable` marks the message as droppable under overload — any
    /// send arriving past the high-water mark evicts the oldest queued
    /// *sheddable* message (if one exists) instead of blocking.
    pub fn send(&self, item: T, sheddable: bool) -> Result<(), SendError> {
        self.send_weighted(item, sheddable, 1)
    }

    /// [`Sender::send`] with an explicit weight: the message charges
    /// `weight` units (clamped to `1..=capacity` so one oversized
    /// message can still be admitted into an empty queue) against the
    /// channel's capacity.
    pub fn send_weighted(&self, item: T, sheddable: bool, weight: usize) -> Result<(), SendError> {
        let w = weight.clamp(1, self.inner.capacity);
        let mut st = self.inner.lock();
        loop {
            if !st.receiver_alive {
                return Err(SendError);
            }
            if let Some(h) = self.inner.high_water {
                // Past the high-water mark: shed the oldest sheddable
                // messages to make room.
                while st.weight + w > h && st.shed_one() {}
            }
            if st.weight + w <= self.inner.capacity {
                st.buf.push_back((item, sheddable, w));
                st.weight += w;
                drop(st);
                self.inner.not_empty.notify_one();
                return Ok(());
            }
            st = self
                .inner
                .not_full
                .wait(st)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Sends a weight-1 message without blocking: a full queue (after
    /// any shedding) is a typed [`TrySendError::Full`] instead of a
    /// wait. Same admission semantics as [`Sender::send`] otherwise.
    pub fn try_send(&self, item: T, sheddable: bool) -> Result<(), TrySendError> {
        self.try_send_weighted(item, sheddable, 1)
    }

    /// [`Sender::try_send`] with an explicit weight (see
    /// [`Sender::send_weighted`]).
    pub fn try_send_weighted(
        &self,
        item: T,
        sheddable: bool,
        weight: usize,
    ) -> Result<(), TrySendError> {
        let w = weight.clamp(1, self.inner.capacity);
        let mut st = self.inner.lock();
        if !st.receiver_alive {
            return Err(TrySendError::Disconnected);
        }
        if let Some(h) = self.inner.high_water {
            while st.weight + w > h && st.shed_one() {}
        }
        if st.weight + w <= self.inner.capacity {
            st.buf.push_back((item, sheddable, w));
            st.weight += w;
            drop(st);
            self.inner.not_empty.notify_one();
            Ok(())
        } else {
            Err(TrySendError::Full)
        }
    }

    /// Sends a control message (request/reply traffic: reads, metrics),
    /// bypassing the capacity check: it occupies no weight, is never
    /// sheddable, and never blocks. The only failure is a dead
    /// consumer. Bounded in practice by one in-flight request per
    /// connection.
    pub fn send_control(&self, item: T) -> Result<(), SendError> {
        let mut st = self.inner.lock();
        if !st.receiver_alive {
            return Err(SendError);
        }
        st.buf.push_back((item, false, 0));
        drop(st);
        self.inner.not_empty.notify_one();
        Ok(())
    }

    /// Queued weight (events, not messages; control messages are free).
    pub fn len(&self) -> usize {
        self.inner.lock().weight
    }

    /// True when nothing is queued (not even control messages).
    pub fn is_empty(&self) -> bool {
        self.inner.lock().buf.is_empty()
    }

    /// Weight units (events) dropped by overload shedding so far.
    pub fn shed_count(&self) -> u64 {
        self.inner.lock().shed
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.inner.lock().senders += 1;
        Sender {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.inner.lock();
        st.senders -= 1;
        let last = st.senders == 0;
        drop(st);
        if last {
            // Wake a receiver blocked on an empty queue so it can
            // observe the disconnect.
            self.inner.not_empty.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Receives the next message, waiting up to `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvError> {
        let deadline = Instant::now() + timeout;
        let mut st = self.inner.lock();
        loop {
            if let Some((item, _, w)) = st.buf.pop_front() {
                st.weight -= w;
                drop(st);
                self.inner.not_full.notify_all();
                return Ok(item);
            }
            if st.senders == 0 {
                return Err(RecvError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvError::Timeout);
            }
            let (guard, _) = self
                .inner
                .not_empty
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            st = guard;
        }
    }

    /// Receives without waiting. `Err(Timeout)` doubles as "empty".
    pub fn try_recv(&self) -> Result<T, RecvError> {
        let mut st = self.inner.lock();
        if let Some((item, _, w)) = st.buf.pop_front() {
            st.weight -= w;
            drop(st);
            self.inner.not_full.notify_all();
            return Ok(item);
        }
        if st.senders == 0 {
            return Err(RecvError::Disconnected);
        }
        Err(RecvError::Timeout)
    }

    /// Queued weight (events, not messages; control messages are free).
    pub fn len(&self) -> usize {
        self.inner.lock().weight
    }

    /// True when nothing is queued (not even control messages).
    pub fn is_empty(&self) -> bool {
        self.inner.lock().buf.is_empty()
    }

    /// Weight units (events) dropped by overload shedding so far.
    pub fn shed_count(&self) -> u64 {
        self.inner.lock().shed
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut st = self.inner.lock();
        st.receiver_alive = false;
        // Undelivered messages die with the consumer, so a reply slot one
        // carries disconnects now — its requester learns the scheduler is
        // gone — instead of when the last sender is dropped.
        let undelivered = std::mem::take(&mut st.buf);
        st.weight = 0;
        drop(st);
        drop(undelivered);
        // Wake every sender blocked on a full queue: the consumer is
        // gone and they must error out instead of hanging.
        self.inner.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fifo_order_preserved() {
        let (tx, rx) = channel(8, None);
        for i in 0..5 {
            tx.send(i, true).unwrap();
        }
        for i in 0..5 {
            assert_eq!(rx.recv_timeout(Duration::from_secs(1)).unwrap(), i);
        }
        assert_eq!(rx.try_recv(), Err(RecvError::Timeout));
    }

    #[test]
    fn blocking_send_resumes_when_drained() {
        let (tx, rx) = channel(2, None);
        tx.send(1, true).unwrap();
        tx.send(2, true).unwrap();
        let t = thread::spawn(move || {
            tx.send(3, true).unwrap(); // blocks until a recv
            tx
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(1)).unwrap(), 1);
        let tx = t.join().unwrap();
        assert_eq!(tx.len(), 2);
        assert_eq!(rx.recv_timeout(Duration::from_secs(1)).unwrap(), 2);
        assert_eq!(rx.recv_timeout(Duration::from_secs(1)).unwrap(), 3);
    }

    #[test]
    fn shedding_drops_oldest_sheddable_past_high_water() {
        let (tx, rx) = channel(8, Some(3));
        tx.send("a", true).unwrap();
        tx.send("b", false).unwrap();
        tx.send("c", true).unwrap();
        // Queue is at the high-water mark: this send evicts "a" (the
        // oldest sheddable), not "b" (unsheddable).
        tx.send("d", true).unwrap();
        assert_eq!(tx.shed_count(), 1);
        assert_eq!(rx.recv_timeout(Duration::from_secs(1)).unwrap(), "b");
        assert_eq!(rx.recv_timeout(Duration::from_secs(1)).unwrap(), "c");
        assert_eq!(rx.recv_timeout(Duration::from_secs(1)).unwrap(), "d");
        assert_eq!(rx.shed_count(), 1);
    }

    #[test]
    fn unsheddable_messages_never_dropped() {
        // Capacity must fit every unsheddable message, else the sender
        // (correctly) blocks rather than drop one.
        let (tx, rx) = channel(8, Some(2));
        for i in 0..10 {
            tx.send(i, i % 2 == 0).unwrap();
        }
        let mut got = Vec::new();
        while let Ok(v) = rx.try_recv() {
            got.push(v);
        }
        // All odd (unsheddable) messages survived.
        for odd in [1, 3, 5, 7, 9] {
            assert!(got.contains(&odd), "{odd} was shed: {got:?}");
        }
        assert_eq!(tx.shed_count(), 10 - got.len() as u64);
    }

    #[test]
    fn try_send_reports_full_and_disconnected() {
        let (tx, rx) = channel(2, None);
        tx.try_send(1, true).unwrap();
        tx.try_send(2, true).unwrap();
        assert_eq!(tx.try_send(3, true), Err(TrySendError::Full));
        assert_eq!(rx.recv_timeout(Duration::from_secs(1)).unwrap(), 1);
        tx.try_send(3, true).unwrap();
        drop(rx);
        assert_eq!(tx.try_send(4, true), Err(TrySendError::Disconnected));
    }

    #[test]
    fn try_send_sheds_past_high_water_like_send() {
        let (tx, rx) = channel(4, Some(2));
        tx.try_send("a", true).unwrap();
        tx.try_send("b", true).unwrap();
        // At the mark: the oldest sheddable is evicted, the new message
        // lands.
        tx.try_send("c", true).unwrap();
        assert_eq!(tx.shed_count(), 1);
        assert_eq!(rx.recv_timeout(Duration::from_secs(1)).unwrap(), "b");
        assert_eq!(rx.recv_timeout(Duration::from_secs(1)).unwrap(), "c");
    }

    #[test]
    fn dead_receiver_unblocks_full_senders() {
        let (tx, rx) = channel(1, None);
        tx.send(0, true).unwrap();
        let t = thread::spawn(move || tx.send(1, true));
        thread::sleep(Duration::from_millis(20));
        drop(rx);
        assert_eq!(t.join().unwrap(), Err(SendError));
    }

    #[test]
    fn receiver_sees_disconnect_after_drain() {
        let (tx, rx) = channel(4, None);
        tx.send(7, true).unwrap();
        drop(tx);
        assert_eq!(rx.recv_timeout(Duration::from_secs(1)).unwrap(), 7);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvError::Disconnected)
        );
        assert_eq!(rx.try_recv(), Err(RecvError::Disconnected));
    }

    #[test]
    fn concurrent_producers_deliver_everything_without_shedding() {
        let (tx, rx) = channel(64, None);
        let mut handles = Vec::new();
        for p in 0..4 {
            let tx = tx.clone();
            handles.push(thread::spawn(move || {
                for i in 0..250 {
                    tx.send(p * 1000 + i, true).unwrap();
                }
            }));
        }
        drop(tx);
        let mut got = 0;
        while rx.recv_timeout(Duration::from_secs(5)).is_ok() {
            got += 1;
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(got, 1000);
        assert_eq!(rx.shed_count(), 0);
    }
}
