//! A deterministic in-process network-fault proxy.
//!
//! [`FaultProxy`] listens on an ephemeral localhost port and forwards
//! every accepted connection to a target address, passing each chunk of
//! bytes (in either direction) through a *seeded, pure* fault schedule:
//! the action taken on chunk `k` of direction `d` of connection `c` is
//! a function of `(seed, c, d, k)` and nothing else, so a chaos run
//! with a given seed injects exactly the same drops, delays,
//! duplications and corruptions every time — fault injection without
//! flaky tests.
//!
//! Faults model transport damage, not Byzantine peers:
//!
//! - **Delay** holds a chunk for a bounded time before forwarding
//!   (reordering pressure on the peer's read loop),
//! - **Duplicate** forwards a chunk twice (a retransmission the
//!   protocol's framing must reject — duplicated frame bytes corrupt
//!   the stream checksum sequence and must tear the connection, never
//!   double-apply),
//! - **Corrupt** flips one bit (caught by the `fxhash64` frame
//!   checksum),
//! - **Drop** severs the connection (both halves), forcing the client
//!   through its retry/breaker path and the replica through resume,
//! - **Partition (one-way)** blackholes a direction from a configured
//!   chunk index on: bytes are read and discarded while the other
//!   direction still flows — the asymmetric failure TCP itself never
//!   surfaces cleanly. [`FaultProxy::blackhole_replies`] throws the
//!   same switch by hand, for every connection at once (a reply lost
//!   at a moment the test picks).
//!
//! The proxy is transparent to the protocol: with an all-`Forward`
//! schedule it is byte-exact, so it can sit under any existing client
//! or replica test unchanged.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use aivm_engine::fxhash;

/// What the schedule does with one observed chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Pass the bytes through unchanged.
    Forward,
    /// Hold the chunk for the given milliseconds, then forward it.
    Delay(u64),
    /// Forward the chunk twice back-to-back.
    Duplicate,
    /// Flip one bit of the chunk, then forward it.
    Corrupt,
    /// Sever the connection (both directions).
    Drop,
}

/// Probabilities (in parts per 1024) and bounds for the seeded
/// schedule. All zeros = transparent proxy.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultPlanNet {
    /// Seed mixed into every per-chunk decision.
    pub seed: u64,
    /// Delay probability per chunk, ‰ of 1024.
    pub delay_ppm: u32,
    /// Max delay in milliseconds (uniform in `[1, max]`).
    pub delay_max_ms: u64,
    /// Duplicate probability per chunk, ‰ of 1024.
    pub duplicate_ppm: u32,
    /// Corrupt probability per chunk, ‰ of 1024.
    pub corrupt_ppm: u32,
    /// Connection-sever probability per chunk, ‰ of 1024.
    pub drop_ppm: u32,
    /// One-way partition: from this chunk index on, server→client
    /// bytes are blackholed (`None` disables). Client→server still
    /// flows, modelling an asymmetric link failure.
    pub partition_s2c_after: Option<u64>,
}

impl FaultPlanNet {
    /// The paper-repro default used by the proxied chaos experiments:
    /// a lively mix of delay, duplication, corruption and occasional
    /// severed connections.
    pub fn lively(seed: u64) -> FaultPlanNet {
        FaultPlanNet {
            seed,
            delay_ppm: 96,
            delay_max_ms: 3,
            duplicate_ppm: 16,
            corrupt_ppm: 8,
            drop_ppm: 4,
            partition_s2c_after: None,
        }
    }

    /// The pure per-chunk decision: `(seed, conn, direction, chunk)` →
    /// action. `direction` is 0 for client→server, 1 for server→client.
    pub fn action(&self, conn: u64, direction: u8, chunk: u64) -> FaultAction {
        let h = fxhash::hash_one(&(self.seed, conn, direction, chunk));
        let roll = (h & 0x3FF) as u32; // uniform in [0, 1024)
        let mut acc = self.drop_ppm;
        if roll < acc {
            return FaultAction::Drop;
        }
        acc += self.corrupt_ppm;
        if roll < acc {
            return FaultAction::Corrupt;
        }
        acc += self.duplicate_ppm;
        if roll < acc {
            return FaultAction::Duplicate;
        }
        acc += self.delay_ppm;
        if roll < acc {
            let span = self.delay_max_ms.max(1);
            return FaultAction::Delay(1 + (h >> 10) % span);
        }
        FaultAction::Forward
    }
}

/// Counters of injected faults, for experiment summaries.
#[derive(Debug, Default)]
pub struct FaultStats {
    /// Chunks forwarded unchanged.
    pub forwarded: AtomicU64,
    /// Chunks delayed.
    pub delayed: AtomicU64,
    /// Chunks duplicated.
    pub duplicated: AtomicU64,
    /// Chunks with a flipped bit.
    pub corrupted: AtomicU64,
    /// Connections severed by the schedule.
    pub dropped_conns: AtomicU64,
    /// Chunks blackholed by the one-way partition.
    pub partitioned: AtomicU64,
}

/// A running fault proxy. Dropping it stops the accept thread; relay
/// threads die with their connections.
pub struct FaultProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    blackhole: Arc<AtomicBool>,
    stats: Arc<FaultStats>,
    accept_join: Option<JoinHandle<()>>,
}

impl FaultProxy {
    /// Starts a proxy on an ephemeral localhost port forwarding to
    /// `target` under `plan`'s schedule.
    pub fn spawn(target: SocketAddr, plan: FaultPlanNet) -> std::io::Result<FaultProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let blackhole = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(FaultStats::default());
        let relays = Relays {
            plan,
            blackhole: Arc::clone(&blackhole),
            stats: Arc::clone(&stats),
        };
        let accept_stop = Arc::clone(&stop);
        let accept_join = std::thread::Builder::new()
            .name("aivm-fault-proxy".into())
            .spawn(move || accept_loop(listener, target, relays, accept_stop))?;
        Ok(FaultProxy {
            addr,
            stop,
            blackhole,
            stats,
            accept_join: Some(accept_join),
        })
    }

    /// The proxy's listening address — point clients/replicas here.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Injected-fault counters so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// While on, every server→client byte on every connection is read
    /// and discarded: requests still arrive and are served, replies are
    /// lost.
    pub fn blackhole_replies(&self, on: bool) {
        self.blackhole.store(on, Ordering::SeqCst);
    }

    /// Stops accepting and severs the accept thread. Live relays end
    /// when their connections do.
    pub fn shutdown(mut self) {
        self.stop_accept();
    }

    fn stop_accept(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(j) = self.accept_join.take() {
            let _ = j.join();
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.stop_accept();
    }
}

/// What every relay thread of one proxy shares.
#[derive(Clone)]
struct Relays {
    plan: FaultPlanNet,
    blackhole: Arc<AtomicBool>,
    stats: Arc<FaultStats>,
}

fn accept_loop(listener: TcpListener, target: SocketAddr, relays: Relays, stop: Arc<AtomicBool>) {
    let mut conn_id = 0u64;
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((client, _)) => {
                let id = conn_id;
                conn_id += 1;
                let Ok(server) = TcpStream::connect_timeout(&target, Duration::from_secs(2)) else {
                    continue; // client sees an immediate close
                };
                let _ = client.set_nodelay(true);
                let _ = server.set_nodelay(true);
                spawn_relay(id, 0, &client, &server, &relays);
                spawn_relay(id, 1, &server, &client, &relays);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => break,
        }
    }
}

/// Spawns one relay direction. Threads are detached: they end when
/// either side of the connection closes (or the schedule drops it).
fn spawn_relay(conn: u64, direction: u8, from: &TcpStream, to: &TcpStream, relays: &Relays) {
    let (Ok(mut from), Ok(mut to)) = (from.try_clone(), to.try_clone()) else {
        return;
    };
    let Relays {
        plan,
        blackhole,
        stats,
    } = relays.clone();
    let _ = std::thread::Builder::new()
        .name(format!("aivm-fault-relay-{conn}-{direction}"))
        .spawn(move || {
            let mut buf = [0u8; 4096];
            let mut chunk = 0u64;
            loop {
                let n = match from.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => n,
                };
                // The partition applies to the server→client direction
                // only: an asymmetric blackhole.
                let partitioned = plan.partition_s2c_after.is_some_and(|after| chunk >= after);
                if direction == 1 && (partitioned || blackhole.load(Ordering::SeqCst)) {
                    stats.partitioned.fetch_add(1, Ordering::Relaxed);
                    chunk += 1;
                    continue; // read and discard
                }
                match plan.action(conn, direction, chunk) {
                    FaultAction::Forward => {
                        stats.forwarded.fetch_add(1, Ordering::Relaxed);
                    }
                    FaultAction::Delay(ms) => {
                        stats.delayed.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(Duration::from_millis(ms));
                    }
                    FaultAction::Duplicate => {
                        stats.duplicated.fetch_add(1, Ordering::Relaxed);
                        if to.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                    FaultAction::Corrupt => {
                        stats.corrupted.fetch_add(1, Ordering::Relaxed);
                        // Deterministic bit position within the chunk.
                        let h = fxhash::hash_one(&(plan.seed, conn, direction, chunk, 0xC0u8));
                        let byte = (h as usize) % n;
                        buf[byte] ^= 1 << ((h >> 16) & 7);
                    }
                    FaultAction::Drop => {
                        stats.dropped_conns.fetch_add(1, Ordering::Relaxed);
                        let _ = from.shutdown(Shutdown::Both);
                        let _ = to.shutdown(Shutdown::Both);
                        break;
                    }
                }
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
                chunk += 1;
            }
            let _ = to.shutdown(Shutdown::Both);
        });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_seed_sensitive() {
        let plan = FaultPlanNet::lively(42);
        let again = FaultPlanNet::lively(42);
        let other = FaultPlanNet::lively(43);
        let mut diverged = false;
        for conn in 0..4u64 {
            for dir in 0..2u8 {
                for chunk in 0..256u64 {
                    assert_eq!(
                        plan.action(conn, dir, chunk),
                        again.action(conn, dir, chunk),
                        "same seed must give the same schedule"
                    );
                    if plan.action(conn, dir, chunk) != other.action(conn, dir, chunk) {
                        diverged = true;
                    }
                }
            }
        }
        assert!(diverged, "different seeds must give different schedules");
    }

    #[test]
    fn lively_schedule_exercises_every_fault_kind() {
        let plan = FaultPlanNet::lively(7);
        let mut seen = std::collections::HashSet::new();
        for conn in 0..8u64 {
            for chunk in 0..2048u64 {
                seen.insert(std::mem::discriminant(&plan.action(conn, 0, chunk)));
            }
        }
        // Forward, Delay, Duplicate, Corrupt, Drop all occur.
        assert_eq!(seen.len(), 5, "expected all five actions to occur");
    }

    #[test]
    fn transparent_proxy_is_byte_exact() {
        // An all-Forward plan must not disturb the stream.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let target = listener.local_addr().unwrap();
        let echo = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = [0u8; 1024];
            loop {
                match s.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => {
                        if s.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                }
            }
        });
        let proxy = FaultProxy::spawn(target, FaultPlanNet::default()).unwrap();
        let mut c = TcpStream::connect(proxy.local_addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let payload: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        c.write_all(&payload).unwrap();
        let mut got = vec![0u8; payload.len()];
        c.read_exact(&mut got).unwrap();
        assert_eq!(got, payload);
        drop(c);
        proxy.shutdown();
        echo.join().unwrap();
    }
}
