//! End-to-end test of the networked serving stack over localhost:
//! concurrent `aivm-client` writers replay the commutative per-table
//! TPC-R update streams through real sockets while reader threads
//! interleave Fresh and Stale reads, then the final materialized view is
//! compared — checksum for checksum — against a direct evaluation of
//! the same streams applied to a fresh database.
//!
//! What this pins down, end to end:
//!
//! * **Ordering** — per-table streams are strict `Update{old, new}`
//!   chains; the writers' per-table cursor locks must keep them in
//!   order across concurrent submits or the final checksum diverges.
//! * **Budget compliance** — every Fresh read crossing the wire carries
//!   the runtime's `violated` bit; none may be set, and the runtime's
//!   final `constraint_violations` counter must be zero.
//! * **Clean shutdown** — the serve scheduler drains its queue on
//!   shutdown, so everything the clients submitted is ingested and
//!   flushed (or still pending) with nothing lost.

use aivm_bench::serve::{ServeExperiment, ServeOptions};
use aivm_client::{Client, ClientConfig};
use aivm_engine::Modification;
use aivm_net::{NetServer, NetServerConfig};
use aivm_serve::{ServeServer, ServerConfig};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const EVENTS_EACH: usize = 400;

fn experiment() -> ServeExperiment {
    ServeExperiment::build(ServeOptions {
        events_each: EVENTS_EACH,
        quick: true,
        ..Default::default()
    })
    .expect("experiment builds")
}

struct Stream {
    table: usize,
    mods: Vec<Modification>,
    pos: usize,
}

#[test]
fn concurrent_clients_over_tcp_match_direct_evaluation() {
    let exp = experiment();
    let runtime = exp
        .runtime(exp.policy("online").unwrap())
        .expect("runtime builds");
    let serve = ServeServer::spawn(runtime, ServerConfig::default());
    let net = NetServer::bind(
        "127.0.0.1:0",
        serve.handle(),
        exp.costs.len(),
        NetServerConfig {
            // A low admission mark so the Overloaded + retry path is
            // genuinely exercised, not just available.
            submit_high_water: Some(256),
            ..NetServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = net.local_addr();

    let streams: Arc<Vec<Mutex<Stream>>> = Arc::new(vec![
        Mutex::new(Stream {
            table: exp.ps_pos,
            mods: exp.ps_stream.clone(),
            pos: 0,
        }),
        Mutex::new(Stream {
            table: exp.supp_pos,
            mods: exp.supp_stream.clone(),
            pos: 0,
        }),
    ]);

    let cfg = |seed: u64| ClientConfig {
        deadline: Duration::from_secs(30),
        retries: 64,
        backoff: Duration::from_micros(200),
        max_backoff: Duration::from_millis(10),
        pool: 1,
        seed,
        ..ClientConfig::default()
    };

    // Three writers race over the two table cursors; each holds a
    // table's lock across the whole submit round trip so the per-table
    // order is preserved while tables interleave freely.
    let writers: Vec<_> = (0..3u64)
        .map(|w| {
            let streams = Arc::clone(&streams);
            std::thread::spawn(move || {
                let client = Client::new(addr, cfg(w)).expect("writer connects");
                let mut submitted = 0u64;
                loop {
                    let mut progressed = false;
                    for s in streams.iter() {
                        let mut s = s.lock().unwrap();
                        if s.pos >= s.mods.len() {
                            continue;
                        }
                        let end = (s.pos + 25).min(s.mods.len());
                        let batch = s.mods[s.pos..end].to_vec();
                        let accepted = client
                            .submit(s.table as u32, batch)
                            .expect("submit lands within bounded retries");
                        assert_eq!(accepted as usize, end - s.pos);
                        s.pos = end;
                        submitted += accepted;
                        progressed = true;
                    }
                    if !progressed {
                        return submitted;
                    }
                }
            })
        })
        .collect();

    // Two readers interleave Fresh and Stale reads while the writers
    // run; every Fresh read must come back within budget.
    let done = Arc::new(AtomicBool::new(false));
    let fresh_served = Arc::new(AtomicU64::new(0));
    let readers: Vec<_> = (0..2u64)
        .map(|r| {
            let done = Arc::clone(&done);
            let fresh_served = Arc::clone(&fresh_served);
            std::thread::spawn(move || {
                let client = Client::new(addr, cfg(100 + r)).expect("reader connects");
                let mut i = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let fresh = i % 2 == r % 2;
                    let res = client.read(fresh, false).expect("read succeeds");
                    assert!(!res.violated, "fresh read exceeded the budget C");
                    if res.fresh {
                        assert_eq!(res.lag, 0, "a fresh read never returns stale state");
                        fresh_served.fetch_add(1, Ordering::Relaxed);
                    }
                    i += 1;
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
        })
        .collect();

    let total: u64 = writers.into_iter().map(|w| w.join().expect("writer")).sum();
    assert_eq!(
        total as usize,
        2 * EVENTS_EACH,
        "every event submitted exactly once"
    );
    done.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().expect("reader");
    }
    assert!(fresh_served.load(Ordering::Relaxed) > 0);

    // Final fresh read over the wire: zero lag, within budget, and its
    // checksum is the ground truth to compare against.
    let control = Client::new(addr, cfg(999)).expect("control connects");
    let final_read = control.read(true, false).expect("final fresh read");
    assert!(final_read.fresh);
    assert_eq!(final_read.lag, 0);
    assert!(!final_read.violated);

    let metrics = control.metrics().expect("metrics frame");
    assert_eq!(metrics.events_ingested as usize, 2 * EVENTS_EACH);
    assert_eq!(metrics.submitted_events as usize, 2 * EVENTS_EACH);
    assert_eq!(metrics.connections_rejected, 0);
    assert_eq!(metrics.constraint_violations, 0);
    assert!(!metrics.degraded);
    assert_eq!(metrics.last_error, None);

    // Clean shutdown drains open connections and the ingest queue.
    drop(control);
    net.shutdown();
    let runtime = serve.shutdown();
    let final_metrics = runtime.metrics();
    assert_eq!(final_metrics.events_ingested as usize, 2 * EVENTS_EACH);
    assert_eq!(final_metrics.constraint_violations, 0);
    assert_eq!(
        runtime.pending().total(),
        0,
        "final fresh read left nothing pending"
    );
    // The paper view is auto-indexed on every join column.
    let scans = runtime.maintenance_stats().map(|s| s.exec.scan_fallbacks);
    assert_eq!(scans, Some(0), "a join step fell back to a full scan");

    // Ground truth: apply both streams directly to a fresh clone of the
    // generated database and materialize the paper view from scratch.
    let mut direct = exp.genesis_db();
    let ps = direct.table_id("partsupp").expect("partsupp exists");
    let supp = direct.table_id("supplier").expect("supplier exists");
    for m in &exp.ps_stream {
        direct.apply(ps, m).expect("stream applies in order");
    }
    for m in &exp.supp_stream {
        direct.apply(supp, m).expect("stream applies in order");
    }
    let direct_view = exp.make_view(&direct).expect("view over final state");
    assert_eq!(
        final_read.checksum,
        direct_view.result_checksum(),
        "wire-served view diverges from direct evaluation"
    );
    assert_eq!(runtime.view_checksum(), Some(direct_view.result_checksum()));
}
