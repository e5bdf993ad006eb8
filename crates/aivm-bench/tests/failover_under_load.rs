//! Failover under live load: a replicated two-shard deployment loses
//! shard 0's leader while closed-loop writers and a reader keep going.
//!
//! Each table's update stream has one writer (`StreamWriter`, the one
//! the kill-the-leader chaos cycle uses), submitting batches the router
//! splits across both shards — so the dying leader can take part of a
//! batch with it while the other shard applies the rest. A submit whose
//! ack is lost — with the leader, or in transit, as each writer's first
//! batch is on purpose — is not skipped: the writer reads how much of
//! each part the shard's log holds (the promoted leader's, once it is
//! in) and resubmits only what is not there. Before the kill every
//! follower is healthy at epoch 1 and nothing has failed over; after
//! it there was a promotion, every shard is live, every stream landed
//! exactly once with no acknowledged write lost, and the merged view
//! equals direct evaluation over the final shard databases.

use aivm_bench::chaos::{
    acked_writes_survive, chaos_experiment, direct_merged_checksum, dml_records, ReplicatedCluster,
    StreamWriter,
};
use aivm_bench::proxy::{FaultPlanNet, FaultProxy};
use aivm_client::{Client, ClientConfig};
use aivm_net::ReplicaConfig;
use aivm_shard::FailoverConfig;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: usize = 2;
const BATCH: usize = 16;

fn client(addr: std::net::SocketAddr, deadline: Duration) -> Client {
    let cfg = ClientConfig {
        retries: 0,
        deadline,
        ..ClientConfig::default()
    };
    Client::new(addr, cfg).unwrap()
}

#[test]
fn a_leader_killed_under_live_load_fails_over_without_loss() {
    let exp = chaos_experiment(600, 2005).unwrap();
    let part = exp.partitioner(SHARDS).unwrap();
    let streams = [
        (exp.ps_pos, exp.ps_stream.clone()),
        (exp.supp_pos, exp.supp_stream.clone()),
    ];
    // Shard 0's log also holds ticks and forced flushes, so it dies
    // well before its share of the streams runs dry.
    let kill_after = (exp.ps_stream.len() + exp.supp_stream.len()) as u64 / 4;
    let mut cluster = ReplicatedCluster::start(&exp, SHARDS, 0, kill_after).unwrap();
    let addr = cluster.addr();
    // Probing gentle enough that a probe parked behind a busy ingest
    // queue is not mistaken for death.
    let probing = FailoverConfig {
        probe_interval: Duration::from_millis(25),
        ping_deadline: Duration::from_millis(400),
        fail_threshold: 4,
    };
    cluster
        .attach_followers(&exp, &[addr; SHARDS], ReplicaConfig::default(), probing)
        .unwrap();

    // Warmup: two batches per stream land, then every follower catches
    // up; nothing has failed over. Each writer's first batch loses its
    // ack: sent through a proxy that swallows the reply, it cannot
    // land as far as the writer knows, and the writer — resolving it
    // against the log through a working client — finds it there and
    // does not resend it.
    let ctl = client(addr, Duration::from_secs(10));
    let proxy = FaultProxy::spawn(addr, FaultPlanNet::default()).unwrap();
    let mut writers: Vec<StreamWriter> = streams
        .iter()
        .map(|(table, _)| StreamWriter::new(&part, Some(*table)))
        .collect();
    let wait = Duration::from_secs(10);
    for (writer, (table, mods)) in writers.iter_mut().zip(&streams) {
        let lossy = client(proxy.local_addr(), Duration::from_millis(200));
        lossy.ping().unwrap();
        proxy.blackhole_replies(true);
        let first = mods[..BATCH].to_vec();
        let acked = writer.submit(&lossy, *table, first, Duration::from_millis(500));
        proxy.blackhole_replies(false);
        assert!(
            !acked && writer.drive(&ctl, wait),
            "the lost batch never resolved"
        );
        assert_eq!(writer.resolved, 1);
        assert_eq!(writer.applied.iter().sum::<u64>(), BATCH as u64);
        let second = mods[BATCH..2 * BATCH].to_vec();
        assert!(writer.submit(&ctl, *table, second, wait));
    }
    proxy.shutdown();
    let due = Instant::now() + Duration::from_secs(10);
    while cluster.statuses().iter().any(|s| !s.healthy()) {
        assert!(Instant::now() < due, "a follower never became healthy");
        std::thread::sleep(Duration::from_millis(5));
    }
    let before = ctl.metrics_detailed(true).unwrap();
    assert_eq!(before.ingest_errors, 0, "a landed batch was resent");
    assert_eq!(before.failovers, 0, "spurious failover before the kill");
    for row in before.per_shard.unwrap() {
        assert_eq!((row.epoch, row.health), (1, 2), "shard {}", row.shard);
    }

    // Live load: one closed-loop writer per stream, and a reader
    // alternating stale and fresh reads until the writers are done.
    let done = Arc::new(AtomicBool::new(false));
    let reader = {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let c = client(addr, wait);
            while !done.load(Ordering::Relaxed) {
                for fresh in [false, true] {
                    // Reads may fail while shard 0 is down.
                    if let Ok(r) = c.read(fresh, false) {
                        assert!(!r.violated, "a fresh read exceeded the budget");
                    }
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    };
    let drivers: Vec<_> = writers
        .into_iter()
        .zip(streams.clone())
        .map(|(mut writer, (table, mods))| {
            std::thread::spawn(move || {
                let c = client(addr, wait);
                for batch in mods[2 * BATCH..].chunks(BATCH) {
                    let landed = writer.submit(&c, table, batch.to_vec(), Duration::from_secs(60));
                    assert!(landed, "table {table}: a batch never landed");
                }
                writer
            })
        })
        .collect();
    let writers: Vec<StreamWriter> = drivers.into_iter().map(|d| d.join().unwrap()).collect();
    done.store(true, Ordering::Relaxed);
    reader.join().unwrap();

    let due = Instant::now() + Duration::from_secs(30);
    let merged = loop {
        match ctl.read(true, false) {
            Ok(r) if !r.degraded => break r,
            _ => assert!(
                Instant::now() < due,
                "no clean fresh read after the failover"
            ),
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(!merged.violated);
    let after = ctl.metrics_detailed(true).unwrap();
    eprintln!(
        "DEBUG failovers={} resolved={:?} stale={:?}",
        after.failovers,
        writers.iter().map(|w| w.resolved).collect::<Vec<_>>(),
        writers.iter().map(|w| w.stale_epochs).collect::<Vec<_>>()
    );
    assert!(after.failovers >= 1, "the leader never failed over");
    assert_eq!(after.shards_live, SHARDS as u64, "a shard is still dead");
    drop(ctl);

    let (finals, promotion_failures) = cluster.finish().unwrap();
    assert!(promotion_failures.is_empty(), "{promotion_failures:?}");
    for (writer, (table, mods)) in writers.iter().zip(&streams) {
        let applied: u64 = writer.applied.iter().sum();
        assert_eq!(
            applied,
            mods.len() as u64,
            "table {table}: stream not fully landed"
        );
        for (s, shard) in finals.iter().enumerate() {
            let logged = dml_records(&shard.log, Some(*table));
            assert_eq!(
                logged, writer.applied[s],
                "table {table} shard {s}: not exactly once"
            );
            let survived = acked_writes_survive(&writer.landed[s], &shard.log);
            assert!(
                survived,
                "table {table} shard {s}: an acknowledged write was lost"
            );
        }
    }
    assert_eq!(
        merged.checksum,
        direct_merged_checksum(&exp, &finals).unwrap()
    );
}
