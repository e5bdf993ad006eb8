//! Shard-merge correctness: for the paper view, N key-partitioned
//! runtimes — every modification routed by [`Partitioner::route`],
//! every read merged by [`merge_reads`], as the shard router does —
//! must be *observationally identical* to one unsharded runtime fed the
//! same stream — same Fresh-read rows, same order-independent checksum
//! — at every width, for any interleaving of partial flushes.
//!
//! The single runtime is deliberately driven as a 1-way set
//! ([`Partitioner::single`]) so both sides go through the exact same
//! route/merge/checksum pipeline; what differs is only the partitioning.
//! Flush schedules are *intentionally divergent* between the two sides
//! (seeded random ticks hit random shards), because the equivalence
//! claim is about state, not schedules: a Fresh read flushes
//! everything, so its result must not depend on which partial flushes
//! happened before it.

use aivm_bench::serve::{ServeExperiment, ServeOptions};
use aivm_engine::Modification;
use aivm_serve::{MaintenanceRuntime, ReadMode};
use aivm_shard::{merge_reads, MergeSpec, MergedRead, Partitioner, Route};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// N runtimes over the partitions of one database.
struct Shards {
    runtimes: Vec<MaintenanceRuntime>,
    part: Partitioner,
    merge: MergeSpec,
}

impl Shards {
    fn new(exp: &ServeExperiment, runtimes: Vec<MaintenanceRuntime>, part: Partitioner) -> Self {
        assert_eq!(runtimes.len(), part.shards());
        part.validate(exp.view_def())
            .expect("co-located partitioner");
        let merge = MergeSpec::from_def(exp.view_def()).expect("merge spec");
        Shards {
            runtimes,
            part,
            merge,
        }
    }

    /// Routes one modification to its owning shard (every shard for a
    /// replicated table).
    fn ingest(&mut self, table: usize, m: Modification) {
        match self.part.route(table, &m).expect("routable") {
            Route::One(s) => self.runtimes[s].ingest_dml(table, m).expect("ingest"),
            Route::All => {
                for rt in &mut self.runtimes {
                    rt.ingest_dml(table, m.clone()).expect("ingest");
                }
            }
        }
    }

    /// Reads every shard (a Fresh read flushes each under its own
    /// budget) and merges.
    fn read(&mut self, mode: ReadMode) -> MergedRead {
        let reads: Vec<_> = (self.runtimes.iter_mut())
            .map(|rt| rt.read(mode).expect("shard read"))
            .collect();
        merge_reads(&self.merge, &reads).expect("merge")
    }
}

fn build_exp(events_each: usize, seed: u64) -> ServeExperiment {
    ServeExperiment::build(ServeOptions {
        events_each,
        quick: true,
        seed,
        ..Default::default()
    })
    .expect("experiment builds")
}

/// One interleaved op against both runtimes.
enum Op {
    Ps(usize),
    Supp(usize),
    TickSingle,
    TickShard(usize),
    FreshCheck,
}

fn script(rng: &mut StdRng, shards: usize, events_each: usize) -> Vec<Op> {
    let (mut ps, mut supp) = (0usize, 0usize);
    let mut ops = Vec::new();
    while ps < events_each || supp < events_each {
        match rng.gen_range(0u32..100) {
            0..=34 if ps < events_each => {
                ops.push(Op::Ps(ps));
                ps += 1;
            }
            35..=69 if supp < events_each => {
                ops.push(Op::Supp(supp));
                supp += 1;
            }
            // Partial flushes land on each side independently: the
            // single runtime ticks at different points than any given
            // shard, so intermediate states diverge freely.
            70..=79 => ops.push(Op::TickSingle),
            80..=89 => ops.push(Op::TickShard(rng.gen_range(0..shards))),
            90..=93 => ops.push(Op::FreshCheck),
            _ => {}
        }
    }
    ops.push(Op::FreshCheck);
    ops
}

fn assert_equivalent(exp: &ServeExperiment, shards: usize, seed: u64) {
    let events_each = exp.ps_stream.len();
    // Reference: the unsharded runtime behind the same merge pipeline.
    let single_rt = exp
        .runtime(exp.policy("online").expect("known policy"))
        .expect("single runtime");
    let mut single = Shards::new(exp, vec![single_rt], Partitioner::single(exp.costs.len()));
    // Subject: the key-partitioned set with budget C/N per shard.
    let (runtimes, part) = exp
        .sharded_runtimes("online", shards)
        .expect("sharded runtimes");
    let mut sharded = Shards::new(exp, runtimes, part);

    let mut rng = StdRng::seed_from_u64(seed ^ 0xeda7);
    let mut checks = 0u32;
    for op in script(&mut rng, shards, events_each) {
        match op {
            Op::Ps(i) => {
                let m = exp.ps_stream[i].clone();
                single.ingest(exp.ps_pos, m.clone());
                sharded.ingest(exp.ps_pos, m);
            }
            Op::Supp(i) => {
                let m = exp.supp_stream[i].clone();
                single.ingest(exp.supp_pos, m.clone());
                sharded.ingest(exp.supp_pos, m);
            }
            Op::TickSingle => {
                single.runtimes[0].tick().expect("single tick");
            }
            Op::TickShard(i) => {
                sharded.runtimes[i].tick().expect("shard tick");
            }
            Op::FreshCheck => {
                checks += 1;
                let a = single.read(ReadMode::Fresh);
                let b = sharded.read(ReadMode::Fresh);
                assert!(!a.violated && !b.violated, "budget violated at a check");
                assert_eq!(
                    a.rows, b.rows,
                    "shards={shards} seed={seed}: fresh rows diverge at check {checks}"
                );
                assert_eq!(
                    a.checksum, b.checksum,
                    "shards={shards} seed={seed}: checksums diverge at check {checks}"
                );
            }
        }
    }
    assert!(checks >= 1, "script must end with a fresh check");

    // Ground truth: evaluate the view definition from scratch over each
    // shard's base tables and merge — the maintained, merged result
    // must equal direct evaluation, not just the other runtime.
    let direct_parts: Vec<Vec<aivm_engine::WRow>> = (sharded.runtimes.iter())
        .map(|rt| {
            let db = rt.database().expect("engine backend");
            exp.make_view(db).expect("direct view").result()
        })
        .collect();
    let direct = sharded.merge.merge(&direct_parts).expect("direct merge");
    let maintained = sharded.read(ReadMode::Fresh);
    assert_eq!(
        maintained.rows, direct,
        "shards={shards} seed={seed}: maintained result != direct evaluation"
    );
    assert_eq!(maintained.checksum, MergeSpec::checksum(&direct));
}

#[test]
fn sharded_runtime_matches_single_at_every_width() {
    let exp = build_exp(120, 2005);
    for shards in [1usize, 2, 4, 8] {
        assert_equivalent(&exp, shards, 7);
    }
}

#[test]
fn equivalence_holds_across_seeds_and_flush_interleavings() {
    let exp = build_exp(80, 11);
    for seed in [1u64, 2, 3] {
        assert_equivalent(&exp, 4, seed);
    }
}

#[test]
fn partitioner_colocates_the_join_key() {
    // The invariant that makes sharding compensation-free: partsupp and
    // supplier partition on the same join key (suppkey), so every
    // joined pair lands on one shard. `validate` must accept the paper
    // view, and rows agreeing on suppkey must agree on the shard.
    let exp = build_exp(10, 2005);
    let part = exp.partitioner(4).expect("valid partitioner");
    for key in 0..100i64 {
        let v = aivm_engine::Value::Int(key);
        let s = part.shard_of_key(&v);
        assert!(s < 4);
        assert_eq!(part.shard_of_key(&v), s, "hash must be deterministic");
    }
    // A partitioner keying the two tables on *different* columns of the
    // join must be rejected.
    let mut bad_cols = vec![None; exp.costs.len()];
    bad_cols[exp.ps_pos] = Some(1); // partsupp.partkey — not the join key
    bad_cols[exp.supp_pos] = Some(0);
    let bad = Partitioner::new(4, bad_cols).expect("constructible");
    assert!(
        bad.validate(exp.view_def()).is_err(),
        "mis-keyed partitioner must fail co-location validation"
    );
}
