#!/usr/bin/env bash
# Local CI gate: formatting, lints, tier-1 tests, and a smoke repro run.
#
#   ./ci.sh          # full gate (workspace tests + quick figure sweep)
#   ./ci.sh --fast   # skip the release workspace test pass (lint + tier-1)
#
# Mirrors what a hosted workflow would run; keep it green before pushing.
set -euo pipefail
cd "$(dirname "$0")"

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets --release -- -D warnings

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q --release

echo "==> perf/ still builds against this tree (frozen package, API check)"
# perf/ is a package of its own that compiles against the product
# crates' public API and may not be edited alongside them; a rename or
# signature change that breaks it should fail here, in the first
# minutes, not in the last gate.
cargo build --release --offline --manifest-path perf/Cargo.toml

echo "==> perf contract (the benchmark's own invocation, all five workloads)"
# The benchmark driver runs `perf --workload W ...` and reads only the
# last stdout line; anything else there makes the run `output_malformed`.
# A product crate printing to stdout (a scheduler thread saying goodbye
# at shutdown, say) would become that line, so the product crates stay
# silent on stdout, and every workload's last line must be one JSON
# object: correct, nothing failed, the four end-to-end metrics present.
if grep -rn 'println!' crates/aivm-{serve,net,shard,client,engine}/src; then
  echo "product crates must not print to stdout" >&2
  exit 1
fi
for workload in replay-balanced replay-skew wire-ps-closed views-mixed-open \
  cluster-durable-closed; do
  last=$(cargo run --release --offline --quiet --manifest-path perf/Cargo.toml -- \
    --workload "$workload" --seed 2005 --seconds 2 --trace 0 | tail -n 1)
  if ! jq -se 'length == 1 and (.[0] | type == "object" and .correct == true
      and .failed == 0 and (.metrics | has("setup_s") and has("events_per_s")
      and has("fresh_read_p50_ms") and has("cpu_s_per_mevent")))' \
      <<<"$last" >/dev/null; then
    echo "perf $workload: malformed or failing verdict: $last" >&2
    exit 1
  fi
done

if [[ $fast -eq 0 ]]; then
  echo "==> workspace tests (release)"
  cargo test -q --release --workspace
fi

echo "==> smoke repro (quick scales, serial)"
cargo build --release -p aivm-bench --bin repro
./target/release/repro --quick --threads 1 intro fig6 bounds >/dev/null

echo "==> smoke repro (quick scales, 4 worker threads)"
./target/release/repro --quick --threads 4 fig6 fig7 >/dev/null

echo "==> serve runtime gate (violations or replay mismatch fail the run)"
cargo build --release -p aivm-serve
cargo test -q --release -p aivm-serve
for policy in naive online planned; do
  echo "    serve --policy $policy"
  ./target/release/repro serve --quick --policy "$policy" --duration 5s >/dev/null
done

echo "==> degradation smoke (injected policy panic must demote, zero violations)"
./target/release/repro serve --quick --policy planned --duration 5s \
  --inject-policy-panic 5 >/dev/null

echo "==> chaos gate (crash/recover equivalence at sampled kill indices)"
./target/release/repro chaos --seeds 8 --events 2000 >/dev/null

echo "==> net gate (wire codec, conformance + client tests, then a 5s loadgen smoke over TCP)"
# Includes tests/conformance.rs: one request script against bind,
# bind_registry and bind_sharded (1 and 2 shards), identical responses
# up to the declared differences (shards, views, hub on one shard).
cargo test -q --release -p aivm-net -p aivm-client
# Exits nonzero on any budget violation, protocol error, or a sustained
# throughput below the 50k events/s floor; appends BENCH_net.json.
AIVM_BENCH_LABEL=ci ./target/release/repro loadgen --quick --duration 5s \
  --min-throughput 50000 >/dev/null

echo "==> snapshot read gate (read-heavy Stale mix served wait-free from snapshots)"
# Fails on any Fresh budget violation, a reads/s rate below the floor, or
# a stale-read p99 above the ceiling; appends BENCH_net.json with the
# read mix, read latencies, and flush thread count.
AIVM_BENCH_LABEL=ci ./target/release/repro loadgen --quick --duration 5s \
  --mix read-heavy --read-mode stale --min-reads 5000 --max-stale-p99-ms 20 >/dev/null

echo "==> high-concurrency gate (1000 closed-loop clients over the event loop)"
# The event-loop server multiplexes 1000 connections over its fixed
# worker pool; the floor is well above the ~130k/s thread-per-connection
# plateau's *headroom* at this client count (typical: 105-145k ev/s).
# Any Fresh budget violation or protocol error also fails the run.
AIVM_BENCH_LABEL=ci ./target/release/repro loadgen --quick --duration 5s \
  --events 100000 --clients 1000 --min-throughput 80000 >/dev/null

echo "==> snapshot consistency + columnar/flush equivalence (release)"
# Property tests: concurrent snapshot reads only ever observe processed-
# prefix checksums; flushes at widths 1/2/4/8 are bit-identical; the
# columnar pending-delta layout matches the row-layout oracle; decoded
# Submit frames allocate nothing.
cargo test -q --release --test snapshot_consistency
cargo test -q --release --test columnar_delta
cargo test -q --release -p aivm-net --test zero_alloc

echo "==> shard gate (equivalence at widths 1/2/4/8, sharded loadgen, kill-one-shard)"
# Property tests: N key-partitioned runtimes, routed and merged as the
# router does, are bit-identical to a single runtime at widths 1/2/4/8
# under randomized partial flushes, and mis-keyed partitioners fail
# co-location validation.
cargo test -q --release -p aivm-bench --test shard_equivalence
# 4-shard serving over TCP: hashed submits, scatter-gather reads,
# per-shard budgets C/4, cost-proportional rebalancing. Fails on any
# budget violation, protocol error, or throughput under the floor.
AIVM_BENCH_LABEL=ci ./target/release/repro loadgen --quick --duration 5s \
  --shards 4 --min-throughput 40000 >/dev/null
# Kill one of three shards mid-stream over the wire: typed
# ShardUnavailable rejections, degraded reads, WAL recovery + rejoin,
# merged checksum equal to direct evaluation.
./target/release/repro chaos --seeds 2 --events 1000 --shards 3 >/dev/null

echo "==> failover gate (kill-the-leader, WAL tail-streamed follower promotion)"
# Kill shard 0's leader at a sampled WAL boundary, direct and through
# the deterministic fault proxy: zero acked-write loss, StaleEpoch
# fencing of the deposed lineage, follower staleness <= C + replication
# lag, merged checksum equal to direct evaluation. Timeboxed so a hung
# promotion fails the gate instead of wedging CI.
timeout 120 ./target/release/repro chaos --seeds 2 --events 1000 \
  --shards 2 --replicas --kill-leader >/dev/null
# Failover under live closed-loop load: --kill-leader murders a leader
# mid-run; the gate requires >= 1 promotion and every shard live at exit.
AIVM_BENCH_LABEL=ci timeout 120 ./target/release/repro loadgen --quick \
  --duration 5s --shards 2 --replicas --kill-leader >/dev/null

echo "==> multi-view registry gate (shared propagation + push subscriptions)"
# Property tests over real sockets: the registry is bit-identical to N
# independent single-view servers on the same stream; a subscriber
# killed and resumed at every seq folds each batch exactly once with no
# gap or duplicate; off-ring and never-draining subscribers degrade to
# snapshot resync without stalling the flush path.
cargo test -q --release -p aivm-net --test multiview_equivalence --test subscription_resume
# Engine-level head-to-head: one registry serving 32 views must beat 32
# independent runtimes, bit-identical checksums, zero violations.
AIVM_BENCH_LABEL=ci ./target/release/repro --quick multiview --views 32 >/dev/null
# One base-delta stream fanning to 32 registered views and 64 live push
# subscribers over TCP: every folded delta checksum-verified, zero
# per-view staleness violations, events/s floor enforced. Timeboxed.
AIVM_BENCH_LABEL=ci timeout 120 ./target/release/repro loadgen --quick \
  --duration 5s --views 32 --subscribers 64 --min-throughput 20000 >/dev/null

echo "==> skew gate (heavy-light equivalence + zipfian skewsweep smoke)"
# Property tests: heavy-light partitioned maintenance is bit-identical
# to the unpartitioned engine across random promotion thresholds, flush
# widths 1/2/4/8, mid-stream reclassification points, and WAL
# recovery-replay.
cargo test -q --release -p aivm-bench --test heavy_light_equivalence
# Quick zipfian sweep over PartSupp ⋈ Supplier: paired plain/heavy runs
# must agree bit-for-bit at every skew, with zero freshness violations,
# zero scan fallbacks, no more join rows emitted heavy than plain, and
# heavy p99 within a fixed factor of the uniform baseline and of the
# plain engine. Timeboxed so a wedged classifier fails the gate instead
# of hanging CI.
AIVM_BENCH_LABEL=ci timeout 180 ./target/release/repro --quick skewsweep >/dev/null

echo "==> live-column propagation gate (random views x schedules x widths x heavy-light x registry)"
# Property test over a fixed seed list: pruned, once-consolidated
# propagation equals direct evaluation after every flush, bit-identical
# across every configuration (SUM/AVG included). Timeboxed.
LIVE_COLUMNS_SEEDS="$(seq -s, 0 63)" timeout 300 \
  cargo test -q --release --test live_columns

echo "==> layered benchmark gate (perf's own tests + a smoke run of all five workloads)"
# The benchmark every performance claim is measured with must build and
# pass its output checks against this tree; numbers are not gated here.
timeout 600 cargo test -q --release --offline --manifest-path perf/Cargo.toml
timeout 600 cargo run --release --offline --quiet --manifest-path perf/Cargo.toml -- \
  run --smoke >/dev/null

echo "==> serve throughput baseline (BENCH_serve.json)"
AIVM_BENCH_FAST=1 AIVM_BENCH_LABEL=ci cargo bench -p aivm-bench --bench serve >/dev/null

echo "CI gate passed."
