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

# Whatever the run builds or writes must be ignored or cleaned up: the
# tree is compared with this snapshot at the end.
tree_before=$(git status --porcelain)

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
# minutes, not in the last gate. --locked for the same reason: a
# product-manifest change that would rewrite the frozen perf/Cargo.lock
# (a dependency edge added or dropped) fails here with cargo's "cannot
# update the lock file", not only in the dirty-tree check at the end.
cargo build --release --offline --locked --manifest-path perf/Cargo.toml

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

echo "==> net gate (wire codec, conformance, connections, client, end to end over TCP)"
# tests/conformance.rs: one request script against bind, bind_registry
# and bind_sharded (1, 2 and 4 shards), identical responses up to the
# declared differences (shards, views, hub on one shard). tests/server.rs:
# 1000 connections held open at once, each submitting and reading, none
# rejected, final view == direct evaluation; a stale Update rejected
# while the scheduler keeps serving. net_e2e: concurrent clients over
# TCP land on direct evaluation with every event submitted once.
cargo test -q --release -p aivm-net -p aivm-client
cargo test -q --release --test net_e2e

echo "==> snapshot consistency + columnar/flush equivalence (release)"
# Property tests: concurrent snapshot reads only ever observe processed-
# prefix checksums; flushes at widths 1/2/4/8 are bit-identical; the
# columnar pending-delta layout matches the row-layout oracle; decoded
# Submit frames allocate nothing.
cargo test -q --release --test snapshot_consistency
cargo test -q --release --test columnar_delta
cargo test -q --release -p aivm-net --test zero_alloc

echo "==> shard gate (equivalence at widths 1/2/4/8, budget coordinator, kill-one-shard)"
# Property tests: N key-partitioned runtimes, routed and merged as the
# router does, are bit-identical to a single runtime at widths 1/2/4/8
# under randomized partial flushes, and mis-keyed partitioners fail
# co-location validation. aivm-shard's own tests: uniform and
# cost-proportional budget splits sum to C, and the running coordinator
# moves budget toward the loaded shard.
cargo test -q --release -p aivm-bench --test shard_equivalence
cargo test -q --release -p aivm-shard
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
# Failover under live load: a leader dies while a writer per table and
# a reader keep going; a submit whose ack was lost is resolved against
# the shard's log, never skipped. Followers healthy at epoch 1 before,
# >= 1 promotion and every shard live after, every stream applied
# exactly once, no acked write lost, merged == direct evaluation.
timeout 120 cargo test -q --release -p aivm-bench --test failover_under_load

echo "==> multi-view registry gate (shared SPJ cores + push subscriptions)"
# aivm-engine's unit tests (tier-1 covers only the root package, and
# --fast skips the workspace pass): a sharing group's one core and its
# leaves match independent views, a late view joins its group with
# modifications pending, routing and DML reach only dependent groups.
# Property tests over real sockets: the registry is bit-identical to N
# independent single-view servers on the same stream; a subscriber
# killed and resumed at every seq folds each batch exactly once with no
# gap or duplicate; off-ring and never-draining subscribers degrade to
# snapshot resync without stalling the flush path; 32 views with 64
# subscribers folding while writers run all land on direct evaluation,
# every pushed delta's post-fold checksum verified. Timeboxed.
cargo test -q --release -p aivm-engine
timeout 120 cargo test -q --release -p aivm-net --test multiview_equivalence \
  --test subscription_resume

echo "==> live-column propagation gate (random views x schedules x widths x registry)"
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

echo "==> the run left the tree as it found it"
if [[ "$(git status --porcelain)" != "$tree_before" ]]; then
  git status --porcelain >&2
  echo "ci.sh changed the working tree (ignore build outputs in .gitignore)" >&2
  exit 1
fi

echo "CI gate passed."
