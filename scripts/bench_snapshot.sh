#!/usr/bin/env bash
# Records a benchmark snapshot as BENCH_<date>.json in the repo root:
# one JSON line per benchmark (from the criterion harness's TFX_BENCH_JSON
# hook) plus a leading host-info line, so numbers from different machines
# are never compared blind (the fleet benchmarks are core-count sensitive).
#
# Tunables (defaults keep a full run under a few minutes):
#   TFX_BENCH_WARMUP_MS   warmup per benchmark        (default 100)
#   TFX_BENCH_MEASURE_MS  measurement per benchmark   (default 300)
set -euo pipefail
cd "$(dirname "$0")/.."

out="BENCH_$(date +%F).json"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

cores=$(nproc 2>/dev/null || echo 1)
# Shard/worker configuration of the parallel benchmark groups, recorded
# next to the core count so scaling numbers are never read blind: the
# shard_scaling groups run shards ∈ {1,2,4,8} with one worker per shard,
# and the fleet groups parallelize across engines.
printf '{"host":{"date":"%s","cores":%s,"kernel":"%s","rustc":"%s","shard_counts":[1,2,4,8],"workers_per_shard":1,"fleet_threads":%s}}\n' \
  "$(date -u +%FT%TZ)" "$cores" "$(uname -r)" \
  "$(rustc --version | tr -d '"')" "$cores" > "$tmp"

export TFX_BENCH_WARMUP_MS="${TFX_BENCH_WARMUP_MS:-100}"
export TFX_BENCH_MEASURE_MS="${TFX_BENCH_MEASURE_MS:-300}"
export TFX_BENCH_JSON="$tmp"

# fleet_throughput also covers the fleet_routing/disjoint label-routing
# sweep (and asserts the fleet-vs-engines-apart guard before timing).
cargo bench --offline -p tfx-bench --bench fleet_throughput
cargo bench --offline -p tfx-bench --bench micro
cargo bench --offline -p tfx-bench --bench adjacency_scan
cargo bench --offline -p tfx-bench --bench dcg_ops
cargo bench --offline -p tfx-bench --bench explosive_update
cargo bench --offline -p tfx-bench --bench window_churn
cargo bench --offline -p tfx-bench --bench motif

# shard_scaling measures cross-partition speedup; on a single core the
# worker barriers can only add overhead, so a 1-core snapshot would
# record pure scheduler churn as if it were the runtime's scaling curve.
if [ "$cores" -gt 1 ]; then
  cargo bench --offline -p tfx-bench --bench shard_scaling
else
  echo "bench_snapshot: skipping shard_scaling — host has 1 core;" \
       "shard speedups need a multi-core runner (shards=1 parity is" \
       "still covered by the overhead assertions in the bench itself)" >&2
fi

mv "$tmp" "$out"
trap - EXIT
echo "wrote $out ($(wc -l < "$out") lines)"
