#!/usr/bin/env bash
# Records a benchmark snapshot as BENCH_<date>.json in the repo root:
# one JSON line per benchmark (from the criterion harness's TFX_BENCH_JSON
# hook) plus a leading host-info line, so numbers from different machines
# are never compared blind.
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
printf '{"host":{"date":"%s","cores":%s,"kernel":"%s","rustc":"%s","shard_counts":[1,2,4,8]}}\n' \
  "$(date -u +%FT%TZ)" "$cores" "$(uname -r)" \
  "$(rustc --version | tr -d '"')" > "$tmp"

export TFX_BENCH_WARMUP_MS="${TFX_BENCH_WARMUP_MS:-100}"
export TFX_BENCH_MEASURE_MS="${TFX_BENCH_MEASURE_MS:-300}"
export TFX_BENCH_JSON="$tmp"

# fleet_throughput is the fleet_routing/disjoint label-routing sweep (and
# asserts the fleet-vs-engines-apart guard before timing).
cargo bench --offline -p tfx-bench --bench fleet_throughput
cargo bench --offline -p tfx-bench --bench micro
cargo bench --offline -p tfx-bench --bench adjacency_scan
cargo bench --offline -p tfx-bench --bench dcg_ops
cargo bench --offline -p tfx-bench --bench window_churn
cargo bench --offline -p tfx-bench --bench motif

cargo bench --offline -p tfx-bench --bench shard_scaling

mv "$tmp" "$out"
trap - EXIT
echo "wrote $out ($(wc -l < "$out") lines)"
