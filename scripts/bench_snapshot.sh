#!/usr/bin/env bash
# Records one point of the perf trajectory: builds, runs the end-to-end
# benchmark (all six workloads, three untraced and one traced measurement
# each, about 9 minutes) into results/e2e/pr<N>.json, and prints
# `e2e compare` against the newest earlier snapshot — which refuses to judge
# across a moved host (`host.calib_ms`, "unresolved") and makes this script
# exit non-zero on any "worse".
#
# usage: scripts/bench_snapshot.sh [N]
#   N  the PR the snapshot belongs to (default: one past the newest snapshot)
#
# Commit the file: scripts/ci.sh compares the two newest committed snapshots.
set -euo pipefail
cd "$(dirname "$0")/.."

dir=results/e2e
e2e=(cargo run --release --offline --quiet
  --manifest-path crates/bench/src/bin/e2e/Cargo.toml --)
# The PR numbers that have a snapshot, ascending.
numbers() {
  find "$dir" -name 'pr*.json' 2> /dev/null \
    | sed -n 's|.*/pr\([0-9][0-9]*\)\.json$|\1|p' | sort -n
}

newest=$(numbers | tail -n1)
n="${1:-$((${newest:-0} + 1))}"
prev=$(numbers | awk -v n="$n" '$1 < n' | tail -n1)

# The benchmark cross-checks its in-process run against target/release/tfx.
cargo build --offline --release
"${e2e[@]}" --out "$dir/pr$n.json"

if [ -n "$prev" ]; then
  "${e2e[@]}" compare "$dir/pr$prev.json" "$dir/pr$n.json"
else
  echo "no earlier snapshot under $dir: nothing to compare pr$n.json with"
fi
