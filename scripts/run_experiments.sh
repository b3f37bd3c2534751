#!/usr/bin/env bash
# Reproduces every figure of the paper's evaluation at laptop scale: one
# `figures <id>` run per experiment, tables to <outdir>/<id>.txt (progress on
# stderr). The committed results/<id>.txt are summarized in EXPERIMENTS.md.
#
# The scale is the `figures` defaults (`tfx_bench::params`, the run
# configuration EXPERIMENTS.md records); `TFX_*` variables override it.
#
# usage: scripts/run_experiments.sh [outdir]     (default: results)
set -u
cd "$(dirname "$0")/.."
out="${1:-results}"
mkdir -p "$out"
cargo build --offline --release -p tfx-bench --bin figures || exit 1
failed=0
for id in $(target/release/figures --list); do
  start=$(date +%s.%N)
  if target/release/figures "$id" > "$out/$id.txt"; then
    end=$(date +%s.%N)
    echo "ok: $id ($(echo "$end $start" | awk '{printf "%.1f", $1-$2}')s)"
  else
    echo "FAILED: $id"
    failed=1
  fi
done
exit "$failed"
