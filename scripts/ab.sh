#!/usr/bin/env bash
# A/B of the end-to-end benchmark: the working tree against a revision, in
# alternating pairs of single measurements, so that neither side always runs
# first on a host whose speed drifts.
#
# usage: scripts/ab.sh <rev> [--workloads W,...] [--pairs N] [--pr N]
#   --workloads  comma-separated e2e workloads (default: all six)
#   --pairs      measurement pairs per workload (default: 10)
#   --pr         also write the summary, verdicts included, to
#                results/ab/pr<N>.json (the file scripts/ci.sh gates on)
#
# Builds both sides with scripts/probe_code.sh (the revision as a `git
# archive` copy under out/) and refuses to run when the host probe compiled
# to different code, since that skews every normalised metric. Pair k runs
# the revision first when k is odd and the working tree first when k is
# even; every measurement is `e2e --workload W`, at e2e's defaults (seed
# 2018, the benchmark's 18 s, untraced). Then `scripts/ab.py summarise`
# prints, per workload and end-to-end metric of BENCHMARK.json, both medians,
# their ratio (tree / revision), its verdict against BENCHMARK.json's bound
# (better, same, worse, or unresolved where a side's quartile spread exceeds
# the bound), in how many pairs each side led and each side's quartiles
# (Q1..Q3) and range (min..max), then any failed checks; where the two ranges
# overlap, the ratio is within the noise of the pairs. Raw results go to
# out/ab-<sha>-<UTC time>.jsonl, the summary as JSON to
# out/ab-<sha>-<UTC time>.json, so no run overwrites another. Exits 1 when a
# measurement fails a check or a row reads worse. Run it on an otherwise idle
# host.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  echo "usage: scripts/ab.sh <rev> [--workloads W,...] [--pairs N] [--pr N]" >&2
  exit 2
}
[ $# -ge 1 ] || usage
rev="$1"
shift
workloads=netflow_window,netflow_shards2,netflow_enum,lsbench_maint,lsbench_fleet8,ingest_selective
pairs=10
pr=
while [ $# -gt 0 ]; do
  [ $# -ge 2 ] || usage
  case "$1" in
    --workloads) workloads="$2" ;;
    --pairs) pairs="$2" ;;
    --pr) pr="$2" ;;
    *) usage ;;
  esac
  shift 2
done
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || usage
[[ -z "$pr" || "$pr" =~ ^[1-9][0-9]*$ ]] || usage

if ! scripts/probe_code.sh "$rev"; then
  echo "ab: the host probe differs between $rev and the working tree; no A/B" >&2
  exit 1
fi
sha=$(git rev-parse --short "$rev^{commit}")
bin_rev="out/probe-$sha/crates/bench/src/bin/e2e/target/release/e2e"
bin_tree=crates/bench/src/bin/e2e/target/release/e2e
stamp=$(date -u +%Y%m%dT%H%M%SZ)
log="out/ab-$sha-$stamp.jsonl"
summary="out/ab-$sha-$stamp.json"
: > "$log"

# Runs one measurement of workload $1 on side $2 in pair $3 and appends its
# result line, tagged, to the log.
measure() {
  local bin="$bin_rev"
  [ "$2" = tree ] && bin="$bin_tree"
  local line
  line=$("$bin" --workload "$1" 2> /dev/null | tail -n1) || true
  printf '{"workload":"%s","side":"%s","pair":%d,"result":%s}\n' "$1" "$2" "$3" \
    "${line:-null}" >> "$log"
}

IFS=, read -r -a names <<< "$workloads"
for w in "${names[@]}"; do
  for ((k = 1; k <= pairs; k++)); do
    echo "ab: $w pair $k/$pairs" >&2
    if ((k % 2)); then
      measure "$w" rev "$k"
      measure "$w" tree "$k"
    else
      measure "$w" tree "$k"
      measure "$w" rev "$k"
    fi
  done
done

status=0
python3 scripts/ab.py summarise "$log" "$sha" "$summary" || status=$?
if [ -n "$pr" ]; then
  cp "$summary" "results/ab/pr$pr.json"
  summary="$summary and results/ab/pr$pr.json"
fi
echo "ab: raw results in $log, summary in $summary" >&2
exit "$status"
