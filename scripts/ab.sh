#!/usr/bin/env bash
# A/B of the end-to-end benchmark: the working tree against a revision, in
# alternating pairs of single measurements, so that neither side always runs
# first on a host whose speed drifts.
#
# usage: scripts/ab.sh <rev> [--workloads W,...] [--pairs N]
#   --workloads  comma-separated e2e workloads (default: all six)
#   --pairs      measurement pairs per workload (default: 10)
#
# Builds both sides with scripts/probe_code.sh (the revision as a `git
# archive` copy under out/) and refuses to run when the host probe compiled
# to different code, since that skews every normalised metric. Pair k runs
# the revision first when k is odd and the working tree first when k is
# even; every measurement is `e2e --workload W`, at e2e's defaults (seed
# 2018, the benchmark's 18 s, untraced). Prints, per workload and end-to-end
# metric of BENCHMARK.json, both medians, their ratio (tree / revision), in
# how many pairs each side led and each side's quartiles (Q1..Q3) and range
# (min..max), then any failed checks; where the two ranges overlap, the ratio
# is within the noise of the pairs. Raw results go to out/ab-<sha>.jsonl,
# the printed summary as JSON to out/ab-<sha>.json. Exits 1 when a
# measurement fails a check. Run it on an otherwise idle host.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  echo "usage: scripts/ab.sh <rev> [--workloads W,...] [--pairs N]" >&2
  exit 2
}
[ $# -ge 1 ] || usage
rev="$1"
shift
workloads=netflow_window,netflow_shards2,netflow_enum,lsbench_maint,lsbench_fleet8,ingest_selective
pairs=10
while [ $# -gt 0 ]; do
  [ $# -ge 2 ] || usage
  case "$1" in
    --workloads) workloads="$2" ;;
    --pairs) pairs="$2" ;;
    *) usage ;;
  esac
  shift 2
done
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || usage

if ! scripts/probe_code.sh "$rev"; then
  echo "ab: the host probe differs between $rev and the working tree; no A/B" >&2
  exit 1
fi
sha=$(git rev-parse --short "$rev^{commit}")
bin_rev="out/probe-$sha/crates/bench/src/bin/e2e/target/release/e2e"
bin_tree=crates/bench/src/bin/e2e/target/release/e2e
log="out/ab-$sha.jsonl"
summary="out/ab-$sha.json"
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

python3 - "$log" "$sha" "$summary" << 'EOF'
import json, statistics, sys

log, sha, out = sys.argv[1], sys.argv[2], sys.argv[3]
metrics = json.load(open("BENCHMARK.json"))["end_to_end"]
runs = [json.loads(l) for l in open(log)]
bad = [r for r in runs if not r["result"] or r["result"]["failed"] or not r["result"]["correct"]]


def spread(v):
    q1, med, q3 = statistics.quantiles(v, n=4, method="inclusive") if len(v) > 1 else v * 3
    return {"median": med, "q1": q1, "q3": q3, "min": min(v), "max": max(v)}


def cell(s):
    return f"{s['q1']:.6g}..{s['q3']:.6g} ({s['min']:.6g}..{s['max']:.6g})"


summary = {"rev": sha, "workloads": {}, "failed": []}
print(f"{'workload':<17} {'metric':<21} {sha:>12} {'tree':>12} {'ratio':>7}  {'led rev/tree':<14}"
      f" {sha + ' Q1..Q3 (min..max)':<42} tree Q1..Q3 (min..max)")
for w in dict.fromkeys(r["workload"] for r in runs):
    by = {}
    for r in runs:
        if r["workload"] == w and r["result"]:
            by.setdefault(r["pair"], {})[r["side"]] = r["result"]["metrics"]
    pairs = [p for p in by.values() if "rev" in p and "tree" in p]
    rows = summary["workloads"].setdefault(w, {})
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        got = [(p["rev"][name]["value"], p["tree"][name]["value"]) for p in pairs
               if name in p["rev"] and name in p["tree"]]
        if not got:
            continue
        xs, ys = [x for x, _ in got], [y for _, y in got]
        a, b = spread(xs), spread(ys)
        led_tree = sum((y < x) if lower else (y > x) for x, y in got)
        led_rev = sum((x < y) if lower else (x > y) for x, y in got)
        ratio = b["median"] / a["median"] if a["median"] else float("nan")
        rows[name] = {"pairs": len(got), "rev": a, "tree": b, "ratio": ratio,
                      "led_rev": led_rev, "led_tree": led_tree}
        led = f"{led_rev}/{led_tree} of {len(got)}"
        print(f"{w:<17} {name:<21} {a['median']:>12.6g} {b['median']:>12.6g} {ratio:>7.3f}"
              f"  {led:<14} {cell(a):<42} {cell(b)}")
for r in bad:
    summary["failed"].append({k: r[k] for k in ("workload", "pair", "side")})
    print(f"ab: FAILED {r['workload']} pair {r['pair']} on {r['side']}", file=sys.stderr)
with open(out, "w") as f:
    json.dump(summary, f, indent=1)
    f.write("\n")
sys.exit(1 if bad else 0)
EOF
