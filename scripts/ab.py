#!/usr/bin/env python3
"""Summaries and verdicts of an A/B of the end-to-end benchmark.

usage: scripts/ab.py summarise <log> <rev> <out>
       scripts/ab.py judge <ab.json>
       scripts/ab.py test

`summarise` reads the raw log of `scripts/ab.sh` (one line per measurement:
workload, side, pair and e2e's result line) and prints, per workload and
end-to-end metric of BENCHMARK.json, both medians, their ratio (tree /
revision), the row's verdict, in how many pairs each side led and each
side's quartiles (Q1..Q3) and range (min..max); it writes the same as JSON to
<out>. A run whose result is not JSON, or that failed a check, is listed
under "failed", and the other runs are summarised.

A verdict reads a row against the metric's bound in BENCHMARK.json: better
or worse when the ratio of the medians lies beyond the bound, same within
it, and unresolved when either side's own quartile spread exceeds the bound,
since the pairs cannot tell then. `judge` recomputes every row's verdict of a
summary from its stored medians and quartiles, which is what scripts/ci.sh
gates on. Both exit 1 on a worse row or a failed run, `judge` 2 on a file it
cannot read. `test` runs this file's own tests. Reads BENCHMARK.json from
the working directory; needs nothing beyond the standard library.
"""

import contextlib
import io
import json
import math
import os
import statistics
import sys
import tempfile


def verdict(rev, tree, lower, bound):
    """Judges the tree's side against the revision's (each a dict with
    `median`, `q1` and `q3`) for a metric whose better direction is lower
    (`lower`) or higher, against `bound`, a share of the revision's median."""

    def spread(side):
        # The interquartile range as a share of the median; a median of 0
        # makes it undefined, and the row unresolved.
        return (side["q3"] - side["q1"]) / side["median"] if side["median"] else math.nan

    if not (spread(rev) <= bound and spread(tree) <= bound):
        return "unresolved"
    # Positive when the tree is worse, as a share of the revision.
    worsening = tree["median"] / rev["median"] - 1 if lower else 1 - tree["median"] / rev["median"]
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "same"


def judge(summary, benchmark):
    """Every (workload, metric, ratio, bound, verdict) of an A/B `summary`
    whose metric `benchmark` (BENCHMARK.json) bounds, in the summary's order.
    A row that lacks a side's median or quartiles is an error."""
    metrics = {m["name"]: m for m in benchmark["end_to_end"]}
    rows = []
    for workload, cells in summary["workloads"].items():
        for name, cell in cells.items():
            if name not in metrics:
                continue
            sides = [cell.get(s) for s in ("rev", "tree")]
            if not all(isinstance(s, dict) and {"median", "q1", "q3"} <= s.keys() for s in sides):
                raise ValueError(f"{workload} {name}: a side lacks its median or quartiles")
            (rev, tree), m = sides, metrics[name]
            ratio = tree["median"] / rev["median"] if rev["median"] else math.nan
            v = verdict(rev, tree, m["better"] == "lower", m["bound"])
            rows.append((workload, name, ratio, m["bound"], v))
    return rows


def read_log(path):
    """The runs of an ab.sh log, each {workload, side, pair, result}; a
    result line that is not JSON reads as None."""
    runs = []
    for line in open(path):
        tag, _, result = line.rstrip("\n").partition(',"result":')
        run = json.loads(tag + "}")
        try:
            run["result"] = json.loads(result[:-1])
        except ValueError:
            run["result"] = None
        runs.append(run)
    return runs


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def summarise(log, rev, out, benchmark):
    """Summarises the log into `out`; true when no row is worse and no run
    failed."""
    runs = read_log(log)
    bad = [r for r in runs if not isinstance(r["result"], dict)
           or r["result"].get("failed") or not r["result"].get("correct")]
    summary = {"rev": rev, "workloads": {}, "failed": []}
    for w in dict.fromkeys(r["workload"] for r in runs):
        by = {}
        for r in runs:
            if r["workload"] == w and r not in bad:
                by.setdefault(r["pair"], {})[r["side"]] = r["result"]["metrics"]
        pairs = [p for p in by.values() if "rev" in p and "tree" in p]
        rows = summary["workloads"].setdefault(w, {})
        for m in benchmark["end_to_end"]:
            name, lower = m["name"], m["better"] == "lower"
            got = [(p["rev"][name]["value"], p["tree"][name]["value"]) for p in pairs
                   if name in p["rev"] and name in p["tree"]]
            if not got:
                continue
            a, b = spread([x for x, _ in got]), spread([y for _, y in got])
            rows[name] = {"pairs": len(got), "rev": a, "tree": b,
                          "ratio": b["median"] / a["median"] if a["median"] else math.nan,
                          "led_rev": sum((x < y) if lower else (x > y) for x, y in got),
                          "led_tree": sum((y < x) if lower else (y > x) for x, y in got)}
    judged = judge(summary, benchmark)
    for w, name, _, _, v in judged:
        summary["workloads"][w][name]["verdict"] = v

    def cell(s):
        return f"{s['q1']:.6g}..{s['q3']:.6g} ({s['min']:.6g}..{s['max']:.6g})"

    print(f"{'workload':<17} {'metric':<21} {rev:>12} {'tree':>12} {'ratio':>7} {'verdict':<10}"
          f" {'led rev/tree':<14} {rev + ' Q1..Q3 (min..max)':<42} tree Q1..Q3 (min..max)")
    for w, rows in summary["workloads"].items():
        for name, r in rows.items():
            led = f"{r['led_rev']}/{r['led_tree']} of {r['pairs']}"
            print(f"{w:<17} {name:<21} {r['rev']['median']:>12.6g} {r['tree']['median']:>12.6g}"
                  f" {r['ratio']:>7.3f} {r['verdict']:<10} {led:<14} {cell(r['rev']):<42} {cell(r['tree'])}")
    for r in bad:
        summary["failed"].append({k: r[k] for k in ("workload", "pair", "side")})
        print(f"ab: FAILED {r['workload']} pair {r['pair']} on {r['side']}", file=sys.stderr)
    with open(out, "w") as f:
        json.dump(summary, f, indent=1)
        f.write("\n")
    worse = sum(v == "worse" for *_, v in judged)
    print(f"{worse} worse, {len(bad)} failed runs")
    return worse == 0 and not bad


def judge_file(path, benchmark):
    """Prints every row's verdict of the summary at `path`; true when no row
    is worse and no run failed."""
    summary = json.load(open(path))
    print(f"{path}: the working tree against {summary.get('rev', '?')}")
    rows = judge(summary, benchmark)
    for w, m, ratio, bound, v in rows:
        print(f"  {w:<17} {m:<21} ratio {ratio:>7.4f}  bound {100 * bound:>3.0f}%  {v}")
    worse, failed = sum(v == "worse" for *_, v in rows), len(summary.get("failed", []))
    print(f"{worse} worse, {failed} failed runs")
    return worse == 0 and failed == 0


def tight(median, half):
    """A side whose runs sit within ±`half` of `median`."""
    return {"median": median, "q1": median - half, "q3": median + half}


def test_the_ratio_of_medians_against_the_bound():
    # A time at a 25 % bound: 30 % up is worse, 30 % down better, 20 % up
    # the same.
    def time(tree):
        return verdict(tight(1.0, 0.01), tight(tree, 0.01), True, 0.25)

    assert [time(1.30), time(0.70), time(1.20)] == ["worse", "better", "same"]
    # A throughput reads the other way round.
    def rate(tree):
        return verdict(tight(100.0, 1.0), tight(tree, 1.0), False, 0.25)

    assert [rate(70.0), rate(130.0), rate(90.0)] == ["worse", "better", "same"]
    # A deterministic metric has no spread: 10.56 -> 8.10 MB at 20 %.
    assert verdict(tight(10.56, 0.0), tight(8.10, 0.0), True, 0.2) == "better"


def test_unresolved_when_a_side_spreads_past_the_bound():
    # Either side's quartiles 30 % of its median apart, at a 25 % bound.
    assert verdict(tight(1.0, 0.15), tight(2.0, 0.01), True, 0.25) == "unresolved"
    assert verdict(tight(1.0, 0.01), tight(2.0, 0.3), True, 0.25) == "unresolved"
    # A median of 0 leaves no share to read.
    assert verdict(tight(0.0, 0.0), tight(1.0, 0.0), True, 0.25) == "unresolved"


BENCH = {"end_to_end": [{"name": "setup_s", "better": "lower", "bound": 0.25},
                        {"name": "events_per_s", "better": "higher", "bound": 0.25}]}


def test_judge_reads_a_summary_against_the_benchmark():
    def side(m):
        return {"median": m, "q1": m, "q3": m, "min": 0, "max": 9}

    summary = {"rev": "abc", "failed": [], "workloads": {"w": {
        "setup_s": {"pairs": 10, "rev": side(1.0), "tree": side(2.0), "ratio": 2},
        "events_per_s": {"pairs": 10, "rev": side(5.0), "tree": side(5.5), "ratio": 1},
        "not_bounded": {"pairs": 10, "rev": side(1.0), "tree": side(9.0), "ratio": 1}}}}
    rows = judge(summary, BENCH)
    assert [(m, v) for _, m, _, _, v in rows] == [("setup_s", "worse"), ("events_per_s", "same")]
    assert rows[0][2] == 2.0
    lopsided = {"workloads": {"w": {"setup_s": {"rev": {"median": 1}}}}}
    try:
        judge(lopsided, BENCH)
    except ValueError:
        pass
    else:
        raise AssertionError("a row without its tree side was judged")


def test_a_malformed_result_line_is_a_failed_run():
    def run(side, pair, setup):
        value = {"value": setup}
        result = {"correct": True, "failed": [], "metrics": {"setup_s": value, "events_per_s": value}}
        return json.dumps({"workload": "w", "side": side, "pair": pair, "result": result}, separators=(",", ":"))

    with tempfile.TemporaryDirectory() as tmp:
        log, out = os.path.join(tmp, "ab.jsonl"), os.path.join(tmp, "ab.json")
        with open(log, "w") as f:
            lines = [run("rev", 1, 1.0), run("tree", 1, 1.1), run("tree", 2, 1.2),
                     '{"workload":"w","side":"rev","pair":2,"result":thread main panicked}',
                     run("rev", 3, 1.0), run("tree", 3, 1.0)]
            f.write("\n".join(lines) + "\n")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert not summarise(log, "abc", out, BENCH)
        summary = json.load(open(out))
    assert summary["failed"] == [{"workload": "w", "pair": 2, "side": "rev"}]
    setup = summary["workloads"]["w"]["setup_s"]
    assert (setup["pairs"], setup["verdict"]) == (2, "same")


def main(args):
    if args == ["test"]:
        for name, fn in list(globals().items()):
            if name.startswith("test_"):
                fn()
                print(f"test {name[5:]} ... ok")
        return 0
    try:
        benchmark = json.load(open("BENCHMARK.json"))
        if len(args) == 4 and args[0] == "summarise":
            return 0 if summarise(*args[1:], benchmark) else 1
        if len(args) == 2 and args[0] == "judge":
            return 0 if judge_file(args[1], benchmark) else 1
    except (OSError, ValueError, KeyError) as e:
        print(f"ab.py: {e}", file=sys.stderr)
        return 2
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
