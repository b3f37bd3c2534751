#!/usr/bin/env bash
# Local CI gate: formatting, lints, docs, release build, e2e smoke + goldens, tests, bench compile,
# the two kept Criterion targets (quick), the A/B verdict's tests and gate, CLI smokes.
# Run from the repo root. Fails fast on the first broken step. Needs cargo, awk, perl and
# python3 (scripts/ab.py, stdlib only).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== cargo fmt --check ==="
cargo fmt --all -- --check

echo "=== cargo clippy (workspace, -D warnings) ==="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "=== cargo doc (workspace, -D warnings) ==="
# The docs build without a warning: a broken or private intra-doc link, or a
# bracketed citation read as one, fails here rather than drifting unseen.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "=== no threads in the engine, the stream layer or the CLI ==="
# Every parallel layer this repo had lost every measurement (DESIGN.md,
# "Tried, measured, removed"). A thread comes back by deleting this check and
# saying which e2e workload it wins. (An `if`, not `! grep`: errexit ignores
# a status inverted with `!`.)
if grep -rnE "std::thread|std::sync" crates/core/src crates/stream/src src; then
  echo "ci: std::thread / std::sync is back in the engine, stream layer or CLI" >&2
  exit 1
fi

echo "=== no unsafe outside prefetch ==="
# The compiler holds the rule: tfx-core, tfx-stream and the CLI forbid
# `unsafe_code`, tfx-graph denies it and allows it on `intersect::prefetch`
# alone (DESIGN.md, "Intersection kernels"). This step keeps those attributes
# and that one allow in place; another `unsafe` or `std::arch` comes back by
# deleting this check and saying which e2e workload it wins.
lints=$(grep -lE '^#!\[(forbid|deny)\(unsafe_code\)\]' crates/{core,stream,graph}/src/lib.rs \
  src/lib.rs src/bin/tfx.rs | wc -l)
allows=$(grep -rnE 'allow\(unsafe_code\)|std::arch' crates/{core,stream,graph}/src src | wc -l)
if [ "$lints" != 5 ] || [ "$allows" != 2 ] \
  || [ "$(grep -cE 'allow\(unsafe_code\)|std::arch' crates/graph/src/intersect.rs)" != 2 ]; then
  echo "ci: a crate lost its unsafe_code lint, or an allow / std::arch is outside prefetch" >&2
  exit 1
fi

echo "=== the DCG stores no runs ==="
# The DCG is the data graph plus bits per (u, v) (DESIGN.md, "DCG storage
# layout"): a frontier is a label group under a bitset, a climb's
# parents a reverse label group under another. Stored runs held 8.39 of
# netflow_enum's 13.6 MB peak heap. A run store comes back by deleting this
# check and saying which e2e workload it wins, on events_per_s, without
# giving back the peak_heap_mb it cost.
if grep -rnwE "RunIndex|RunRef|lay_out_run|lay_in_run" crates/core/src; then
  echo "ci: a stored DCG run is back in the engine" >&2
  exit 1
fi

echo "=== the DCG counts nothing per vertex ==="
# The DCG is three bitsets per query vertex (DESIGN.md, "DCG storage layout"):
# "last parent" and "last explicit child" are a scan of a group the engine
# reads anyway, with early exit (1.1-1.3 members a check). The sparse count
# tables were 3.01 of lsbench_fleet8's 13.80 MB peak heap. A count table
# comes back by deleting this check and saying which e2e workload it wins, on
# events_per_s or a latency beyond the bound, without giving back the
# peak_heap_mb it costs.
if grep -rnwE "OpenMap|dcg_store|expl_kids|count_in|reserve_in" crates/core/src; then
  echo "ci: a per-vertex DCG count table is back in the engine" >&2
  exit 1
fi

echo "=== one climb, one invocation plan ==="
# `ops.rs` holds the upward climb once and `matching_query_edges` the plan
# once (DESIGN.md, "One climb", "Round driver"); a twin of either
# comes back by deleting this check and saying what it is for.
if grep -rnE "fn (build_upwards|clear_upwards|plan_seeds_into)\b" crates/core/src; then
  echo "ci: a second climb or a second invocation plan is back" >&2
  exit 1
fi

echo "=== one round loop ==="
# `round::apply` is the one loop a batch is applied with, by the standalone
# engine and the fleet alike (DESIGN.md, "Round driver"): each hands it a
# closure, and nothing outside `round.rs` stages, finalizes or hints an op
# itself. A hook trait, a second loop or a caller of the round's halves comes
# back by deleting this check and saying what the closures cannot do.
if grep -rnE "trait Rounds\b|fn drive\b" crates/core/src \
  || grep -rnE "round::((stage|finalize|lookahead)\b|\{[^}]*\b(stage|finalize|lookahead)\b)" \
    crates/core/src --exclude=round.rs; then
  echo "ci: a second round loop, or a round half called outside round.rs, is back" >&2
  exit 1
fi

echo "=== one tokenizer ==="
# Graph, query and stream files are read by the one line scanner in
# `parser.rs` (`scan`, `LabelCache`; DESIGN.md, "Text ingest"), and it is the
# stream source's only reader: no `Tokens` walk of its own. A `str` pipeline
# or a second reader comes back by deleting this check and saying what the
# scanner cannot read.
if grep -nE "split_whitespace|\.parse::<u" crates/query/src/parser.rs crates/stream/src/source.rs \
  || grep -rnw "Tokens" crates/stream/src; then
  echo "ci: a second tokenizer is back in the parser or the stream source" >&2
  exit 1
fi

echo "=== one query, one engine ==="
# The partitioned runtime and the keyed merge it needed are gone (DESIGN.md,
# "Tried, measured, removed"); what is left of it is the inert `ShardedEngine`
# fleet shim the frozen e2e benchmark compiles against.
# A partitioned query comes back by deleting this check and saying which e2e
# workload it wins.
if grep -rnE "register_partitioned|owns_root|shard_of|cells_per_query|run_seed|seed_start|struct Key" \
  --include='*.rs' --exclude-dir=e2e crates/*/src src tests; then
  echo "ci: a piece of the partitioned runtime is back" >&2
  exit 1
fi

echo "=== one scenario generator ==="
# The randomized oracles draw from the one generator and run the one
# comparator in tests/common/ (DESIGN.md, "Testing strategy"); a second
# generator comes back by deleting this check and saying what the harness
# cannot draw.
if grep -rnE "fn (random_scenario|random_ops|random_graph|random_window|random_policy)\b" \
  --include='*.rs' --exclude-dir=common tests; then
  echo "ci: a scenario generator is back outside tests/common/" >&2
  exit 1
fi

echo "=== one label set per distinct set ==="
# A vertex costs the graph its two 8-byte handles and a 4-byte set id
# (DESIGN.md, "Graph storage & adjacency index"): each distinct label set is
# stored once, in `labels::SetTable`. A `Vec<LabelSet>` per vertex was 3.07
# of lsbench_maint's 13.94 MB peak heap. It comes back by deleting this check
# and saying which e2e workload it wins. Only the fields of the struct are
# read: a function parameter of that type, one a line once rustfmt splits a
# signature, is no table.
graph=$(awk '/^pub struct DynamicGraph \{/, /^\}/ { print FNR ":" $0 }' crates/graph/src/dynamic_graph.rs)
if [ -z "$graph" ] || grep -E "^[0-9]+:\s*(pub(\([a-z]+\))? )?[a-z_]+: Vec<LabelSet>" <<< "$graph"; then
  echo "ci: a per-vertex label set table is back in DynamicGraph" >&2
  exit 1
fi

echo "=== a vertex is 20 bytes ==="
# A vertex costs the graph two 8-byte `{off, meta}` adjacency handles and a
# 4-byte set id (DESIGN.md, "The handle encoding"): `meta` packs the layout
# with an inline run's label, a flat run's length, group count and class, or
# a directory's class and record count, and a directory keeps its entry count
# in its own slot. The 16-byte handle's spare fields were 1.76 of
# lsbench_maint's 7.77 MB peak heap (16 B x 109 698 vertices). A wider handle
# comes back by deleting this check and saying which e2e workload it wins.
handle=$(awk '/struct Adjacency \{/, /^\}/' crates/graph/src/adjacency.rs)
if ! grep -qF 'size_of::<Adjacency>() == 8' crates/graph/src/adjacency.rs || [ -z "$handle" ] \
  || grep -nE "^\s*(pub(\([a-z]+\))? )?(dir: bool|class: u8|len: u32)\b" <<< "$handle"; then
  echo "ci: the adjacency handle is no longer 8 bytes of {off, meta}" >&2
  exit 1
fi

echo "=== a flat run stores no label per entry ==="
# A flat run is `[label·len headers | ids]` (DESIGN.md, "Run layouts"): one
# header word per label group, not a label word beside every id. The
# per-entry label half held 4.16 of netflow_window's 17.10 MB g0 arena; the
# grouped layout took that workload's peak heap from 20.52 to 15.97 MB. A
# label half comes back by deleting this check and saying which e2e workload
# it wins.
if grep -nE "fn (run_bounds|flat_cap)\b|class_for\(2 \* |class_cap\([a-z.]+\) as usize / 2" \
  crates/graph/src/adjacency.rs; then
  echo "ci: a per-entry label half is back in the flat adjacency run" >&2
  exit 1
fi

echo "=== one call per match ==="
# The sink is a type parameter from the public entry points down to the
# last-level frontier loop (DESIGN.md, "One call per match"): a caller's
# closure is called, and inlined, once per match, where a `dyn` sink in the
# search cost an indirect call per match and each wrapper one more. The
# lookahead hints the graph only (DESIGN.md, "Batch lookahead"): the DCG hint
# cost more than it hid. Either comes back by deleting this check and saying
# which e2e workload it wins.
if grep -nE "dyn FnMut" crates/core/src/search.rs crates/core/src/ops.rs \
  || grep -rnE "fn prefetch_dcg\b" crates/core/src; then
  echo "ci: a dyn sink is back in the search, or the DCG half of the lookahead" >&2
  exit 1
fi

echo "=== one reader per tree edge ==="
# `core::dcg` decides where the tree edge into `u` reads in the graph, which
# way it points and which children `u` has (DESIGN.md, "One reader per tree
# edge"): BuildDCG, registration, MatchAllChildren and the search all ask it.
# Only `core::spec` keeps a reader of its own (a walk that tests labels
# itself), and `core::search`'s non-tree prefilter (`intersect_frontier`)
# reads the label groups of non-tree edges. No other module of `tfx-core`
# reads a graph group, the full walk, the wildcard collector, label runs, a
# directed degree or a group hint. Isomorphism's injectivity test is one scan
# of the embedding (DESIGN.md, "Isomorphism injectivity in one scan"), not a
# map kept at every bind. A second reader, a copy of the child masks or the
# map comes back by deleting this check and saying what it wins.
readers='\.(group|neighbors|collect_any|label_runs|prefetch_group)\(|\.degree\(([^(),]|\([^()]*\))*,'
if grep -rnE "mod tree_nav|collect_child_candidates|child_mask|FxHashMap" crates/core/src \
  || grep -rnE "$readers" crates/core/src --exclude=dcg.rs --exclude=spec.rs --exclude=search.rs \
  || readers="$readers" awk '/^    (pub(\(crate\))? )?fn / { f = $0 }
      $0 ~ ENVIRON["readers"] && f !~ /fn intersect_frontier\(/ { print FILENAME ":" FNR ": " $0; bad = 1 }
      END { exit !bad }' crates/core/src/search.rs; then
  echo "ci: a second tree-edge reader, child mask copy or injectivity map is back" >&2
  exit 1
fi

echo "=== one graph read surface ==="
# `DynamicGraph` answers each read question once, the direction an argument
# (`Dir`) and a label group a plain sorted slice (DESIGN.md, "Graph storage &
# adjacency index"): an access-mode switch, an iterator wrapper over a group
# or an `out_*` / `in_*` twin of a reader comes back by deleting this check
# and saying what it wins.
if grep -rnE "AdjacencyMode|MatchingNeighbors|LabeledNeighbors|fn (out|in)_(neighbors|degree|label_runs|is_directory)" \
  crates/graph/src; then
  echo "ci: a second read path over the data graph is back" >&2
  exit 1
fi

echo "=== one static extension step ==="
# Every static matcher binds its next query vertex with `tfx_match::extend`
# (every bound neighbor's run intersected, smallest first) and tests it with
# `tfx_match::joinable` (DESIGN.md, "Intersection kernels"): Graphflow calls
# them, it keeps no copy. `tfx-core` uses `tfx-match` in its tests alone, as
# the oracle. A second copy, or the engine depending on the static matcher,
# comes back by deleting this check and saying what it is for.
if grep -rnE "intersect_into|fn (joinable|candidates)\b" crates/baselines/src \
  || awk '/^\[/ { sec = $0; next } sec == "[dependencies]"' crates/core/Cargo.toml \
    | grep -n "tfx-match"; then
  echo "ci: a copy of the static extension step is back, or tfx-core depends on tfx-match" >&2
  exit 1
fi

echo "=== one deadline ==="
# Every engine stops on one wall-clock bound, `tfx_query::Deadline` (DESIGN.md,
# "Key design decisions", *Timeouts*): the harness arms it from
# `TFX_TIMEOUT_MS`, and TurboFlux's search, SJ-Tree's join, Graphflow's
# extension and the whole-graph matchers of IncIsoMat and the naive recompute
# probe it. A work budget, its knob, an engine's own deadline counters or an
# engine reading the clock itself comes back by deleting this check and saying
# what the deadline cannot bound.
if grep -rnE "WorkBudget|work_budget|with_budget|TFX_WORK_BUDGET|deadline_(tick|hit)" \
  --include='*.rs' --exclude-dir=e2e crates src tests examples \
  || grep -rn "Instant::now" crates/core/src crates/baselines/src --exclude=tests.rs; then
  echo "ci: a second bound (a work budget, its knob or an engine's own clock) is back" >&2
  exit 1
fi

echo "=== one plan, no switch ==="
# §4.1 plans a query in one pass, one form per step (DESIGN.md, "Plan
# statistics once"): `matching_edge_counts(q, g)`, `choose_start_vertex(q, g,
# &counts)`, `QueryTree::build(q, root, &counts)`, the counts read off
# `DynamicGraph` itself, and `AdjustMatchingOrder` always on. A statistics
# wrapper, a planner twin or a matching-order switch comes back by deleting
# this check and saying what a committed benchmark shows it buys.
if grep -rnE "adjust_matching_order|GraphStats|choose_start_vertex_from|build_from" \
  --exclude-dir=e2e crates src tests examples; then
  echo "ci: a planner switch, wrapper or twin entry point is back" >&2
  exit 1
fi

echo "=== DESIGN.md citations resolve ==="
# Code, scripts and docs point into DESIGN.md by heading: the file name, an
# optional comma and a double-quoted heading (more quoted headings may follow,
# comma-separated), or the file name in backticks, a section sign and the
# heading in asterisks; a citation may wrap across comment lines. Each cited
# heading must begin some level 1-4 heading of the file, so a renamed or
# dropped section fails here instead of leaving a pointer to nothing.
heads=$(sed -nE 's/^#{1,4} +//p' DESIGN.md)
bad=$(grep -rlIZ --exclude-dir=e2e --exclude-dir=target DESIGN \
    crates src tests scripts examples README.md EXPERIMENTS.md .claude \
  | HEADS="$heads" xargs -0r perl -0777 -ne '
    BEGIN { @h = split /\n/, $ENV{HEADS} }
    s{[ \t]*\n[ \t]*(?://[/!]?|#)?[ \t]*}{ }g;
    while (/`?DESIGN\.md`?,?\s*(?:"([^"]+)"((?:,\s*"[^"]+")*)|\xc2\xa7\s*\*([^*]+)\*)/g) {
      my ($first, $more, $starred) = ($1, $2, $3);
      for my $x (defined $starred ? ($starred) : ($first, $more =~ /"([^"]+)"/g)) {
        print "$ARGV: \"$x\"\n" unless grep { index($_, $x) == 0 } @h;
      }
    }')
if [ -n "$bad" ]; then
  echo "$bad" >&2
  echo "ci: a cited DESIGN.md heading (above) does not exist" >&2
  exit 1
fi

echo "=== no new panic site ==="
# Every non-test `unwrap()` / `expect(` / `panic!` / `assert*!` line of the
# engine, the graph, the stream layer and the CLI is sorted in DESIGN.md,
# "Testing strategy" (item 7), as input-reachable or invariant: none is
# reachable from a `tfx stream` input. A new one is sorted into that table
# and this ceiling moves with it; one an input reaches becomes an error.
panics=$(find crates/core/src crates/graph/src crates/stream/src src/bin/tfx.rs -name '*.rs' \
  ! -name tests.rs -exec awk '/^#\[cfg\(test\)\]/ { exit } /^[[:space:]]*\/\// { next }
    /unwrap\(\)|\.expect\(|panic!\(|assert(_eq|_ne)?!/ && !/debug_assert/' {} \; | wc -l)
if [ "$panics" -gt 61 ]; then
  echo "ci: $panics non-test panic sites, the sorted table has 61" >&2
  exit 1
fi

echo "=== cargo build --release (workspace) ==="
cargo build --offline --release --workspace

echo "=== figures --list ==="
# Every experiment of EXPERIMENTS.md is a row of one table in the `figures`
# binary: a row that falls out of it fails here, not in a months-later rerun.
figures=$(target/release/figures --list | wc -l)
if [ "$figures" != "15" ]; then
  echo "ci: figures --list names $figures experiments, expected 15" >&2
  exit 1
fi

echo "=== e2e --smoke ==="
# The end-to-end benchmark is a package of its own (empty [workspace]), so
# the workspace-wide test and clippy steps never compile it: this is where a
# drift in the API it builds against (Fleet, ShardedEngine, BatchTarget, the
# tfx stream command line) surfaces before the benchmark pipeline. All six
# workloads at ~1% size with every check on; the cross-check against the CLI
# needs the target/release/tfx built just above. About 25 s cold.
cargo run --release --offline --quiet \
  --manifest-path crates/bench/src/bin/e2e/Cargo.toml -- --smoke

echo "=== e2e goldens ==="
# The smoke run checks everything but the delta digests, which exist only at
# full size: one short full-size measurement per workload compares its digest
# with goldens.txt and exits non-zero on a mismatch — the check for a change
# to the engine, the round driver or the fleet. About 21 s for all six.
for w in netflow_window netflow_shards2 netflow_enum lsbench_maint lsbench_fleet8 \
  ingest_selective; do
  cargo run --release --offline --quiet \
    --manifest-path crates/bench/src/bin/e2e/Cargo.toml -- \
    --workload "$w" --seed 2018 --seconds 3 --trace 0 > /dev/null
done

echo "=== cargo test (workspace) ==="
cargo test --offline --workspace -q

echo "=== cargo bench --no-run ==="
cargo bench --offline --no-run -p tfx-bench

# The two Criterion targets kept for what e2e cannot isolate (what each
# holds is in its module doc). One short sample per benchmark: catches a panic
# under the release profile, and `deep_edge_enum`'s match count asserted
# before timing, without paying for a measurement.
for bench in graph_mutation dcg_ops; do
  echo "=== $bench (quick) ==="
  TFX_BENCH_WARMUP_MS=20 TFX_BENCH_MEASURE_MS=50 \
    cargo bench --offline -p tfx-bench --bench "$bench"
done

echo "=== A/B verdict tests ==="
# The verdict the gate reads, on synthetic rows: the ratio against the bound
# both ways round, unresolved on a wide spread or a median of 0, and a
# malformed result line counted as a failed run.
python3 scripts/ab.py test

echo "=== A/B gate (the newest committed A/B file) ==="
# The perf gate: results/ab/pr<N>.json is each change's A/B against its
# parent (scripts/ab.sh <rev> --pr <N>): alternating pairs per workload, and
# per end-to-end metric both sides' medians and quartiles. `ab.py judge`
# reads every row against BENCHMARK.json's bound: "worse" or "better" when
# the ratio of the medians lies beyond it, "unresolved" when a side's
# quartile spread exceeds it. It exits non-zero on any "worse" or a failed
# run. It also fails when the newest "- PR N" entry of CHANGES.md committed
# neither its A/B file nor an e2e snapshot, so no change lands without a
# measurement beside it.
newest=$(git ls-files 'results/ab/pr*.json' | sort -V | tail -n1)
if [ -z "$newest" ]; then
  echo "ci: no A/B file committed under results/ab" >&2
  exit 1
fi
pr=$(sed -nE 's/^- PR ([0-9]+)\b.*/\1/p' CHANGES.md | tail -n1)
if [ -z "$pr" ] || [ -z "$(git ls-files "results/ab/pr$pr.json" "results/e2e/pr$pr.json")" ]; then
  echo "ci: CHANGES.md's newest entry, PR ${pr:-?}, has neither results/ab/pr$pr.json nor results/e2e/pr$pr.json committed" >&2
  exit 1
fi
python3 scripts/ab.py judge "$newest"

echo "=== tfx stream smoke ==="
# The CLI subcommand end to end against the checked-in testdata: a count-3
# window over the demo stream must evict exactly one edge and report the
# same four deltas every run.
deltas=$(target/release/tfx stream \
  --query testdata/demo_query.txt --graph testdata/demo_graph.txt \
  --file testdata/demo_stream.txt --window count:3 \
  | grep -c '"type":"delta"')
if [ "$deltas" != "4" ]; then
  echo "tfx stream smoke: expected 4 deltas, got $deltas" >&2
  exit 1
fi

echo "=== tfx unbounded-window smoke ==="
# `--window none` without `--drain` is forward-only: the window holds no
# entry (`window live 0`), and the deltas are those of a window that cannot
# expire anything — a count window wider than the stream.
tmp_none="$(mktemp -d)"
for w in none count:1000; do
  target/release/tfx stream \
    --query testdata/demo_query.txt --graph testdata/demo_graph.txt \
    --file testdata/demo_stream.txt --window "$w" \
    > "$tmp_none/$w.out" 2> "$tmp_none/$w.err"
  grep '"type":"delta"' "$tmp_none/$w.out" > "$tmp_none/$w.deltas"
done
if ! grep -q "window live 0$" "$tmp_none/none.err"; then
  echo "tfx unbounded-window smoke: expected 'window live 0', got: $(tail -n1 "$tmp_none/none.err")" >&2
  exit 1
fi
if ! [ -s "$tmp_none/none.deltas" ] || ! cmp -s "$tmp_none/none.deltas" "$tmp_none/count:1000.deltas"; then
  echo "tfx unbounded-window smoke: --window none deltas differ from a never-full count window's" >&2
  exit 1
fi
rm -rf "$tmp_none"

echo "=== tfx fleet smoke ==="
# Two-query fleet where the second query's edge label (`follows`) never
# appears in the stream: the fleet routing table must skip that engine for
# every edge op, and the CLI must report it in the fleet_stats line.
skipped=$(target/release/tfx stream \
  --query testdata/demo_query.txt --query testdata/demo_query_disjoint.txt \
  --graph testdata/demo_graph.txt --file testdata/demo_stream.txt \
  | grep -o '"ops_skipped":[0-9]*' | head -n1 | cut -d: -f2)
if [ -z "$skipped" ] || [ "$skipped" -eq 0 ]; then
  echo "tfx fleet smoke: expected ops_skipped > 0, got '${skipped:-no fleet_stats line}'" >&2
  exit 1
fi

echo "=== tfx projection smoke ==="
# A query that names `knows` only: alone, `TurboFlux` stores g0 and the
# stream projected onto `knows` (DESIGN.md, "Label projection"); as engine 0
# of a two-query fleet it runs over the full graph. Its deltas must be the
# same bytes either way, and not none.
tmp_proj="$(mktemp -d)"
target/release/tfx stream --query testdata/demo_query_knows.txt \
  --graph testdata/demo_graph.txt --file testdata/demo_stream.txt --window count:3 --drain \
  2> /dev/null | grep '"type":"delta"' > "$tmp_proj/alone"
target/release/tfx stream --query testdata/demo_query_knows.txt --query testdata/demo_query.txt \
  --graph testdata/demo_graph.txt --file testdata/demo_stream.txt --window count:3 --drain \
  2> /dev/null | grep '"type":"delta".*"engine":0,' > "$tmp_proj/fleet"
if ! grep -q '"sign":"-"' "$tmp_proj/alone" || ! cmp -s "$tmp_proj/alone" "$tmp_proj/fleet"; then
  echo "tfx projection smoke: the projected engine's deltas differ from the fleet's" >&2
  diff "$tmp_proj/alone" "$tmp_proj/fleet" >&2 || true
  exit 1
fi
rm -rf "$tmp_proj"

echo "=== text spellings ==="
# The same g0 and stream, written plainly and as a hand-edited file might
# spell them (CRLF line ends, tabs, comments, blank lines, `+`-signed ids),
# must give `tfx stream` the same output to the byte, the clock fields
# masked. The stream is 48 KB, so lines straddle the end of tfx's 8 KB read
# buffer, where the source copies a line instead of scanning it in place.
tmp_text="$(mktemp -d)"
awk -v dir="$tmp_text" 'BEGIN {
  s = 7; n = 60
  for (v = 0; v < n; v++) print "v " v " " (v % 6 == 0 ? "Company" : "Person") > dir "/g.txt"
  for (i = 0; i < 3300; i++) {
    s = (s * 1103515245 + 12345) % 2147483648; a = int(s / 65536) % n
    s = (s * 1103515245 + 12345) % 2147483648; b = int(s / 65536) % n
    line = a " " b " " (b % 6 == 0 ? "worksAt" : "knows")
    if (i < 300) print "e " line > dir "/g.txt"
    else print ((i % 3 == 0) ? "@" (2 * i) " " : "") ((i % 5 == 4) ? "- " : "+ ") line > dir "/s.txt"
  }
}'
for f in g s; do
  sed -E 's/ ([0-9]+)/ +\1/g; s/ /\t/2; 0~2 s/$/ # note/; s/$/\r/' "$tmp_text/$f.txt" \
    | awk '{ print } NR % 4 == 0 { printf "\r\n# a comment line\r\n  \t\r\n" }' > "$tmp_text/$f.respelled"
done
for spelling in txt respelled; do
  target/release/tfx stream --query testdata/demo_query.txt --graph "$tmp_text/g.$spelling" \
    --file "$tmp_text/s.$spelling" --window count:500 2> /dev/null \
    | sed -E 's/"(latency_us|elapsed_us)":[0-9]+/"\1":0/' > "$tmp_text/$spelling.out"
done
if ! grep -q '"type":"delta"' "$tmp_text/txt.out" || ! cmp -s "$tmp_text/txt.out" "$tmp_text/respelled.out"; then
  echo "text spellings: a respelled g0 and stream give other output" >&2
  diff "$tmp_text/txt.out" "$tmp_text/respelled.out" | head >&2 || true
  exit 1
fi
rm -rf "$tmp_text"

echo "ci: all green"
