#!/usr/bin/env bash
# A flat per-symbol CPU profile of one e2e workload, for hosts without `perf`:
#
#   scripts/profile.sh <workload> [seconds]      # e.g. netflow_enum 12
#
# Builds a SIGPROF sampler (below: ITIMER_PROF every ms of process CPU time,
# the handler stores the interrupted instruction pointer, a destructor dumps
# the samples and /proc/self/maps) with `cc` into out/, preloads it into
# `e2e --workload <W> --seed 2018 --trace 0`, and resolves the samples
# against `nm -C` of the e2e binary. All process samples count: dataset
# generation, set-up and the benchmark's own probes included, so shares are
# of the whole run, and inlined callees are charged to their caller. It is the
# only view that splits DCG maintenance from enumeration (e2e's traced passes
# time the engine from outside). Touches neither BENCHMARK.json nor the e2e
# package; x86-64 Linux only. Prints a note and exits 0 where it cannot run.
set -euo pipefail
cd "$(dirname "$0")/.."

workload="${1:?usage: scripts/profile.sh <workload> [seconds]}"
seconds="${2:-12}"
for tool in cc nm python3; do
  if ! command -v "$tool" > /dev/null; then
    echo "profile: no \`$tool\` on this host, nothing profiled"
    exit 0
  fi
done
if [ "$(uname -sm)" != "Linux x86_64" ]; then
  echo "profile: the sampler reads REG_RIP (x86-64 Linux only), nothing profiled"
  exit 0
fi

mkdir -p out
cat > out/sigprof_sampler.c << 'EOF'
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1u << 21)
static unsigned long *samples;
static volatile unsigned long count;

static void on_prof(int sig, siginfo_t *si, void *uc) {
    (void)sig, (void)si;
    if (count < MAX_SAMPLES)
        samples[count++] = ((ucontext_t *)uc)->uc_mcontext.gregs[REG_RIP];
}

__attribute__((constructor)) static void start(void) {
    struct sigaction sa;
    struct itimerval tick = {{0, 1000}, {0, 1000}};
    samples = malloc(MAX_SAMPLES * sizeof *samples);
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    if (samples && sigaction(SIGPROF, &sa, 0) == 0)
        setitimer(ITIMER_PROF, &tick, 0);
}

__attribute__((destructor)) static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    const char *path = getenv("TFX_PROFILE_OUT");
    char line[1024];
    FILE *maps, *f;
    setitimer(ITIMER_PROF, &off, 0);
    if (!path || !(f = fopen(path, "w"))) return;
    if ((maps = fopen("/proc/self/maps", "r")))
        while (fgets(line, sizeof line, maps)) fprintf(f, "M %s", line);
    for (unsigned long i = 0; i < count; i++) fprintf(f, "S %lx\n", samples[i]);
    fclose(f);
}
EOF
cc -O1 -shared -fPIC -o out/sigprof_sampler.so out/sigprof_sampler.c

manifest=crates/bench/src/bin/e2e/Cargo.toml
cargo build --release --offline --quiet --manifest-path "$manifest"
bin="${CARGO_TARGET_DIR:-crates/bench/src/bin/e2e/target}/release/e2e"
samples="out/profile_${workload}.samples"
TFX_PROFILE_OUT="$samples" LD_PRELOAD="$PWD/out/sigprof_sampler.so" \
  "$bin" --workload "$workload" --seed 2018 --seconds "$seconds" --trace 0 > /dev/null

nm -C --defined-only "$bin" | python3 -c '
import bisect, collections, os, sys
binary, samples = os.path.realpath(sys.argv[1]), sys.argv[2]
syms = sorted((int(a, 16), name) for a, kind, name in
              (line.rstrip("\n").split(" ", 2) for line in sys.stdin if line[0] != " ")
              if kind in "tTwW")
addrs = [a for a, _ in syms]
maps, hits = [], collections.Counter()
for line in open(samples):
    if line[0] == "M":
        f = line[2:].split()
        lo, hi = (int(x, 16) for x in f[0].split("-"))
        maps.append((lo, hi, f[5] if len(f) > 5 else "[anon]"))
        continue
    pc = int(line[2:], 16)
    path = next((p for lo, hi, p in maps if lo <= pc < hi), "[unmapped]")
    if path != binary:
        hits["[" + os.path.basename(path) + "]"] += 1
        continue
    # A PIE: its first mapping starts at ELF address 0.
    base = min(lo for lo, _, p in maps if p == binary)
    i = bisect.bisect_right(addrs, pc - base) - 1
    hits[syms[i][1] if i >= 0 else "[?]"] += 1
total = sum(hits.values())
print("%d samples of %s (one per ms of CPU time asked for; the kernel tick bounds the rate)" % (total, sys.argv[3]))
for name, n in hits.most_common(30):
    print("%6.2f%%  %s" % (100.0 * n / total, name[:110]))
' "$bin" "$samples" "$workload"
