#!/usr/bin/env bash
# A flat CPU profile of one e2e workload, for hosts without `perf`:
#
#   scripts/profile.sh <workload> [seconds]           # per symbol, e.g. netflow_enum 12
#   scripts/profile.sh --lines <workload> [seconds]   # per source line, stream phase only
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
#
# `--lines` builds e2e into out/profile-target with line tables
# (CARGO_PROFILE_RELEASE_DEBUG, an environment variable of the build — the
# package itself is not edited), keeps only the samples of the stream phase
# (those with a return address into `StreamDriver::run` on the stack, which
# the handler scans for), resolves them with `addr2line -f -i` and charges
# each to its innermost inlined frame: the top source lines, the same by
# function, and the share inside libc (`memmove` under `copy_within`). This is
# the view that shows a first-touch miss — the line that reads a freshly
# loaded cache line collects the samples of the wait. Without `addr2line` it
# falls back to the per-symbol view.
set -euo pipefail
cd "$(dirname "$0")/.."

lines=0
if [ "${1:-}" = "--lines" ]; then
  lines=1
  shift
fi
workload="${1:?usage: scripts/profile.sh [--lines] <workload> [seconds]}"
seconds="${2:-12}"
if [ "$lines" = 1 ] && ! command -v addr2line > /dev/null; then
  echo "profile: no \`addr2line\` on this host, falling back to the per-symbol view"
  lines=0
fi
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
#include <unistd.h>

#define MAX_SAMPLES (1u << 21)
static unsigned long *samples, *callers;
static unsigned char *marked;
static volatile unsigned long count;
/* TFX_PROFILE_MARK=<address>+<size> (hex, one function's ELF extent): a sample
   is marked when the main thread's stack holds a return address into it, and
   a sample outside the program's own text (libc) also records the nearest
   stack word that points into it — the call site, for a leaf like memmove. */
static unsigned long mark_lo, mark_hi, stack_hi, text_lo, text_hi;

static void on_prof(int sig, siginfo_t *si, void *uc) {
    (void)sig, (void)si;
    if (count >= MAX_SAMPLES) return;
    greg_t *regs = ((ucontext_t *)uc)->uc_mcontext.gregs;
    unsigned long sp = regs[REG_RSP] & ~7ul, pc = regs[REG_RIP], caller = 0;
    unsigned char hit = 0;
    if (mark_hi && sp < stack_hi)
        for (unsigned long *w = (unsigned long *)sp; w < (unsigned long *)stack_hi && !hit; w++) {
            if (!caller && pc - text_lo >= text_hi - text_lo && *w - text_lo < text_hi - text_lo)
                caller = *w;
            hit = *w - mark_lo < mark_hi - mark_lo;
        }
    marked[count] = hit;
    callers[count] = caller;
    samples[count++] = pc;
}

__attribute__((constructor)) static void start(void) {
    struct sigaction sa;
    struct itimerval tick = {{0, 1000}, {0, 1000}};
    const char *mark = getenv("TFX_PROFILE_MARK");
    char line[1024], exe[512];
    unsigned long lo, hi, base = ~0ul;
    ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
    FILE *maps = fopen("/proc/self/maps", "r");
    exe[n < 0 ? 0 : n] = 0;
    while (maps && fgets(line, sizeof line, maps)) {
        if (sscanf(line, "%lx-%lx", &lo, &hi) != 2) continue;
        if (strstr(line, "[stack]")) stack_hi = hi;
        if (n > 0 && strstr(line, exe)) {
            if (lo < base) base = lo; /* a PIE: ELF address 0 */
            if (strstr(line, " r-xp ")) text_lo = lo, text_hi = hi;
        }
    }
    if (maps) fclose(maps);
    if (mark && stack_hi && base != ~0ul && sscanf(mark, "%lx+%lx", &lo, &hi) == 2)
        mark_lo = base + lo, mark_hi = mark_lo + hi;
    samples = malloc(MAX_SAMPLES * sizeof *samples);
    callers = malloc(MAX_SAMPLES * sizeof *callers);
    marked = calloc(MAX_SAMPLES, 1);
    if (!callers || !marked) return;
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
    for (unsigned long i = 0; i < count; i++)
        fprintf(f, "%c %lx %lx\n", marked[i] ? 'R' : 'S', samples[i], callers[i]);
    fclose(f);
}
EOF
cc -O1 -shared -fPIC -o out/sigprof_sampler.so out/sigprof_sampler.c

manifest=crates/bench/src/bin/e2e/Cargo.toml
target="${CARGO_TARGET_DIR:-crates/bench/src/bin/e2e/target}"
mark=""
if [ "$lines" = 1 ]; then
  target=out/profile-target
  CARGO_PROFILE_RELEASE_DEBUG=line-tables-only CARGO_TARGET_DIR="$target" \
    cargo build --release --offline --quiet --manifest-path "$manifest"
  # `<address> <size> T <name>` of the function whose frames mark the stream phase.
  mark=$(nm -C -S --defined-only "$target/release/e2e" \
    | awk '$4 == "tfx_stream::driver::StreamDriver::run" { print $1 "+" $2 }')
  if [ -z "$mark" ]; then
    echo "profile: no StreamDriver::run symbol in the binary, falling back to the per-symbol view"
    lines=0
  fi
else
  cargo build --release --offline --quiet --manifest-path "$manifest"
fi
bin="$target/release/e2e"
samples="out/profile_${workload}.samples"
TFX_PROFILE_OUT="$samples" TFX_PROFILE_MARK="$mark" LD_PRELOAD="$PWD/out/sigprof_sampler.so" \
  "$bin" --workload "$workload" --seed 2018 --seconds "$seconds" --trace 0 > /dev/null

if [ "$lines" = 1 ]; then
  python3 - "$bin" "$samples" "$workload" << 'PY'
import collections, os, re, subprocess, sys
binary, samples, workload = os.path.realpath(sys.argv[1]), sys.argv[2], sys.argv[3]
maps, pcs, everything = [], collections.Counter(), 0
for line in open(samples):
    if line[0] == "M":
        f = line[2:].split()
        lo, hi = (int(x, 16) for x in f[0].split("-"))
        maps.append((lo, hi, f[5] if len(f) > 5 else "[anon]"))
        continue
    everything += 1
    if line[0] == "R":  # a return address into StreamDriver::run is on the stack
        pc, caller = (int(x, 16) for x in line[2:].split())
        pcs[(pc, caller)] += 1
base = min(lo for lo, _, p in maps if p == binary)  # a PIE: ELF address 0
# Per ELF address: samples there, and samples in another object called from there.
inside, called, outside = collections.Counter(), collections.Counter(), collections.Counter()
for (pc, caller), n in pcs.items():
    path = next((p for lo, hi, p in maps if lo <= pc < hi), "[unmapped]")
    if path == binary:
        inside[pc - base] += n
    else:
        outside["[" + os.path.basename(path) + "]"] += n
        if caller:
            called[caller - 1 - base] += n  # inside the call instruction
# `-a` opens each answer with its address; `-i` then lists the inlined
# frames innermost first as function / file:line pairs.
out = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", binary],
                     input="\n".join("%x" % a for a in set(inside) | set(called)),
                     capture_output=True,
                     text=True, check=True).stdout.split("\n")
by_line, by_fn, from_line, i = collections.Counter(), collections.Counter(), collections.Counter(), 0
while i < len(out) and out[i]:
    n, m = inside[int(out[i], 16)], called[int(out[i], 16)]
    fn, where = out[i + 1], out[i + 2].split(" (discriminator")[0]
    i += 3
    while i < len(out) and out[i] and not out[i].startswith("0x"):
        i += 2
    where = where[where.find("/crates/") + 1:] if "/crates/" in where else "/".join(where.split("/")[-3:])
    fn = re.sub(r"::h[0-9a-f]{16}$", "", fn)
    by_line[where + "  " + fn[-60:]] += n
    by_fn[where.rsplit(":", 1)[0] + "  " + fn[-70:]] += n
    from_line[where + "  " + fn[-60:]] += m
total = sum(pcs.values())
print("%d stream-phase samples of %s (%d in the whole process; one per ms of CPU time asked for)"
      % (total, workload, everything))
tables = (("outside the program, by object", outside, 10),
          ("outside the program, by the line that called (memmove under copy_within, malloc, ...)", from_line, 12),
          ("by source line (innermost inlined frame)", by_line, 40),
          ("by function (innermost inlined frame)", by_fn, 40))
for title, table, rows in tables:
    print("--- %s ---" % title)
    for name, n in table.most_common(rows):
        if n:
            print("%6.2f%%  %s" % (100.0 * n / max(total, 1), name))
PY
  exit 0
fi

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
    pc = int(line[2:].split()[0], 16)
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
