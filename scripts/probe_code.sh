#!/usr/bin/env bash
# Checks that the e2e host probe compiles to the same code at a revision and
# in the working tree. `Probe::sample` (crates/bench/src/bin/e2e/src/host.rs)
# is the divisor of every normalised e2e metric, and it is compiled inside the
# e2e crate: a generic the engine makes that crate instantiate can change its
# inlining, and with it every normalised number of an A/B (DESIGN.md,
# "Enumeration path", piece 6). Run it before an A/B of two builds.
#
# usage: scripts/probe_code.sh <rev>
#
# Builds the e2e binary at <rev> (a `git archive` copy under out/) and at the
# working tree, prints the size of `Probe::sample` in each, and diffs the two
# disassemblies with addresses and symbol hashes masked. Exits 1 on any
# difference, 0 when the code is the same. Needs `nm` and `objdump`.
set -euo pipefail
cd "$(dirname "$0")/.."

rev="${1:?usage: scripts/probe_code.sh <rev>}"
sha=$(git rev-parse --short "$rev^{commit}")
manifest=crates/bench/src/bin/e2e/Cargo.toml
bin=crates/bench/src/bin/e2e/target/release/e2e
copy="out/probe-$sha"

rm -rf "$copy"
mkdir -p "$copy"
git archive "$sha" | tar -x -C "$copy"
for root in "$copy" .; do
  cargo build --release --offline --quiet --manifest-path "$root/$manifest"
done

# Prints the size of the probe in binary $1 (named $2) and writes its
# disassembly to $3: no instruction bytes, no addresses, no symbol hashes.
probe() {
  local start size
  read -r start size < <(nm -C -S "$1" | awk '$4 ~ /::Probe::sample$/ { print $1, $2; exit }') || true
  if [ -z "${start:-}" ]; then
    echo "probe_code: no Probe::sample symbol in $1" >&2
    exit 2
  fi
  printf '%-9s Probe::sample %#x bytes\n' "$2" "$((16#$size))"
  objdump -d -C --no-show-raw-insn --start-address="0x$start" \
    --stop-address="$((16#$start + 16#$size))" "$1" \
    | sed -n '/>:$/,$p' \
    | sed -E 's/^ *[0-9a-f]+:/:/; s/\b[0-9a-f]{5,}\b/ADDR/g; s/0x[0-9a-f]{5,}/0xADDR/g; s/::h[0-9a-f]{16}//g; s/-?0x[0-9a-f]+\(%rip\)/RIP(%rip)/g; s/ +# .*$//' \
      > "$3"
}

probe "$copy/$bin" "$sha" "$copy/probe.s"
probe "$bin" worktree out/probe-worktree.s
if ! diff "$copy/probe.s" out/probe-worktree.s; then
  echo "probe_code: Probe::sample differs between $sha and the working tree" >&2
  exit 1
fi
echo "probe_code: Probe::sample is the same code at $sha and in the working tree"
