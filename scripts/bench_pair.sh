#!/usr/bin/env bash
# bench_pair.sh <parent-ref> [pairs] — the one timing gate (ROADMAP item 3).
#
# Builds ./benchmark from <parent-ref> and from the working tree, runs the
# two binaries alternately with -trace 0 (the side that goes first
# alternates per pair; default 3 pairs) and prints `benchmark -compare
# parent change` for every pair. Both sides run on this machine minutes
# apart, so a verdict is about the two commits, not about two machines.
# Offline: the parent is a `git archive` copy under .bench_build/pair/,
# nothing is fetched and nothing is registered in .git.
#
# Exits 1 when, reading the -compare rows,
#   - a (workload, end-to-end metric) is `differ` with the change worse in
#     every pair,
#   - allocs_per_op is `differ` with the change worse in any pair (the
#     count repeats to four digits, one pair is enough), or
#   - `failed` is higher at the change in any pair.
# `unresolved` never fails: it says the machine was too noisy to tell.
set -euo pipefail

ref="${1:-}"
pairs="${2:-3}"
if [ -z "$ref" ] || ! [ "$pairs" -ge 1 ] 2>/dev/null; then
  echo "usage: $0 <parent-ref> [pairs]" >&2
  exit 2
fi
cd "$(dirname "$0")/.."
commit=$(git rev-parse --verify "$ref^{commit}")

work=.bench_build/pair
rm -rf "$work"
mkdir -p "$work/src"
export GOFLAGS=-buildvcs=false
git archive "$commit" | tar -x -C "$work/src"
(cd "$work/src" && go build -o ../parent ./benchmark)
rm -rf "$work/src"
go build -o "$work/change" ./benchmark

for i in $(seq 1 "$pairs"); do
  order="parent change"
  if [ $((i % 2)) -eq 0 ]; then order="change parent"; fi
  for side in $order; do
    echo "== pair $i/$pairs: $side ($([ "$side" = parent ] && echo "$commit" || echo "working tree"))"
    "$work/$side" -trace 0 -out "$work/$i/$side" >"$work/$i.$side.log" 2>&1 ||
      { cat "$work/$i.$side.log" >&2; exit 1; }
  done
  "$work/change" -compare "$work/$i/parent/results.json" "$work/$i/change/results.json" | tee "$work/$i.compare"
  echo
done

# Metrics where a larger value is the better one, from BENCHMARK.json.
higher=$(grep -o '"name": "[^"]*", "unit": "[^"]*", "better": "higher"' BENCHMARK.json | cut -d'"' -f4 | tr '\n' ' ')
awk -v pairs="$pairs" -v higher="$higher" '
  BEGIN { n = split(higher, h, " "); for (i = 1; i <= n; i++) up[h[i]] = 1 }
  $2 == "failed" { if ($4 + 0 > $3 + 0) bad[$1 " failed rose " $3 " -> " $4] = 1; next }
  $NF == "differ" {
    worse = ($2 in up) ? ($4 + 0 < $3 + 0) : ($4 + 0 > $3 + 0)
    if (!worse) next
    if ($2 == "allocs_per_op") bad[$1 " allocs_per_op " $3 " -> " $4] = 1
    else if (++count[$1 " " $2] == pairs) bad[$1 " " $2 " worse than its bound in every pair"] = 1
  }
  END {
    for (b in bad) { print "bench_pair: " b; rc = 1 }
    if (!rc) print "bench_pair: no end-to-end metric is worse in every pair, allocs_per_op and failed hold"
    exit rc
  }' "$work"/*.compare
