#!/usr/bin/env bash
# bench_pair.sh <parent-ref> [pairs] — the one timing gate (ROADMAP item 3).
#
# Builds ./benchmark from <parent-ref> and from the working tree, runs each
# side once, short, and discards it (cold caches and a cold machine favour
# whichever side runs second), then runs the pairs: every pair runs each
# workload once per side (-workload, -trace 0), and the side that goes
# first alternates per workload and per pair, so over an even number of
# pairs each workload has its parent first as often as its change first
# (default 3 pairs). It prints `benchmark -compare parent change` for every
# workload of every pair and, at the end, the mean change/parent ratio of
# every end-to-end metric split by which side ran first: a gap between the
# two columns is run order, not the change. Both sides run on this machine
# minutes apart, so a verdict is about the two commits, not about two
# machines. Offline: the parent is a `git archive` copy under
# .bench_build/pair/, nothing is fetched and nothing is registered in .git.
#
# Exits 1 when, reading the -compare rows,
#   - a (workload, end-to-end metric) is `differ` with the change worse in
#     every pair,
#   - allocs_per_op is `differ` with the change worse in any pair (the
#     count repeats to four digits, one pair is enough), or
#   - `failed` is higher at the change in any pair, or
#   - for a workload, the median change setup_s over all pairs (the b
#     column of its -compare rows) is above the median parent setup_s (the
#     a column) by more than setup_s's bound in BENCHMARK.json. Set-up is
#     one sample per run, so one pair mostly reads `unresolved`; pooled
#     over the pairs it still catches a bound-sized set-up regression.
# `unresolved` never fails on its own: it says the machine was too noisy
# to tell.
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

mapfile -t wls < <(grep -o '"name": "[^"]*", "why"' BENCHMARK.json | cut -d'"' -f4)

# run <side> <out> <log> [flags...]: one benchmark run, its log kept.
run() {
  local side=$1 out=$2 log=$3
  shift 3
  "$work/$side" -trace 0 -out "$out" "$@" >"$log" 2>&1 || { cat "$log" >&2; exit 1; }
}

for side in parent change; do
  echo "== warm-up: $side (discarded)"
  run "$side" "$work/warm/$side" "$work/warm.$side.log" -seconds 10
done

for i in $(seq 1 "$pairs"); do
  for w in "${!wls[@]}"; do
    wl=${wls[$w]}
    first=parent
    if [ $(((i + w) % 2)) -eq 0 ]; then first=change; fi
    second=$([ "$first" = parent ] && echo change || echo parent)
    for side in "$first" "$second"; do
      echo "== pair $i/$pairs $wl: $side ($([ "$side" = parent ] && echo "$commit" || echo "working tree"))"
      run "$side" "$work/$i/$wl/$side" "$work/$i.$wl.$side.log" -workload "$wl"
    done
    "$work/change" -compare "$work/$i/$wl/parent/results.json" "$work/$i/$wl/change/results.json" |
      tee "$work/$i.$wl.$first-first.compare"
    echo
  done
done

# Run order: the mean change/parent ratio per end-to-end metric (from the
# full-precision "b vs a" column), over the runs where the parent went
# first and over those where the change did.
awk '
  $NF ~ /^(agree|differ|unresolved)$/ && $2 != "failed" {
    k = $1 " " $2
    f = (FILENAME ~ /parent-first/) ? "p" : "c"
    sum[k, f] += 1 + substr($5, 1, length($5) - 1) / 100; n[k, f]++; keys[k] = 1
  }
  END {
    printf "%-48s %22s %22s\n", "mean change/parent ratio", "parent first (n)", "change first (n)"
    for (k in keys) {
      p = n[k, "p"] ? sprintf("%.4f (%d)", sum[k, "p"] / n[k, "p"], n[k, "p"]) : "-"
      c = n[k, "c"] ? sprintf("%.4f (%d)", sum[k, "c"] / n[k, "c"], n[k, "c"]) : "-"
      printf "%-48s %22s %22s\n", k, p, c
    }
  }' "$work"/*.compare | { IFS= read -r head; echo "$head"; sort; }
echo

# Pooled set-up verdict, per workload: the median parent and change
# setup_s over all pairs and their ratio.
bound=$(grep -o '"name": "setup_s"[^}]*"bound": [0-9.]*' BENCHMARK.json | grep -o '[0-9.]*$')
median() { sort -g | awk '{ v[NR] = $1 } END { print (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2 }'; }
setup_rc=0
for wl in "${wls[@]}"; do
  rows=$(awk -v wl="$wl" '$1 == wl && $2 == "setup_s"' "$work"/*.compare)
  [ -n "$rows" ] || continue
  a=$(awk '{ print $3 }' <<<"$rows" | median)
  b=$(awk '{ print $4 }' <<<"$rows" | median)
  awk -v wl="$wl" -v a="$a" -v b="$b" -v bound="$bound" 'BEGIN {
    r = (a > 0) ? b / a : 1
    printf "setup_s pooled %-25s parent %.4f  change %.4f  ratio %.4f\n", wl, a, b, r
    exit r > 1 + bound
  }' || { echo "bench_pair: $wl setup_s pooled median worse than its bound ($bound)"; setup_rc=1; }
done
echo

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
  }' "$work"/*.compare || setup_rc=1
exit "$setup_rc"
