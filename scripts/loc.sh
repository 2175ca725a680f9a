#!/bin/sh
# How much mechanism the repo carries, one line per ROADMAP metric. Prints
# the non-test line count of internal/{netsim,core,pisa,runtime} (7545
# before the one-packet-path change, 7225 before the one-send-path change,
# 7026 after it), the same count for
# internal/controller and for internal/ncl/hostgen (the host-plan compiler
# Host.In runs on: data-path mechanism that lives outside the four counted
# directories), the number of exported names of the ncl facade, and — the
# fourth line, ROADMAP item 3's metric — the non-test lines of
# internal/bench + cmd/ncl-bench, the evaluation kept beside benchmark/
# (2522 before it stopped timing stages). A metric to watch across PRs,
# not a gate: it always exits 0 when it can count.
set -eu
cd "$(dirname "$0")/.."

count() { find "$@" -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l; }
lines=$(count internal/netsim internal/core internal/pisa internal/runtime)
ctrl=$(count internal/controller)
hostgen=$(count internal/ncl/hostgen)
names=$(go doc -short . | wc -l)
bench=$(count internal/bench cmd/ncl-bench)

echo "non-test lines in internal/{netsim,core,pisa,runtime}: $lines (+ internal/ncl/hostgen: $hostgen)"
echo "non-test lines in internal/controller: $ctrl"
echo "exported names of package ncl: $names"
echo "non-test lines in internal/bench + cmd/ncl-bench: $bench"
