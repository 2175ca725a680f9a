#!/bin/sh
# ROADMAP item 3's success metric: how much mechanism the data path and
# the public surface carry. Prints the non-test line count of
# internal/{netsim,core,pisa,runtime} (7545 before the one-packet-path
# change), the same count for internal/controller and for
# internal/ncl/hostgen (the host-plan compiler Host.In runs on: data-path
# mechanism that lives outside the four counted directories), and the
# number of exported names of the ncl facade. A metric to watch across
# PRs, not a gate: it always exits 0 when it can count.
set -eu
cd "$(dirname "$0")/.."

count() { find "$@" -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l; }
lines=$(count internal/netsim internal/core internal/pisa internal/runtime)
ctrl=$(count internal/controller)
hostgen=$(count internal/ncl/hostgen)
names=$(go doc -short . | wc -l)

echo "non-test lines in internal/{netsim,core,pisa,runtime}: $lines (+ internal/ncl/hostgen: $hostgen)"
echo "non-test lines in internal/controller: $ctrl"
echo "exported names of package ncl: $names"
