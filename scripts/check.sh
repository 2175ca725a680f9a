#!/bin/sh
# Repo health check: vet, formatting, staticcheck (when installed), and
# the full test suite under the race detector. CI-equivalent; run before
# sending a change. Set NCL_CHECK_SKIP_TESTS=1 to run only the static
# checks (CI's lint job does this; the race suite runs in its own job).
set -eu
cd "$(dirname "$0")/.."

echo "== go vet"
go vet ./...

echo "== gofmt"
badfmt=$(gofmt -l .)
if [ -n "$badfmt" ]; then
    echo "gofmt needed:" >&2
    echo "$badfmt" >&2
    exit 1
fi

# pisa.Reference, and.NextHopsAllReference and interp.Exec are oracles:
# differential tests and internal/bench compare against them, nothing on a
# serving path may call them (hosts run hostgen plans, switches pisa plans).
echo "== oracle callers"
oracle=$(grep -rnE 'pisa\.NewReference\(|NextHopsAllReference\(|interp\.Exec\(' --include='*.go' --exclude-dir=.bench_build . |
    grep -vE '_test\.go:|^\./internal/bench/|^\./internal/pisa/reference\.go:|^\./internal/and/routes_reference\.go:|^\./internal/ncl/interp/' || true)
if [ -n "$oracle" ]; then
    echo "oracle called outside tests and internal/bench:" >&2
    echo "$oracle" >&2
    exit 1
fi

# staticcheck is not vendored (no new module dependencies); CI installs a
# pinned version (see .github/workflows/ci.yml) and this script picks it
# up from PATH. Locally it is optional.
if command -v staticcheck >/dev/null 2>&1; then
    echo "== staticcheck ($(staticcheck -version 2>/dev/null || echo unknown))"
    staticcheck ./...
else
    echo "== staticcheck"
    echo "SKIPPED: staticcheck not on PATH — install the pinned version with:" >&2
    echo "  go install honnef.co/go/tools/cmd/staticcheck@\$STATICCHECK_VERSION (see ci.yml)" >&2
fi

if [ "${NCL_CHECK_SKIP_TESTS:-0}" != "1" ]; then
    echo "== go test -race"
    go test -race ./...
fi

echo "check OK"
