#!/bin/sh
# Repo health check: vet, formatting, oracle callers, the switch's one
# buffer and one packet allocator, read-only received windows, the host's
# window slab and packet allocators, one runner per fabric node, the
# fabric's ports, one lock per PISA device, one control path, one
# forwarding rule, one bounded table, doc lint,
# staticcheck (when installed), and the full test suite under the race
# detector.
# CI-equivalent; run before sending a change. Set NCL_CHECK_SKIP_TESTS=1 to
# run only the static checks (CI's lint job does this; the race suite runs
# in its own job).
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
# The oracle's string-dispatched ALU is the oracle's alone: the plan runs
# interned opcodes, and an arithmetic bug must not be able to hide in code
# the two share.
oracle=$(grep -nE '\balu\(|evalAction\(' internal/pisa/*.go | grep -vE '_test\.go:|^internal/pisa/reference\.go:' || true)
if [ -n "$oracle" ]; then
    echo "pisa's oracle ALU used outside internal/pisa/reference.go and tests:" >&2
    echo "$oracle" >&2
    exit 1
fi

# A switch hop holds one buffer: the device parses and deparses the
# packet's payload bytes itself (pisa.BatchJob.Raw), so the switch never
# decodes a window into arrays or encodes one back.
echo "== one buffer per switch hop"
onebuf=$(grep -nE 'ncp\.(DecodePayloadInto|AppendPayload)\(' internal/netsim/*.go | grep -v '_test\.go:' || true)
if [ -n "$onebuf" ]; then
    echo "window payload codec on the switch data path (internal/netsim):" >&2
    echo "$onebuf" >&2
    exit 1
fi

# A switch sends the packets it consumed before it allocates new ones:
# batchOut.packet is the one place on the switch path that makes a Packet,
# so a new per-window allocation there fails this rule.
echo "== one packet allocator on the switch path"
alloc=$(awk '/^func /{fn=$0} /&Packet\{|NewPacket\(|PacketGroup/ && fn !~ /^func \(o \*batchOut\) packet\(/ {print FILENAME ":" FNR ": " $0}' \
    $(ls internal/netsim/switch*.go | grep -v '_test\.go$'))
if [ -n "$alloc" ]; then
    echo "a Packet allocated on the switch path outside batchOut.packet (internal/netsim):" >&2
    echo "$alloc" >&2
    exit 1
fi

# A received window's Raw aliases the packet it arrived in, and a
# broadcast's copies share one array, so two hosts' windows may read the
# same bytes: outside the switch (internal/pisa, internal/netsim, which
# copy a Shared packet before executing it) nothing writes through a Raw.
echo "== read-only Raw"
raw=$(grep -rnE '\.Raw\[[^]]*\] *([-+*/%&|^]|<<|>>|&\^)?= |\.Raw\[[^]]*\](\+\+|--)|copy\([A-Za-z_][A-Za-z0-9_.]*\.Raw\b' \
    --include='*.go' --exclude-dir=.bench_build . | grep -vE '_test\.go:|^\./internal/(pisa|netsim)/' || true)
if [ -n "$raw" ]; then
    echo "write through a Raw outside internal/pisa and internal/netsim:" >&2
    echo "$raw" >&2
    exit 1
fi

# A host's receive and send paths allocate per slab and per send group,
# not per window: in internal/runtime a RecvWindow is built only in a
# receive slab of at least 64 windows (recvBurst.window), which one-packet
# bursts share, and a packet is allocated only from a
# send group (sendScratch.marshal) or by the UDP reader (decodeFrame).
echo "== one window slab and one packet allocator on the host path"
alloc=$(awk '/^(func|type|var|const) /{fn=$0}
    /RecvWindow\{|new\(RecvWindow\)|\[\]recvSlot,/ && fn !~ /^func \(b \*recvBurst\) window\(/ {print FILENAME ":" FNR ": " $0}
    /NewPacket\(|[^*]netsim\.Packet\{|new\(netsim\.Packet\)|\.Packet\(/ && fn !~ /^func (\(sc \*sendScratch\) marshal|decodeFrame)\(/ {print FILENAME ":" FNR ": " $0}' \
    $(ls internal/runtime/*.go | grep -v '_test\.go$'))
if [ -n "$alloc" ]; then
    echo "a RecvWindow built outside recvBurst.window, or a Packet allocated outside sendScratch.marshal and decodeFrame (internal/runtime):" >&2
    echo "$alloc" >&2
    exit 1
fi

# A node runs on one goroutine at a time: whoever runs it holds its ring's
# running claim. In internal/netsim/netsim.go only Fabric.Start's drain
# loop (after ringInbox.drain) and Fabric.deliver (after claimOne) hand a
# node packets, plus DeliverBurst itself; a run started anywhere else would
# bypass the claim.
echo "== one runner per node"
runs=$(awk '/^func /{fn=$0} /^[[:space:]]*\/\//{next}
    /DeliverBurst\(|\.ReceiveBurst\(/ && fn !~ /^func (\(f \*Fabric\) (Start|deliver)|DeliverBurst)\(/ {print FILENAME ":" FNR ": " $0}' \
    internal/netsim/netsim.go)
if [ -n "$runs" ]; then
    echo "a node run outside Fabric.Start's drain loop and Fabric.deliver (internal/netsim/netsim.go):" >&2
    echo "$runs" >&2
    exit 1
fi

# The fabric reaches a link through its sender's port. The port builder (in
# netsim.New) is the one place that looks a link or a node up by label, and
# per-link state lives on the port, not in a map keyed by the label pair.
echo "== fabric links through ports"
ports=$(awk '/^func /{fn=$0} /(LinkBetween|NodeByLabel)\(/ && fn !~ /^func New\(/ {print FILENAME ":" FNR ": " $0}' \
    $(ls internal/netsim/*.go | grep -v '_test\.go$'))
ports="$ports$(grep -nE 'map\[(linkKey|\[2\]string)\]' internal/netsim/*.go | grep -v '_test\.go:' || true)"
if [ -n "$ports" ]; then
    echo "link looked up by label, or per-link state keyed by label, outside the port builder (internal/netsim):" >&2
    echo "$ports" >&2
    exit 1
fi

# A PISA device is serialised by one mutex (pisa.Switch.mu): batches and
# control operations take it, and nothing under it locks again. Outside
# the oracle (reference.go, which keeps its own), internal/pisa declares
# exactly one sync.Mutex and no other lock, pool or atomic pointer.
echo "== one lock per device"
pisafiles=$(ls internal/pisa/*.go | grep -vE '_test\.go$|/reference\.go$')
mutexes=$(grep -hoE 'sync\.Mutex\b' $pisafiles | wc -l)
locks=$(grep -nE 'sync\.(RWMutex|Pool)\b|\.RLock\(|atomic\.Pointer\b' $pisafiles || true)
if [ "$mutexes" -ne 1 ] || [ -n "$locks" ]; then
    echo "internal/pisa outside reference.go must hold one sync.Mutex (found $mutexes) and no other lock, pool or atomic pointer:" >&2
    [ -z "$locks" ] || echo "$locks" >&2
    exit 1
fi

# Every deployment runs on a Placement: New builds the identity one, so the
# controller has no second, placement-less deployment mode with its own
# routing tables.
echo "== one control path"
ctrl=$(grep -nE 'placement [!=]= nil|HostRoutes\(|cachedNextHops' internal/controller/*.go | grep -v '_test\.go:' || true)
if [ -n "$ctrl" ]; then
    echo "a placement-less branch or its routing in internal/controller:" >&2
    echo "$ctrl" >&2
    exit 1
fi

# Every node forwards by one rule over one table: Routes.NextHop applies
# the waypoint rule, the next-hop lookup and the live-hop pick for switches
# and hosts alike, so in internal/netsim and internal/runtime nothing else
# calls pickLiveHop or reads a table's Next or Via. The controller is the
# only writer of a deployment's tables, so the host-side copies of its
# routing and host directory stay gone.
echo "== one forwarding rule"
fwd=$(awk '/^func /{fn=$0} /^[[:space:]]*\/\//{next}
    /pickLiveHop\(|\.(Next|Via)\[/ && fn !~ /^func (\(rt \*Routes\) NextHop|pickLiveHop)\(/ {print FILENAME ":" FNR ": " $0}' \
    $(ls internal/netsim/*.go internal/runtime/*.go | grep -v '_test\.go$'))
fwd="$fwd$(grep -rnwE 'HostRoutingAll|SetHosts|HostLabels|resolveHop|hostRouting|SwitchRouting' --include='*.go' --exclude-dir=.bench_build . | grep -v '_test\.go:' || true)"
if [ -n "$fwd" ]; then
    echo "forwarding outside Routes.NextHop (internal/netsim, internal/runtime), or a second route writer:" >&2
    echo "$fwd" >&2
    exit 1
fi

# A window applies and is delivered once through bounded "seen" tables —
# the host's completed-window guard and fragment buffers, the device's
# exactly-once shadow — and each is a fifo.Map: a second hand-rolled
# insertion-order ring, with its own eviction and compaction, is how a
# stale record once evicted a live re-admission. The per-sender receive
# shards stay gone too: both transports run a host on one goroutine.
echo "== one bounded table"
tbl=$(grep -nwE 'recvShards|shardFor|keyRing|evictFrags|pruneFragFIFO' internal/runtime/*.go | grep -v '_test\.go:' || true)
tbl="$tbl$(grep -nE '^[^/]*\b(ring|head)\b' internal/pisa/shadow.go || true)"
if [ -n "$tbl" ]; then
    echo "a receive shard or an insertion-order ring outside internal/fifo (internal/runtime, internal/pisa/shadow.go):" >&2
    echo "$tbl" >&2
    exit 1
fi

# README.md, DESIGN.md and EXPERIMENTS.md describe the code that exists:
# every back-ticked word in them that is a repo path (scripts/, cmd/,
# internal/, examples/), a BENCH_*.json name, an exported Go identifier or
# a pkg.Ident of a package of this module must be in the tree. Crude on
# purpose: an identifier counts as declared when any Go file declares it
# (top level, method, field or block entry), whatever the package.
echo "== doc lint"
decls=$(grep -rhoE '^(func|type|var|const) +[A-Z][A-Za-z0-9_]*|^func \([^)]*\) +[A-Z][A-Za-z0-9_]*|^	+[A-Z][A-Za-z0-9_]*[ ,(]' \
    --include='*.go' --exclude-dir=.bench_build . | grep -oE '[A-Z][A-Za-z0-9_]*[ ,(]?$' | tr -d ' ,(' | sort -u)
pkgs=$(grep -rhoE '^package [a-z0-9_]+' --include='*.go' --exclude-dir=.bench_build . | sed 's/^package //' | sort -u)
declared() { echo "$decls" | grep -qx "$1"; }
stale=""
for tok in $(grep -ohE '`[^`]+`' README.md DESIGN.md EXPERIMENTS.md | tr -d '`' | tr ' ' '\n' |
    sed -E 's/\(.*$//; s/[.,;:]+$//; s|^\./||' | sort -u); do
    case $tok in
    scripts/* | cmd/* | internal/* | examples/*)
        tok=${tok%/\*}
        tok=${tok%:[0-9]*}
        case $tok in
        *\{*\}*) # cmd/{nclc,ncl-run}: every alternative
            rest=${tok#*\{}
            for alt in $(echo "${rest%%\}*}" | tr ',' ' '); do
                [ -e "${tok%%\{*}$alt${rest#*\}}" ] || stale="$stale $tok"
            done
            ;;
        *.[A-Z]*) # internal/core.Build: an identifier declared in that directory
            grep -qsE "^(func|type|var|const) +${tok##*.}\\b" "${tok%.*}"/*.go || stale="$stale $tok"
            ;;
        *) ls -d $tok >/dev/null 2>&1 || stale="$stale $tok" ;;
        esac
        ;;
    BENCH_*.json) [ -e "$tok" ] || stale="$stale $tok" ;;
    *)
        # Foo, Foo.Bar, pkg.Foo, pkg.Foo.Bar; all-capitals words are not Go names.
        echo "$tok" | grep -qE '^([a-z][a-z0-9]*\.)?[A-Z][A-Za-z0-9]*(\.[A-Z][A-Za-z0-9]*)*$' || continue
        echo "$tok" | grep -q '[a-z]' || continue
        for part in $(echo "$tok" | tr '.' ' '); do
            case $part in
            [a-z]*) echo "$pkgs" | grep -qx "$part" || continue 2 ;; # a variable or the standard library
            *) declared "$part" || stale="$stale $tok" ;;
            esac
        done
        ;;
    esac
done
if [ -n "$stale" ]; then
    echo "README.md/DESIGN.md/EXPERIMENTS.md name what is not in the tree:" >&2
    echo "$stale" | tr ' ' '\n' | sort -u | sed '/^$/d; s/^/  /' >&2
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
