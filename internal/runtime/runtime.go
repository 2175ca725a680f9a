// Package runtime implements libncrt, the NCL runtime of §3.2: the
// windowing mechanism (arrays split into windows per the invocation mask,
// windows encoded into NCP packets, fragments reassembled), the two
// kernel-invoking APIs (data-centric Out and window-level OutWindow,
// §4.1), incoming-kernel execution on window receipt (In), and backend
// selection (in-memory fabric or UDP sockets).
//
// Host application code uses this package the way the paper's main()
// uses ncl::out / ncl::in / ncl::ctrl_wr — the Go API stands in for the
// Clang-compiled host binary (see DESIGN.md substitution table).
//
// Data-path concurrency (DESIGN.md §5.8): Out shards its window range
// across AppConfig.SendWorkers goroutines with pooled encode scratch and
// per-worker counter batching; the receive side keeps one bounded
// completed-window guard and one fragment table under one lock (both
// transports run a host on one goroutine at a time, so the lock is not
// contended on their path). SendWorkers=1 restores the serial,
// deterministic send order. Everything a host sends — Out and OutReliable
// bursts, a lone OutWindow, the acks of a received packet — queues in a
// pooled sendScratch and leaves through the transport's one send,
// netsim.Sender.SendBatch (flushSendQueue).
package runtime

import (
	"bytes"
	"fmt"
	"math"
	gort "runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ncl/internal/fifo"
	"ncl/internal/ncl/hostgen"
	"ncl/internal/ncl/ir"
	"ncl/internal/ncp"
	"ncl/internal/netsim"
	"ncl/internal/obs"
)

// AppConfig is the compiled-application metadata a host needs: produced
// by internal/core from the build artifact.
type AppConfig struct {
	KernelIDs  map[string]uint32          // kernel name -> NCP kernel id
	OutSpecs   map[string][]ncp.ParamSpec // out-kernel name -> wire layout
	WindowLen  int                        // compiled window length W
	HostModule *ir.Module                 // incoming kernels (NewHost lowers each to a hostgen plan)
	UserFields []string                   // _win_ field wire order (sorted)
	MTU        int                        // fragment threshold; 0 = default
	// Batch packs up to this many consecutive windows into one packet
	// (§4.2: "a packet can carry one or more windows"). 0/1 = one window
	// per packet (the §6 prototype scope). Batches must fit the MTU.
	Batch int
	// SendWorkers shards Out's window range across this many goroutines
	// (0 = GOMAXPROCS). Each worker sends a contiguous chunk of the
	// sequence space in order; cross-worker arrival order is up to the
	// fabric. 1 keeps the serial, deterministic send order on the
	// caller's goroutine (what tests that assert wire order want).
	SendWorkers int
	// Obs is the metrics registry host counters land in (nil = the
	// process-wide obs.Default; deployments install their own).
	Obs *obs.Registry
	// InboxCap bounds the receive queue (0 = 65536). Overflowing windows
	// are dropped like a NIC queue — and, for reliable windows, never
	// acknowledged, so the sender retransmits them.
	InboxCap int
	// TraceEvery samples every Nth sent window for in-band hop tracing
	// (0 = off). Host.SetTraceEvery adjusts it at runtime.
	TraceEvery int
	// NonIdempotent names the out-kernels whose switch-side execution
	// mutates register state (derived by core from the compiled programs'
	// stateful ALUs). OutReliable marks windows for these kernels with
	// ncp.FlagExactlyOnce so switches suppress retransmitted duplicates
	// instead of double-applying them.
	NonIdempotent map[string]bool
	// MetricsPrefix, when set, prefixes every host counter name
	// (e.g. "tenant.a." yields tenant.a.host.<label>.*) — the per-tenant
	// metrics namespace for multi-tenant deployments sharing a registry.
	MetricsPrefix string
}

// DefaultMTU bounds single-packet windows; larger windows fragment (§6's
// multi-packet extension, reassembled only at hosts).
const DefaultMTU = 1400

// RecvWindow is one reassembled window delivered to the application.
type RecvWindow struct {
	Header *ncp.Header
	User   []uint64
	// Raw is the payload, aliasing the packet it arrived in. Read-only: a
	// broadcast's copies share their bytes (netsim.Packet.Shared), so two
	// hosts' windows may alias one array.
	Raw []byte
	// Trace holds the reassembled hop records of a traced window
	// (FlagTrace), ending with this host's deliver record. Fragmented
	// windows report the first-arriving fragment's path.
	Trace []ncp.Hop
}

// Host is one application endpoint.
type Host struct {
	label  string
	id     uint32
	role   uint32
	cfg    AppConfig
	send   netsim.Sender
	routes atomic.Pointer[netsim.Routes] // swapped whole by SetRouting (re-placement)

	inKernels map[string]*hostgen.Plan // incoming kernels, lowered once

	met        hostMetrics
	traceEvery atomic.Int64  // trace every Nth window (0 = off)
	winCount   atomic.Uint64 // windows sent (trace sampling index)
	widSeq     atomic.Uint32 // invocation id allocator
	traceSink  atomic.Pointer[func(*ncp.Header, []ncp.Hop)]

	// recvMu guards the receive-side tables. The transports run a host on
	// one goroutine at a time, but a caller may also hand Receive packets
	// from several goroutines at once.
	recvMu sync.Mutex
	done   *fifo.Map[fragKey, struct{}] // recently completed windows (duplicate guard)
	frags  *fifo.Map[fragKey, *fragBuf] // outstanding fragment buffers

	ackMu       sync.Mutex
	sends       map[uint32]*relSend      // outstanding OutReliable calls by wid
	rtt         map[string]*rttEstimator // retransmit-timeout estimate per destination
	sendsClosed bool                     // Close ran: OutReliable fails with ErrClosed

	closeMu sync.RWMutex // guards closed/inbox-close against enqueue
	closed  bool
	inbox   chan *RecvWindow
}

// hostMetrics caches the host's registry handles (no name lookups on the
// data path). Metric names: host.<label>.<metric>.
type hostMetrics struct {
	windowsSent     *obs.Counter
	packetsSent     *obs.Counter
	windowsReceived *obs.Counter
	fragsReasm      *obs.Counter // fragments merged into completed windows
	dupsDropped     *obs.Counter
	inboxDropped    *obs.Counter
	dupEvictions    *obs.Counter
	fragEvictions   *obs.Counter // stale fragment buffers dropped
	decodeErrors    *obs.Counter // undecodable packets dropped
	retransmits     *obs.Counter
	fastRetransmits *obs.Counter // the retransmits of windows overtaken by acknowledged later ones
	reliableCalls   *obs.Counter // OutReliable calls that sent windows
	timerCalls      *obs.Counter // the reliable calls in which a window's deadline expired
	staleAcks       *obs.Counter // late/duplicate acks ignored
	ackSendErrors   *obs.Counter // received bursts whose acks could not all be sent
	tracedWindows   *obs.Counter
	inflight        *obs.Gauge     // reliable windows in flight
	ackRtt          *obs.Histogram // ack RTT of never-retransmitted windows, µs
	backoffUs       *obs.Histogram // backed-off retransmit timeouts, µs
}

// newHostMetrics resolves the host counter handles under the given
// fully-formed prefix (host.<label>. — or tenant.<id>.host.<label>. for
// tenant deployments sharing a registry).
func newHostMetrics(r *obs.Registry, p string) hostMetrics {
	return hostMetrics{
		windowsSent:     r.Counter(p + "windows_sent"),
		packetsSent:     r.Counter(p + "packets_sent"),
		windowsReceived: r.Counter(p + "windows_received"),
		fragsReasm:      r.Counter(p + "fragments_reassembled"),
		dupsDropped:     r.Counter(p + "duplicates_dropped"),
		inboxDropped:    r.Counter(p + "inbox_dropped"),
		dupEvictions:    r.Counter(p + "dup_guard_evictions"),
		fragEvictions:   r.Counter(p + "frag_evictions"),
		decodeErrors:    r.Counter(p + "decode_errors"),
		retransmits:     r.Counter(p + "retransmits"),
		fastRetransmits: r.Counter(p + "fast_retransmits"),
		reliableCalls:   r.Counter(p + "reliable_calls"),
		timerCalls:      r.Counter(p + "timer_calls"),
		staleAcks:       r.Counter(p + "stale_acks"),
		ackSendErrors:   r.Counter(p + "ack_send_errors"),
		tracedWindows:   r.Counter(p + "traced_windows"),
		inflight:        r.Gauge(p + "reliable_inflight"),
		ackRtt:          r.Histogram(p+"ack_rtt_us", nil),
		backoffUs:       r.Histogram(p+"backoff_us", nil),
	}
}

type fragKey struct {
	sender uint32
	wid    uint32
	seq    uint32
}

type fragBuf struct {
	header ncp.Header
	user   []uint64
	hops   []ncp.Hop // trace of the first-arriving fragment
	parts  [][]byte  // payloads in the packets they arrived in; concatenated once, at completion
	have   int
}

// NewHost creates a host endpoint. The sender is the transport (fabric or
// UDP harness); routes give the first hop toward every destination
// (netsim.SinglePath) until SetRouting installs a full table.
func NewHost(label string, id, role uint32, cfg AppConfig, send netsim.Sender, routes map[string]string) *Host {
	if cfg.MTU == 0 {
		cfg.MTU = DefaultMTU
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.Default()
	}
	inboxCap := cfg.InboxCap
	if inboxCap <= 0 {
		inboxCap = 65536
	}
	h := &Host{
		label:     label,
		id:        id,
		role:      role,
		cfg:       cfg,
		send:      send,
		met:       newHostMetrics(reg, cfg.MetricsPrefix+"host."+label+"."),
		inbox:     make(chan *RecvWindow, inboxCap),
		inKernels: map[string]*hostgen.Plan{},
		done:      fifo.New[fragKey, struct{}](dupGuardCap),
		frags:     fifo.New[fragKey, *fragBuf](fragBufCap),
	}
	h.SetRouting(netsim.SinglePath(routes, nil))
	h.traceEvery.Store(int64(cfg.TraceEvery))
	if cfg.HostModule != nil {
		for _, f := range cfg.HostModule.Funcs {
			if f.Kind == ir.InKernel {
				h.inKernels[f.Name] = hostgen.Lower(f, cfg.UserFields)
			}
		}
	}
	return h
}

// Label implements netsim.Node.
func (h *Host) Label() string { return h.label }

// ID returns the host id (window.sender).
func (h *Host) ID() uint32 { return h.id }

// recvSlot is a delivered window and its header: one element of a slab.
type recvSlot struct {
	rw RecvWindow
	hd ncp.Header
}

// recvBurst is the pooled working set of one ReceiveBurst call: one decode
// scratch, a slab, the acks to send and the counts to publish.
type recvBurst struct {
	d    ncp.Decoded
	slab []recvSlot
	left int // packets after the current one
	acks []ncp.Header
	n    struct{ queued, drops, dups, bad, frags uint64 }
}

var burstPool = sync.Pool{New: func() any { return new(recvBurst) }}

// window builds a delivered window in the burst's slab, the only place one
// is built; a new slab holds want more windows and one per later packet, 64
// at least. Raw stays in the packet, which the host owns for good.
func (b *recvBurst) window(hd *ncp.Header, user []uint64, hops []ncp.Hop, raw []byte, want int) *RecvWindow {
	if len(b.slab) == 0 {
		b.slab = make([]recvSlot, max(want+b.left, 64))
	}
	s := &b.slab[0]
	b.slab, s.hd = b.slab[1:], *hd
	// Field by field into the zero slot (a literal is copied through the write barrier).
	s.rw.Header, s.rw.Raw = &s.hd, raw
	s.rw.User, s.rw.Trace = append([]uint64(nil), user...), append([]ncp.Hop(nil), hops...)
	return &s.rw
}

// Receive implements netsim.Node: a burst of one.
func (h *Host) Receive(f netsim.Sender, pkt *netsim.Packet, from string) {
	h.ReceiveBurst(f, []netsim.Delivery{{Pkt: pkt, From: from}})
}

// ReceiveBurst implements netsim.BurstReceiver: NCP packets are decoded,
// reassembled and queued for In in arrival order; undecodable traffic is
// counted and dropped (hosts are endpoints). Counters publish once per burst.
func (h *Host) ReceiveBurst(_ netsim.Sender, burst []netsim.Delivery) {
	b := burstPool.Get().(*recvBurst)
	for i := range burst {
		b.left = len(burst) - 1 - i
		h.receivePacket(b, burst[i].Pkt)
	}
	h.met.windowsReceived.Add(b.n.queued)
	h.met.inboxDropped.Add(b.n.drops)
	h.met.dupsDropped.Add(b.n.dups)
	h.met.decodeErrors.Add(b.n.bad)
	h.met.fragsReasm.Add(b.n.frags)
	b.n = recvBurst{}.n
	// A burst's acks leave together, holding no lock (the transport can
	// block on a congested fabric), and only for windows that were enqueued
	// or are confirmed duplicates of enqueued ones — never for
	// overflow-dropped windows, which the sender must retransmit.
	if len(b.acks) > 0 {
		sc := h.getScratch()
		var err error
		for i := range b.acks {
			if aerr := h.sendAck(&b.acks[i], sc); err == nil {
				err = aerr
			}
		}
		if h.putScratch(sc, err) != nil {
			h.met.ackSendErrors.Inc()
		}
		b.acks = b.acks[:0]
	}
	burstPool.Put(b)
}

func (h *Host) receivePacket(b *recvBurst, pkt *netsim.Packet) {
	d := &b.d
	if err := ncp.DecodeFullInto(pkt.Data, d); err != nil {
		b.n.bad++
		return
	}
	hd := &d.Header
	if hd.Flags&ncp.FlagAck != 0 {
		h.handleAck(hd, d.Payload) // pure acknowledgment, consumed
		return
	}
	if hd.Flags&ncp.FlagTrace != 0 {
		// Trace reassembly: close the window's hop record with this
		// host's delivery event at the fabric's virtual arrival time,
		// stamping the runtime inbox depth and the delivering kernel.
		depth := len(h.inbox)
		if depth > math.MaxUint16 {
			depth = math.MaxUint16
		}
		d.Hops = append(d.Hops, ncp.Hop{
			Loc: uint16(h.id), Kind: ncp.HopHost,
			Event: ncp.EventDeliver, TimeNs: vtimeNs(pkt),
			QueueDepth: uint16(depth), KernelID: hd.KernelID,
		})
	}
	if hd.FragCount > 1 {
		h.reassemble(b, d)
		return
	}
	// Feed the completed span to the telemetry collector, if one is
	// attached — only for a packet the inbox accepted: a suppressed
	// duplicate, an overflow drop or a window refused by a closed host was
	// not delivered. Fragmented windows only carry the first fragment's
	// hops, so the sink sees whole single-packet windows.
	if h.receiveWindows(b, d) && hd.Flags&ncp.FlagTrace != 0 {
		if sink := h.traceSink.Load(); sink != nil {
			(*sink)(hd, d.Hops)
		}
	}
}

// receiveWindows queues a single-packet window, or each window of a
// multi-window packet that reached a host still batched (with its own
// user/hops copies), reporting whether the inbox took any. A reliable
// window is acked and duplicate-guarded on its own: a retransmit of a
// delivered one is re-acked but not re-enqueued, and one the inbox drops
// is neither recorded nor acked. Only a reliable packet takes recvMu.
func (h *Host) receiveWindows(b *recvBurst, d *ncp.Decoded) (queued bool) {
	hd, payload := &d.Header, d.Payload
	n := max(1, int(hd.BatchCount))
	if len(payload)%n != 0 {
		b.n.bad++
		return false // payload does not split evenly across the batch
	}
	reliable := hd.Flags&ncp.FlagAckRequest != 0
	if reliable {
		h.recvMu.Lock()
		defer h.recvMu.Unlock()
	}
	per := len(payload) / n
	for k := 0; k < n; k++ {
		sub := *hd
		if n > 1 {
			sub.BatchCount, sub.WindowSeq = 1, hd.WindowSeq+uint32(k)
		}
		if h.settle(b, &sub, d.User, d.Hops, payload[k*per:(k+1)*per], n-k, reliable) {
			queued = true
		}
	}
	return queued
}

// reassemble takes one fragment of a multi-packet window (hosts only, §6)
// under recvMu. Fragments of an already-delivered window (retransmits,
// fabric duplication) are dropped by the completed-window guard; a
// completed window is settled like any other and always guarded.
func (h *Host) reassemble(b *recvBurst, d *ncp.Decoded) {
	hd := &d.Header
	h.recvMu.Lock()
	defer h.recvMu.Unlock()
	if h.duplicate(b, hd) {
		return
	}
	key := fragKey{hd.Sender, hd.Wid, hd.WindowSeq}
	fb, ok := h.frags.Get(key)
	if !ok {
		// d's slices are the burst's decode scratch: the buffer keeps copies.
		fb = &fragBuf{header: *hd, parts: make([][]byte, hd.FragCount),
			user: append([]uint64(nil), d.User...), hops: append([]ncp.Hop(nil), d.Hops...)}
		h.met.fragEvictions.Add(uint64(h.frags.Put(key, fb)))
	}
	if int(hd.FragIdx) >= len(fb.parts) || fb.parts[hd.FragIdx] != nil {
		b.n.dups++
		return // duplicate or malformed fragment
	}
	fb.parts[hd.FragIdx] = d.Payload // the host's own packet: kept as it arrived
	fb.have++
	if fb.have < len(fb.parts) {
		return
	}
	h.frags.Delete(key)
	b.n.frags += uint64(len(fb.parts))
	hd2 := fb.header
	hd2.FragIdx, hd2.FragCount = 0, 1
	h.settle(b, &hd2, fb.user, fb.hops, bytes.Join(fb.parts, nil), 1, true)
}

// vtimeNs converts the fabric's virtual arrival time to the trace's
// nanosecond clock (0 on backends without virtual time, e.g. UDP).
func vtimeNs(pkt *netsim.Packet) uint64 {
	if pkt.VTimeUs <= 0 {
		return 0
	}
	return uint64(pkt.VTimeUs * 1000)
}

// dupGuardCap bounds a host's completed-window duplicate guard: the
// oldest records are evicted in insertion order past this size, so
// long-running hosts hold a fixed amount of dedup state (evictions are
// counted in host.<label>.dup_guard_evictions).
const dupGuardCap = 65536

// fragBufCap bounds a host's outstanding fragment buffers: windows that
// never complete (a lost fragment, a sender that died mid-window) would
// otherwise leak their partial buffers forever. Past the cap the oldest
// outstanding buffer is evicted (host.<label>.frag_evictions).
const fragBufCap = 16384

// settle is the last step of every received window: dedupe, enqueue, mark
// done, ack. A guarded window (the caller holds recvMu) that the
// completed-window guard holds is a duplicate; any other is built in the
// burst's slab and enqueued, and once the inbox took it, recorded in the
// guard if guarded and acked if it asks for an ack (only a guarded one
// can: every reliable window is guarded).
func (h *Host) settle(b *recvBurst, hd *ncp.Header, user []uint64, hops []ncp.Hop, raw []byte, want int, guard bool) bool {
	if guard && h.duplicate(b, hd) {
		return false
	}
	if !h.enqueue(b, b.window(hd, user, hops, raw, want)) {
		return false
	}
	if guard {
		h.met.dupEvictions.Add(uint64(h.done.Put(fragKey{hd.Sender, hd.Wid, hd.WindowSeq}, struct{}{})))
	}
	if hd.Flags&ncp.FlagAckRequest != 0 {
		b.acks = append(b.acks, *hd)
	}
	return true
}

// duplicate reports whether the completed-window guard holds hd's window,
// counting it and re-acking it if it asks for an ack. The caller holds
// recvMu.
func (h *Host) duplicate(b *recvBurst, hd *ncp.Header) bool {
	if _, ok := h.done.Get(fragKey{hd.Sender, hd.Wid, hd.WindowSeq}); !ok {
		return false
	}
	b.n.dups++
	if hd.Flags&ncp.FlagAckRequest != 0 {
		b.acks = append(b.acks, *hd)
	}
	return true
}

// enqueue queues one window for the application, reporting whether it
// was accepted (false = inbox overflow, dropped like a NIC queue, or a
// closed host). The burst counts it.
func (h *Host) enqueue(b *recvBurst, rw *RecvWindow) bool {
	h.closeMu.RLock()
	defer h.closeMu.RUnlock()
	if h.closed {
		return false
	}
	select {
	case h.inbox <- rw:
		b.n.queued++
		return true
	default:
		b.n.drops++
		return false
	}
}

// Close releases the host: pending In calls and outstanding OutReliable
// calls return ErrClosed.
func (h *Host) Close() {
	h.closeMu.Lock()
	if !h.closed {
		h.closed = true
		close(h.inbox)
	}
	h.closeMu.Unlock()
	h.closeSends()
}

// ---------------------------------------------------------------------------
// Outgoing kernels (§4.1)

// Invocation names an outgoing kernel invocation: the kernel, the final
// destination label, and optional user window-struct field values.
type Invocation struct {
	Kernel string
	Dest   string
	User   map[string]uint64
}

// sendScratch is per-sender reusable send state: a pooled encode buffer,
// a user-value scratch slice, the send group its packets are carved from,
// locally batched counter deltas flushed once per owner so the shared
// atomics aren't contended per window, and the queue every outgoing packet
// waits in (qTos/qPkts) until it leaves in a SendBatch group of up to
// sendFlushEvery. The owner flushes the queue before it waits for
// anything, and putScratch before the scratch is pooled.
type sendScratch struct {
	payload []byte
	user    []uint64
	group   netsim.PacketGroup
	windows uint64
	packets uint64

	qTos  []string
	qPkts []*netsim.Packet
}

// marshal encodes an NCP packet (ncp.AppendHops) into a packet from the
// scratch's send group: the one place a host allocates a packet it sends.
func (sc *sendScratch) marshal(h *ncp.Header, user []uint64, hops []ncp.Hop, payload []byte) (pkt *netsim.Packet, err error) {
	pkt = sc.group.Packet(ncp.MarshalLen(h, user, hops, payload))
	pkt.Data, err = ncp.AppendHops(pkt.Data, h, user, hops, payload)
	return pkt, err
}

// sendFlushEvery is how many queued packets a scratch accumulates before
// handing them to the transport in one SendBatch.
const sendFlushEvery = 32

// queuePacket addresses one encoded packet to dest and queues it, flushing
// when the queue is full.
func (h *Host) queuePacket(dest string, pkt *netsim.Packet, sc *sendScratch) error {
	pkt.Src, pkt.Dst, pkt.Via = h.label, dest, ""
	hop, ok := h.routes.Load().NextHop(h.send, h.label, pkt)
	if !ok {
		return fmt.Errorf("runtime: no route from %s to %s", h.label, dest)
	}
	sc.qTos = append(sc.qTos, hop)
	sc.qPkts = append(sc.qPkts, pkt)
	if len(sc.qPkts) >= sendFlushEvery {
		return h.flushSendQueue(sc)
	}
	return nil
}

// flushSendQueue hands all queued packets to the transport: the one place
// a packet leaves the host.
func (h *Host) flushSendQueue(sc *sendScratch) error {
	if len(sc.qPkts) == 0 {
		return nil
	}
	err := h.send.SendBatch(h.label, sc.qTos, sc.qPkts)
	for i := range sc.qPkts {
		sc.qPkts[i] = nil
	}
	sc.qTos = sc.qTos[:0]
	sc.qPkts = sc.qPkts[:0]
	return err
}

// A scratch rebuilt after a collection empties the pool starts with a full queue.
var sendPool = sync.Pool{New: func() any {
	return &sendScratch{qTos: make([]string, 0, sendFlushEvery), qPkts: make([]*netsim.Packet, 0, sendFlushEvery)}
}}

func (h *Host) getScratch() *sendScratch { return sendPool.Get().(*sendScratch) }

// putScratch flushes the scratch's queued packets and batched counters and
// returns it to the pool. It returns err, or the flush error if err is nil.
func (h *Host) putScratch(sc *sendScratch, err error) error {
	if ferr := h.flushSendQueue(sc); err == nil {
		err = ferr
	}
	if sc.windows > 0 {
		h.met.windowsSent.Add(sc.windows)
		sc.windows = 0
	}
	if sc.packets > 0 {
		h.met.packetsSent.Add(sc.packets)
		sc.packets = 0
	}
	sendPool.Put(sc)
	return err
}

// userVals fills the scratch's user-value slice in wire order. The
// result is only read during marshal; it is reused across windows.
func (h *Host) userVals(inv Invocation, sc *sendScratch) []uint64 {
	sc.user = sc.user[:0]
	for _, name := range h.cfg.UserFields {
		sc.user = append(sc.user, inv.User[name])
	}
	return sc.user
}

// sendWorkers resolves AppConfig.SendWorkers (0 = GOMAXPROCS).
func (h *Host) sendWorkers() int {
	if h.cfg.SendWorkers > 0 {
		return h.cfg.SendWorkers
	}
	return gort.GOMAXPROCS(0)
}

// effectiveBatch clamps AppConfig.Batch so one multi-window packet fits
// the MTU and the 8-bit BatchCount field. Returns 1 when batching is off
// or a single window already fills the MTU.
func (h *Host) effectiveBatch(specs []ncp.ParamSpec) int {
	batch := h.cfg.Batch
	if batch <= 1 {
		return 1
	}
	per := ncp.PayloadSize(specs)
	if per > 0 && per*batch > h.cfg.MTU {
		batch = h.cfg.MTU / per
	}
	if batch > 255 {
		batch = 255
	}
	if batch < 1 {
		batch = 1
	}
	return batch
}

// Out is the data-centric API: it consumes entire arrays, splitting them
// into windows of the compiled window length and sending each (the
// paper's first kernel-invoking API). Array lengths must be equal
// multiples of W for pointer parameters; scalar parameters receive a
// per-window value from their (length windows) slice.
//
// The window range is sharded across AppConfig.SendWorkers goroutines,
// each sending a contiguous chunk of the sequence space in order with
// pooled encode buffers. With SendWorkers=1 the whole range is sent
// serially on the caller's goroutine, in sequence order.
func (h *Host) Out(inv Invocation, arrays [][]uint64) error {
	specs, err := h.outSpecs(inv.Kernel)
	if err != nil {
		return err
	}
	if err := h.checkUserFields(inv); err != nil {
		return err
	}
	windows, err := h.windowCount(inv.Kernel, arrays, specs)
	if err != nil {
		return err
	}
	if windows == 0 {
		return nil
	}
	wid := h.nextWid()
	batch := h.effectiveBatch(specs)
	units := windows // one unit = one packet's worth of windows
	if batch > 1 {
		units = (windows + batch - 1) / batch
	}
	workers := h.sendWorkers()
	if workers > units {
		workers = units
	}
	if workers <= 1 {
		sc := h.getScratch()
		return h.putScratch(sc, h.outRange(inv, wid, arrays, specs, 0, units, batch, windows, sc))
	}
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
		errUnit  int
	)
	for wi := 0; wi < workers; wi++ {
		lo := wi * units / workers
		hi := (wi + 1) * units / workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			sc := h.getScratch()
			if err := h.putScratch(sc, h.outRange(inv, wid, arrays, specs, lo, hi, batch, windows, sc)); err != nil {
				errMu.Lock()
				if firstErr == nil || lo < errUnit {
					firstErr, errUnit = err, lo
				}
				errMu.Unlock()
			}
		}(lo, hi)
	}
	wg.Wait()
	return firstErr
}

// outRange encodes and queues units [lo, hi) of one invocation: single
// windows when batch <= 1, else multi-window packets of batch consecutive
// windows (the trailing partial batch ships smaller). The scratch
// provides the reusable encode buffer, counter batching and the send
// queue; the caller's putScratch flushes what is still queued.
func (h *Host) outRange(inv Invocation, wid uint32, arrays [][]uint64, specs []ncp.ParamSpec, lo, hi, batch, windows int, sc *sendScratch) error {
	winData := make([][]uint64, len(specs))
	winAt := func(seq int) [][]uint64 {
		return windowSlices(winData, arrays, specs, h.cfg.WindowLen, seq)
	}
	if batch <= 1 {
		for seq := lo; seq < hi; seq++ {
			if err := h.sendWindowScratch(inv, wid, uint32(seq), winAt(seq), specs, 0, sc); err != nil {
				return err
			}
		}
		return nil
	}
	for u := lo; u < hi; u++ {
		seq := u * batch
		n := batch
		if seq+n > windows {
			n = windows - seq
		}
		payload := sc.payload[:0]
		var err error
		for k := 0; k < n; k++ {
			payload, err = ncp.AppendPayload(payload, winAt(seq+k), specs)
			if err != nil {
				return err
			}
		}
		sc.payload = payload
		if err := h.sendPayload(inv, wid, uint32(seq), uint8(n), 0, payload, sc); err != nil {
			return err
		}
	}
	return nil
}

// windowSlices points dst at window seq's share of every array: W
// elements of a pointer parameter, one of a scalar's per-window slice.
func windowSlices(dst, arrays [][]uint64, specs []ncp.ParamSpec, W, seq int) [][]uint64 {
	for pi, sp := range specs {
		if sp.Elems == W {
			dst[pi] = arrays[pi][seq*W : (seq+1)*W]
		} else {
			dst[pi] = arrays[pi][seq : seq+1]
		}
	}
	return dst
}

// traceHops advances the sent-window counter by count and, when trace
// sampling selects any of those windows (every Nth since the host
// started), counts every selected window and returns the send-side hop
// list that starts the in-band trace. Returns nil when tracing is off or
// no window was selected. kid is the invoked kernel, stamped into the
// send hop's INT record.
func (h *Host) traceHops(count int, kid uint32) []ncp.Hop {
	if count <= 0 {
		count = 1
	}
	n := h.winCount.Add(uint64(count))
	every := h.traceEvery.Load()
	if every <= 0 {
		return nil
	}
	selected := uint64(0)
	for i := n - uint64(count); i < n; i++ {
		if i%uint64(every) == 0 {
			selected++
		}
	}
	if selected == 0 {
		return nil
	}
	h.met.tracedWindows.Add(selected)
	// The origin hop; vtime 0 — the fabric's clock starts when the
	// packet enters the first link.
	return []ncp.Hop{{Loc: uint16(h.id), Kind: ncp.HopHost, Event: ncp.EventSend, KernelID: kid}}
}

// SetTraceEvery adjusts trace sampling at runtime: every nth sent window
// carries FlagTrace and accumulates hop records (0 disables).
func (h *Host) SetTraceEvery(n int) { h.traceEvery.Store(int64(n)) }

// SetTraceSink installs a callback invoked synchronously from the
// receive path with the header and completed hop list (deliver hop
// included) of every traced window the inbox accepted — after it was
// queued, so the application may already hold the window. The slices
// alias pooled receive scratch: the sink must copy anything it keeps and
// return quickly — it runs on the fabric's delivery goroutine. nil
// uninstalls. The telemetry collector is the intended consumer.
func (h *Host) SetTraceSink(fn func(*ncp.Header, []ncp.Hop)) {
	if fn == nil {
		h.traceSink.Store(nil)
		return
	}
	h.traceSink.Store(&fn)
}

// OutWindow is the window-level API (the paper's finer-grained second
// API): the caller sends one window at an explicit sequence number.
func (h *Host) OutWindow(inv Invocation, wid, seq uint32, winData [][]uint64) error {
	specs, err := h.outSpecs(inv.Kernel)
	if err != nil {
		return err
	}
	if err := h.checkUserFields(inv); err != nil {
		return err
	}
	sc := h.getScratch()
	return h.putScratch(sc, h.sendWindowScratch(inv, wid, seq, winData, specs, 0, sc))
}

// NewWid allocates a fresh invocation id for OutWindow sequences.
func (h *Host) NewWid() uint32 { return h.nextWid() }

func (h *Host) nextWid() uint32 { return h.widSeq.Add(1) }

func (h *Host) outSpecs(kernel string) ([]ncp.ParamSpec, error) {
	specs, ok := h.cfg.OutSpecs[kernel]
	if !ok {
		return nil, fmt.Errorf("runtime: unknown outgoing kernel %q", kernel)
	}
	return specs, nil
}

// sendWindowScratch encodes one window into the given scratch and queues
// it as a lone window.
func (h *Host) sendWindowScratch(inv Invocation, wid, seq uint32, winData [][]uint64, specs []ncp.ParamSpec, flags uint8, sc *sendScratch) error {
	for pi, sp := range specs {
		if len(winData[pi]) != sp.Elems {
			return fmt.Errorf("runtime: window array %d has %d elements, kernel wants %d", pi, len(winData[pi]), sp.Elems)
		}
	}
	payload, err := ncp.AppendPayload(sc.payload[:0], winData, specs)
	if err != nil {
		return err
	}
	sc.payload = payload
	return h.sendPayload(inv, wid, seq, 0, flags, payload, sc)
}

// sendPayload is the one header/marshal/queue site: it sends the encoded
// payload of a lone window (batch 0) or of a multi-window packet of batch
// consecutive windows starting at seq (§4.2). Only a lone window may
// exceed the MTU: it fragments (§6's multi-packet extension) — unless it
// is reliable (FlagAckRequest), which must fit one packet.
func (h *Host) sendPayload(inv Invocation, wid, seq uint32, batch, flags uint8, payload []byte, sc *sendScratch) error {
	kid, ok := h.cfg.KernelIDs[inv.Kernel]
	if !ok {
		return fmt.Errorf("runtime: kernel %q has no id", inv.Kernel)
	}
	hdr := ncp.Header{
		Flags:      flags,
		KernelID:   kid,
		WindowSeq:  seq,
		WindowLen:  uint16(h.cfg.WindowLen),
		Sender:     h.id,
		FromRole:   h.role,
		Wid:        wid,
		BatchCount: batch,
	}
	userVals := h.userVals(inv, sc)
	hops := h.traceHops(int(batch), kid)

	frags, mtu := 1, h.cfg.MTU
	if batch == 0 && len(payload) > mtu {
		if flags&ncp.FlagAckRequest != 0 {
			return fmt.Errorf("runtime: reliable windows must fit one packet (payload %dB > MTU %dB)", len(payload), mtu)
		}
		if frags = (len(payload) + mtu - 1) / mtu; frags > 0xFFFF {
			return fmt.Errorf("runtime: window needs %d fragments", frags)
		}
	}
	hdr.FragCount = uint16(frags)
	for i := 0; i < frags; i++ {
		part := payload
		if frags > 1 {
			part = payload[i*mtu : min((i+1)*mtu, len(payload))]
		}
		hdr.FragIdx = uint16(i)
		pkt, err := sc.marshal(&hdr, userVals, hops, part)
		if err != nil {
			return err
		}
		if err := h.queuePacket(inv.Dest, pkt, sc); err != nil {
			return err
		}
		sc.packets++
	}
	sc.windows += uint64(max(1, batch))
	return nil
}

// SetRouting installs the host's forwarding table: its first hops, the
// waypoints it stamps and the host directory its acks are addressed by.
// The controller installs one at deployment and after every re-placement;
// in-flight sends keep the table they loaded, new sends see the new one.
func (h *Host) SetRouting(rt *netsim.Routes) { h.routes.Store(rt) }

// checkUserFields rejects invocation window-field values that do not
// correspond to a declared _win_ field (a typo would otherwise silently
// send zero).
func (h *Host) checkUserFields(inv Invocation) error {
	for name := range inv.User {
		known := false
		for _, f := range h.cfg.UserFields {
			if f == name {
				known = true
				break
			}
		}
		if !known {
			return fmt.Errorf("runtime: no _win_ field named %q (declared: %v)", name, h.cfg.UserFields)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Incoming kernels (§4.1)

// ErrClosed reports In on a closed host.
var ErrClosed = fmt.Errorf("runtime: host closed")

// ErrTimeout reports that no window arrived in time.
var ErrTimeout = fmt.Errorf("runtime: timed out waiting for a window")

// Recv blocks until one window arrives and returns it without executing
// any incoming kernel — for consumers that only inspect headers, traces,
// or raw payloads. A zero timeout waits forever. A window that is already
// queued is returned without arming a timer.
func (h *Host) Recv(timeout time.Duration) (*RecvWindow, error) {
	select {
	case w, open := <-h.inbox:
		return received(w, open)
	default:
	}
	var expired <-chan time.Time // nil (no timeout) never fires
	if timeout > 0 {
		t, _ := recvTimers.Get().(*time.Timer)
		if t == nil {
			t = time.NewTimer(timeout)
		} else {
			t.Reset(timeout)
		}
		defer func() {
			stopTimer(t)
			recvTimers.Put(t)
		}()
		expired = t.C
	}
	select {
	case w, open := <-h.inbox:
		return received(w, open)
	case <-expired:
		return nil, ErrTimeout
	}
}

// recvTimers recycles the timers Recv waits on (stopped and drained).
var recvTimers sync.Pool

// stopTimer leaves t stopped with an empty channel, ready for Reset.
// go.mod's go 1.22 keeps buffered timer channels: a timer that fired
// before Stop still holds its tick unless the caller received it.
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

func received(w *RecvWindow, open bool) (*RecvWindow, error) {
	if !open {
		return nil, ErrClosed
	}
	return w, nil
}

// In blocks until one window arrives, executes the named incoming kernel
// on it with ext bound to the kernel's _ext_ parameters (host memory),
// and returns the received window. A zero timeout waits forever.
func (h *Host) In(kernel string, ext [][]uint64, timeout time.Duration) (*RecvWindow, error) {
	plan, ok := h.inKernels[kernel]
	if !ok {
		return nil, fmt.Errorf("runtime: unknown incoming kernel %q", kernel)
	}
	rw, err := h.Recv(timeout)
	if err != nil {
		return nil, err
	}
	return rw, runInKernel(plan, rw, ext)
}

// TryIn is the non-blocking variant of In.
func (h *Host) TryIn(kernel string, ext [][]uint64) (*RecvWindow, bool, error) {
	plan, ok := h.inKernels[kernel]
	if !ok {
		return nil, false, fmt.Errorf("runtime: unknown incoming kernel %q", kernel)
	}
	select {
	case rw, open := <-h.inbox:
		if !open {
			return nil, false, ErrClosed
		}
		return rw, true, runInKernel(plan, rw, ext)
	default:
		return nil, false, nil
	}
}

// runInKernel executes the kernel's compiled host plan on the window: its
// elements are read from the payload bytes, its metadata from the header.
func runInKernel(plan *hostgen.Plan, rw *RecvWindow, ext [][]uint64) error {
	hd := rw.Header
	return plan.Run(&hostgen.Window{
		Raw: rw.Raw, User: rw.User, Ext: ext,
		Seq: uint64(hd.WindowSeq), Len: uint64(hd.WindowLen), From: uint64(hd.FromRole),
		Sender: uint64(hd.Sender), Wid: uint64(hd.Wid),
	})
}

// Pending returns the number of queued windows.
func (h *Host) Pending() int { return len(h.inbox) }

// SortedKernelNames lists configured out-kernels (for diagnostics).
func (c AppConfig) SortedKernelNames() []string {
	var names []string
	for n := range c.OutSpecs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
