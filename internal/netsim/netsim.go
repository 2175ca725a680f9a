// Package netsim provides the simulated network fabric the NCL system
// runs on: nodes (hosts and switches) connected by the links of an AND
// overlay, message passing with per-link accounting, and fault injection
// (loss, duplication, reordering) for robustness tests.
//
// The fabric is intentionally simple: a goroutine per node draining an
// inbox, direct neighbor-to-neighbor delivery, and atomic byte/packet
// counters per link. Nodes send through one seam, Sender.SendBatch, and the
// fabric has one send loop behind it (a packet is a batch of one): the
// only place virtual time is stamped, failed links blackhole and the
// fault dice are rolled. Performance *shapes* for the evaluation come
// from the counters plus the analytic model in internal/model — not from
// wall-clock sleeps.
package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ncl/internal/and"
	"ncl/internal/obs"
)

// Packet is one unit on the wire. Ownership: a sender gives up the struct
// and Data when it sends. The receiver owns a delivered *Packet and its
// Data — it may rewrite Data and forward the same struct, as a switch
// does with the windows it executes — until Receive returns on UDP (the
// reader recycles the buffer) and for good on the fabric. The exception
// is a packet marked Shared: it copies Data before writing into it.
type Packet struct {
	Src  string // originating node label
	Dst  string // final destination label
	Data []byte

	Shared bool // Data is aliased by other packets (a broadcast's copies)

	// Via is an optional waypoint: when set, switches route toward Via
	// instead of Dst until the waypoint switch clears it. The placement
	// engine uses it to steer host-to-host windows through the physical
	// switch an _at_ location was placed on, without rewriting Dst (the
	// NCP transport keys retransmit state on the final destination).
	// Empty for identity deployments; every transport carries it.
	Via string

	// VTimeUs is the packet's virtual timestamp in microseconds: set by
	// the fabric to the modeled arrival time on each hop (see vtime.go).
	// Nodes deriving new packets from a received one should copy it (the
	// SwitchNode adds its pipeline delay).
	VTimeUs float64
}

// Sender is the transport a node sends through: the in-memory fabric
// here, or the UDP harness in internal/runtime. This is the backend seam
// of Fig. 3a (POSIX/UDP vs DPDK-like in-memory), and SendBatch is its only
// send: a node hands over whatever it has ready — one packet is a batch of
// one — and the transport amortizes its per-call costs over it (stopped
// check, virtual-time lock, inbox lock and wakeup here; syscalls in the
// UDP backend).
type Sender interface {
	// SendBatch transmits pkts[i] from the node labeled `from` to its
	// overlay neighbor tos[i], preserving order per destination.
	// len(tos) must equal len(pkts). A packet that cannot be sent does not
	// stop the ones behind it: every deliverable packet is delivered and
	// the errors come back joined.
	SendBatch(from string, tos []string, pkts []*Packet) error
	// Network returns the AND overlay.
	Network() *and.Network
}

// Node is anything attachable to the fabric.
type Node interface {
	// Label returns the node's AND label.
	Label() string
	// Receive handles a packet delivered from direct neighbor `from`.
	// It runs on the node's inbox goroutine.
	Receive(f Sender, pkt *Packet, from string)
}

// LinkStats accumulates per-direction link counters.
type LinkStats struct {
	Packets atomic.Uint64
	Bytes   atomic.Uint64
	Dropped atomic.Uint64
}

// Faults configures fault injection. Zero value = perfect network.
type Faults struct {
	DropProb float64
	DupProb  float64
	// ReorderProb swaps a packet with the next one on the same link: the
	// selected packet is held back and delivered after the link's next
	// send.
	ReorderProb float64
	// ReorderHold bounds how long a held-back packet waits for that next
	// send (0 = 10ms): when it expires the packet is delivered anyway, so
	// the final packet of a run cannot silently vanish in the hold-back
	// slot. Tests pin it high to exercise Stop/ResetStats flushing
	// deterministically.
	ReorderHold time.Duration
	Seed        int64
}

type linkKey struct{ from, to string }

// Fabric connects nodes according to an AND network.
type Fabric struct {
	net   *and.Network
	nodes map[string]Node

	inboxes  map[string]*ringInbox // by label; nil for a NullNode, an inert sink
	stats    map[linkKey]*LinkStats
	wg       sync.WaitGroup
	stopped  chan struct{}
	stopOnce sync.Once

	inboxCap int // per-node inbox capacity (SetInboxCap before Attach)

	faults  Faults
	rngMu   sync.Mutex
	rng     *rand.Rand
	pending map[linkKey]*heldPkt // reorder hold-back slot per link

	// failed holds the set of failed node labels (FailNode): packets to or
	// from a failed node blackhole. nil when no node has ever failed, so
	// the healthy fast path pays one atomic load.
	failed atomic.Pointer[map[string]bool]

	// failedLinks holds failed directed links (FailLink records both
	// directions): packets crossing one blackhole. Same copy-on-write
	// discipline as failed — nil until the first failure.
	failedLinks atomic.Pointer[map[linkKey]bool]

	vt vclock // virtual-time bookkeeping (vtime.go)

	// queueWait records virtual-time queueing delay (µs) whenever a send
	// waits for a link to finish serializing earlier traffic
	// (fabric.queue_wait_us; SetObs re-homes it).
	queueWait *obs.Histogram
	// reorderFlushed counts hold-back packets delivered by their
	// ReorderHold timeout or a ResetStats flush rather than a later send;
	// reorderStranded counts hold-back packets still parked at Stop
	// (also added to the link's Dropped).
	reorderFlushed  *obs.Counter
	reorderStranded *obs.Counter
	// obsReg is the current registry; inboxDrops counts packets dropped
	// at a full inbox (fabric.<label>.inbox_drops) instead of blocking
	// the sender goroutine. Both maps are configured before traffic
	// (Attach/SetObs) and read lock-free on the send path.
	obsReg     *obs.Registry
	inboxDrops map[string]*obs.Counter

	// sinkPkts counts deliveries to NullNodes: inert packet sinks with no
	// inbox, no ring buffer, and no drain goroutine (a nil entry in
	// inboxes). A k=32 fat-tree has 8192 hosts of which a deployment
	// typically uses a handful; the rest must not cost a goroutine each.
	// Deliveries to a sink count on the link stats and fabric.sink_packets,
	// then vanish.
	sinkPkts *obs.Counter
}

type delivery struct {
	pkt  *Packet
	from string
}

// heldPkt is one reorder hold-back packet with everything needed to
// deliver it later: the link counters, the destination inbox, and the
// deliver-on-timeout timer.
type heldPkt struct {
	d     delivery
	st    *LinkStats
	inbox *ringInbox
	drops *obs.Counter
	timer *time.Timer
}

// New creates a fabric over the AND network. Attach nodes for every label
// before Start.
func New(network *and.Network, faults Faults) *Fabric {
	f := &Fabric{
		net:        network,
		nodes:      map[string]Node{},
		inboxes:    map[string]*ringInbox{},
		stats:      map[linkKey]*LinkStats{},
		stopped:    make(chan struct{}),
		inboxCap:   DefaultInboxCap,
		faults:     faults,
		rng:        rand.New(rand.NewSource(faults.Seed)),
		pending:    map[linkKey]*heldPkt{},
		inboxDrops: map[string]*obs.Counter{},
		vt:         vclock{linkFree: map[linkKey]float64{}},
	}
	f.SetObs(obs.NewRegistry()) // private until a deployment re-homes it
	for _, l := range network.Links {
		f.stats[linkKey{l.A, l.B}] = &LinkStats{}
		f.stats[linkKey{l.B, l.A}] = &LinkStats{}
	}
	return f
}

// SetObs re-homes the fabric's histogram and counters into the given
// registry (call before traffic flows).
func (f *Fabric) SetObs(r *obs.Registry) {
	f.vt.mu.Lock()
	f.queueWait = r.Histogram("fabric.queue_wait_us", nil)
	f.vt.mu.Unlock()
	f.rngMu.Lock()
	f.obsReg = r
	f.reorderFlushed = r.Counter("fabric.reorder_flushed")
	f.reorderStranded = r.Counter("fabric.reorder_stranded")
	f.sinkPkts = r.Counter("fabric.sink_packets")
	for label := range f.inboxDrops {
		f.inboxDrops[label] = r.Counter("fabric." + label + ".inbox_drops")
	}
	f.rngMu.Unlock()
}

// DefaultInboxCap is the per-node inbox capacity unless SetInboxCap
// overrides it.
const DefaultInboxCap = 4096

// DefaultDrainBatch is how many queued packets an inbox goroutine takes
// per wakeup. Larger batches amortize the wakeup and the node hand-off.
const DefaultDrainBatch = 64

// SetInboxCap sets the per-node inbox capacity for nodes attached after
// the call (deployments call it before Attach; 0 keeps the default). A
// full inbox drops the packet and counts fabric.<label>.inbox_drops
// rather than blocking the sender.
func (f *Fabric) SetInboxCap(n int) {
	if n > 0 {
		f.inboxCap = n
	}
}

// Network returns the underlying AND.
func (f *Fabric) Network() *and.Network { return f.net }

// Attach registers a node implementation for its label. NullNodes attach
// lazily: they satisfy Start's every-node-attached invariant but get no
// inbox, no per-label counter, and no drain goroutine — packets sent to
// them are counted and discarded inline on the sender's goroutine.
func (f *Fabric) Attach(n Node) error {
	label := n.Label()
	if f.net.NodeByLabel(label) == nil {
		return fmt.Errorf("netsim: no AND node labeled %q", label)
	}
	if _, dup := f.nodes[label]; dup {
		return fmt.Errorf("netsim: node %q already attached", label)
	}
	f.nodes[label] = n
	if _, isSink := n.(*NullNode); isSink {
		f.inboxes[label] = nil
		return nil
	}
	f.inboxes[label] = newRingInbox(f.inboxCap)
	f.rngMu.Lock()
	f.inboxDrops[label] = f.obsReg.Counter("fabric." + label + ".inbox_drops")
	f.rngMu.Unlock()
	return nil
}

// InboxDepth reports the number of packets queued at a node's inbox
// (0 for unknown labels). The inbox map is written only before Start,
// so the lookup is safe concurrent with traffic; the depth itself is a
// point-in-time sample. INT stamping uses this as the switch's
// queue-depth source.
func (f *Fabric) InboxDepth(label string) int {
	r := f.inboxes[label]
	if r == nil {
		return 0
	}
	return r.depth()
}

// batchReceiver is the optional path a node can implement to take a whole
// drained burst (of any length, one included) in one call instead of
// len(batch) Receive calls. The deliveries are in arrival order; the slice
// is only valid for the duration of the call (the drain goroutine reuses
// its backing array).
type batchReceiver interface {
	receiveBatch(f Sender, batch []delivery)
}

// Start launches the inbox goroutines. Every AND node must be attached.
// Each goroutine drains up to DefaultDrainBatch packets per wakeup and hands
// them to the node — in one receiveBatch call when the node supports it,
// otherwise via per-packet Receive in arrival order.
func (f *Fabric) Start() error {
	for _, n := range f.net.Nodes {
		if f.nodes[n.Label] == nil {
			return fmt.Errorf("netsim: AND node %q has no attached implementation", n.Label)
		}
	}
	for label, ring := range f.inboxes {
		if ring == nil {
			continue // a sink drains nothing
		}
		node := f.nodes[label]
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			br, _ := node.(batchReceiver)
			batch := make([]delivery, 0, DefaultDrainBatch)
			for {
				batch = ring.drain(batch, DefaultDrainBatch)
				if len(batch) == 0 {
					select {
					case <-ring.notify:
						continue
					case <-f.stopped:
						return
					}
				}
				if br != nil {
					br.receiveBatch(f, batch)
				} else {
					for i := range batch {
						node.Receive(f, batch[i].pkt, batch[i].from)
					}
				}
				select {
				case <-f.stopped:
					return
				default:
				}
			}
		}()
	}
	return nil
}

// Stop terminates the fabric; in-flight packets are dropped. Sends after
// (or racing with) Stop fail cleanly — inbox channels are never closed,
// the stop signal alone ends the workers, so concurrent data-plane sends
// cannot panic. Reorder hold-back packets still parked at shutdown are
// stranded: they count against their link's Dropped (and
// fabric.reorder_stranded) instead of silently vanishing.
func (f *Fabric) Stop() {
	f.stopOnce.Do(func() {
		for _, hp := range f.takePending() {
			hp.st.Dropped.Add(1)
			f.reorderStranded.Inc()
		}
		close(f.stopped)
		f.wg.Wait()
	})
}

// takePending removes and returns every reorder hold-back packet,
// disarming their deliver-on-timeout timers. A timer that already fired
// and is waiting on the lock finds its slot empty and does nothing.
func (f *Fabric) takePending() []*heldPkt {
	f.rngMu.Lock()
	defer f.rngMu.Unlock()
	out := make([]*heldPkt, 0, len(f.pending))
	for key, hp := range f.pending {
		hp.timer.Stop()
		delete(f.pending, key)
		out = append(out, hp)
	}
	return out
}

// deliverHeld completes a hold-back packet's delivery (counters were not
// yet applied while it was parked). Packets/Bytes are credited only when
// the packet actually reaches the inbox: a stopped fabric discards the
// packet and counts it Dropped — the earlier code counted it delivered
// first and then threw it away, so a Stop racing a hold-back flush
// inflated the link's delivered counters.
func (f *Fabric) deliverHeld(hp *heldPkt) {
	select {
	case <-f.stopped:
		hp.st.Dropped.Add(1)
		return
	default:
	}
	n := uint64(len(hp.d.pkt.Data)) // once pushed, the receiver owns the packet
	if hp.inbox.pushPkts([]*Packet{hp.d.pkt}, hp.d.from) == 1 {
		hp.st.Packets.Add(1)
		hp.st.Bytes.Add(n)
		return
	}
	hp.st.Dropped.Add(1)
	if hp.drops != nil {
		hp.drops.Inc()
	}
}

// flushHeld delivers a hold-back packet whose ReorderHold expired before
// any later send on its link flushed it.
func (f *Fabric) flushHeld(key linkKey, hp *heldPkt) {
	f.rngMu.Lock()
	if f.pending[key] != hp {
		f.rngMu.Unlock()
		return // already flushed by a later send, ResetStats, or Stop
	}
	delete(f.pending, key)
	f.rngMu.Unlock()
	f.reorderFlushed.Inc()
	f.deliverHeld(hp)
}

// Send transmits one packet from `from` to the direct neighbor `to`: a
// batch of one.
func (f *Fabric) Send(from, to string, pkt *Packet) error {
	return f.SendBatch(from, []string{to}, []*Packet{pkt})
}

// SendBatch implements Sender — the fabric's one send loop. The stopped
// check and the virtual-time lock are paid once per batch; everything
// else once per run of consecutive packets to the same destination: the
// neighbor check, the failed-node/failed-link blackhole, the sink, the
// virtual-time stamp, and one inbox lock and receiver wakeup. Only a
// fabric with fault injection on looks at the packets of a run one by one
// (faultRun).
func (f *Fabric) SendBatch(from string, tos []string, pkts []*Packet) error {
	if len(tos) != len(pkts) {
		return fmt.Errorf("netsim: SendBatch got %d destinations for %d packets", len(tos), len(pkts))
	}
	if len(pkts) == 0 {
		return nil
	}
	select {
	case <-f.stopped:
		return fmt.Errorf("netsim: fabric stopped")
	default:
	}
	// One view of the failures for the whole batch. A failed node neither
	// sends nor receives and a failed link carries nothing in either
	// direction: what is sent there blackholes like loss, and the reliable
	// layer, ECMP repair (LinkFailed) or re-placement recovers.
	failed, failedLinks := f.failed.Load(), f.failedLinks.Load()
	blackholed := func(key linkKey) bool {
		return failed != nil && ((*failed)[key.from] || (*failed)[key.to]) || failedLinks != nil && (*failedLinks)[key]
	}

	// Virtual time first, for the whole batch under one lock acquisition
	// that is released before any inbox is touched. Only packets that will
	// occupy a link are stamped: a sink's or a blackholed run's carry no
	// test-visible traffic and must not move the makespan.
	f.vt.mu.Lock()
	for i, j := 0, 0; i < len(pkts); i = j {
		j = runEnd(tos, i)
		if key := (linkKey{from, tos[i]}); f.inboxes[key.to] != nil && !blackholed(key) {
			f.stampRun(key, pkts[i:j])
		}
	}
	f.vt.mu.Unlock()

	var errs []error
	for i, j := 0, 0; i < len(pkts); i = j {
		j = runEnd(tos, i)
		run, key := pkts[i:j], linkKey{from, tos[i]}
		st, ok := f.stats[key]
		if !ok {
			// A wiring bug, not a loss: reported, and the runs behind it
			// still go out.
			errs = append(errs, fmt.Errorf("netsim: %s and %s are not overlay neighbors", from, key.to))
			continue
		}
		if blackholed(key) {
			st.Dropped.Add(uint64(len(run)))
			continue
		}
		inbox, ok := f.inboxes[key.to]
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("netsim: no node %q", key.to))
		case inbox == nil:
			// Inert sink: the run crossed the link (count it) and vanishes,
			// without a roll of the fault dice — it must not perturb the
			// seeded rng sequence.
			st.Packets.Add(uint64(len(run)))
			st.Bytes.Add(dataBytes(run))
			f.sinkPkts.Add(uint64(len(run)))
		case f.faults.onlySeed():
			f.deliver(key, st, inbox, run)
		default:
			f.faultRun(key, st, inbox, run)
		}
	}
	return errors.Join(errs...)
}

// runEnd returns the end of the run of equal destinations starting at i.
func runEnd(tos []string, i int) int {
	j := i + 1
	for j < len(tos) && tos[j] == tos[i] {
		j++
	}
	return j
}

// faultRun is fault injection: the one place the seeded dice are rolled —
// three draws per packet, in send order, whatever batches the packets
// arrived in. A dropped packet counts Dropped; a reordered one parks in
// its link's hold-back slot until the link's next packet (or ReorderHold)
// releases it; a duplicated one is followed by a copy.
func (f *Fabric) faultRun(key linkKey, st *LinkStats, inbox *ringInbox, run []*Packet) {
	f.rngMu.Lock()
	defer f.rngMu.Unlock()
	for i, pkt := range run {
		drop := f.rng.Float64() < f.faults.DropProb
		dup := f.rng.Float64() < f.faults.DupProb
		reorder := f.rng.Float64() < f.faults.ReorderProb
		var dupPkt *Packet
		if dup && !drop {
			// The same bits arriving again, virtual timestamp included (a dup
			// born at t=0 poisoned INT latency stamps), copied before the
			// original is delivered: its receiver may rewrite it.
			dupPkt = &Packet{Src: pkt.Src, Dst: pkt.Dst, Data: append([]byte(nil), pkt.Data...), VTimeUs: pkt.VTimeUs, Via: pkt.Via}
		}
		held := f.pending[key]
		if held != nil {
			held.timer.Stop()
			delete(f.pending, key)
		}
		switch {
		case drop:
			st.Dropped.Add(1)
		case reorder:
			// Park this packet until the link's next send — or until
			// ReorderHold expires, whichever comes first, so it cannot be
			// stranded when no later send arrives.
			hp := &heldPkt{d: delivery{pkt: pkt, from: key.from}, st: st, inbox: inbox, drops: f.inboxDrops[key.to]}
			f.pending[key] = hp
			hold := f.faults.ReorderHold
			if hold <= 0 {
				hold = 10 * time.Millisecond
			}
			hp.timer = time.AfterFunc(hold, func() { f.flushHeld(key, hp) })
		default:
			f.deliver(key, st, inbox, run[i:i+1])
		}
		if held != nil {
			f.deliver(key, st, inbox, []*Packet{held.d.pkt})
		}
		if dupPkt != nil {
			f.deliver(key, st, inbox, []*Packet{dupPkt})
		}
	}
}

func (fl Faults) onlySeed() bool {
	return fl.DropProb == 0 && fl.DupProb == 0 && fl.ReorderProb == 0
}

// deliver credits pkts to the link and queues them at the receiver under
// one inbox lock and one wakeup. What a full inbox refuses is dropped and
// counted rather than blocking the sender goroutine (recovery is the
// transport's job — the reliable layer retransmits).
func (f *Fabric) deliver(key linkKey, st *LinkStats, inbox *ringInbox, pkts []*Packet) {
	st.Packets.Add(uint64(len(pkts)))
	st.Bytes.Add(dataBytes(pkts))
	if accepted := inbox.pushPkts(pkts, key.from); accepted < len(pkts) {
		over := uint64(len(pkts) - accepted)
		st.Dropped.Add(over)
		if drops := f.inboxDrops[key.to]; drops != nil {
			drops.Add(over)
		}
	}
}

func dataBytes(pkts []*Packet) (n uint64) {
	for _, p := range pkts {
		n += uint64(len(p.Data))
	}
	return n
}

// Stats returns the counters for the directed link from→to (nil if the
// link does not exist).
func (f *Fabric) Stats(from, to string) *LinkStats {
	return f.stats[linkKey{from, to}]
}

// TotalBytes sums bytes over all directed links.
func (f *Fabric) TotalBytes() uint64 {
	var sum uint64
	for _, st := range f.stats {
		sum += st.Bytes.Load()
	}
	return sum
}

// TotalPackets sums packets over all directed links.
func (f *Fabric) TotalPackets() uint64 {
	var sum uint64
	for _, st := range f.stats {
		sum += st.Packets.Load()
	}
	return sum
}

// HostBytes sums bytes on links whose receiving end is a host — the
// "bytes hosts must process", which in-network aggregation reduces.
func (f *Fabric) HostBytes() uint64 {
	var sum uint64
	for key, st := range f.stats {
		if n := f.net.NodeByLabel(key.to); n != nil && n.Kind == and.HostNode {
			sum += st.Bytes.Load()
		}
	}
	return sum
}

// ResetStats zeroes all counters and the virtual clock (between
// benchmark phases). Reorder hold-back packets from the previous phase
// are flushed to their receivers first so no packet leaks across the
// phase boundary.
func (f *Fabric) ResetStats() {
	for _, hp := range f.takePending() {
		f.reorderFlushed.Inc()
		f.deliverHeld(hp)
	}
	for _, st := range f.stats {
		st.Packets.Store(0)
		st.Bytes.Store(0)
		st.Dropped.Store(0)
	}
	f.resetVTime()
}
