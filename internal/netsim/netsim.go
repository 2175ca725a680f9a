// Package netsim provides the simulated network fabric the NCL system
// runs on: nodes (hosts and switches) connected by the links of an AND
// overlay, message passing with per-link accounting, and fault injection
// (loss, duplication, reordering) for robustness tests.
//
// The fabric is intentionally simple: a lone packet to an idle
// BurstReceiver runs it on the sender's goroutine, all else queues in an
// inbox a goroutine per node drains, and links keep atomic counters. Each
// node reaches its neighbors through dense ports built once with the
// fabric, so a send looks no link up by label. Nodes
// send through one seam, Sender.SendBatch, and the fabric has one send loop
// behind it (a packet is a batch of one): it groups a call's packets by
// destination, and it is the only place virtual time is stamped, failed
// links blackhole and the fault dice are rolled. Performance *shapes* for
// the evaluation come from the counters plus the analytic model in
// internal/model — not from wall-clock sleeps.
package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ncl/internal/and"
	"ncl/internal/obs"
)

// Packet is one unit on the wire. Ownership: a sender gives up the struct
// and Data when it sends; the receiver owns a delivered *Packet and its Data
// for good, on every transport. It may rewrite Data and forward the struct
// (a switch's executed windows), keep reading Data (a host's queued windows)
// or reuse a packet it consumed for one it sends (a switch's drops). The
// Data of a packet marked Shared is read-only, and copied before any write.
// Retention: a held packet from a PacketGroup (a host's sends) keeps its
// group alive (at most 32 × 208 B), and a window a host received keeps its
// slab alive (64 × 120 B shared with later bursts, more for a larger one).
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
	// On an identity deployment (the overlay is the physical network) a
	// host stamps its first-hop switch. Every transport carries it.
	Via string

	// VTimeUs is the packet's virtual timestamp in microseconds: set by
	// the fabric to the modeled arrival time on each hop (see vtime.go).
	// Nodes deriving new packets from a received one should copy it (the
	// SwitchNode adds its pipeline delay).
	VTimeUs float64
}

// inlineData is how many bytes of Data NewPacket allocates in the Packet's
// own object: every window and ack the benchmark's workloads send (68-byte
// allreduce windows, 61-byte KVS requests, 36–44-byte acks) fits, and the
// Packet with its bytes fills one 208-byte size class.
const inlineData = 120

// inlinePacket is a Packet with inlineData bytes of its own.
type inlinePacket struct {
	Packet
	buf [inlineData]byte
}

// NewPacket returns a Packet with empty Data of capacity n: one allocation
// holding the struct and the bytes when n fits inlineData, two beyond.
func NewPacket(n int) *Packet {
	if n > inlineData {
		return &Packet{Data: make([]byte, 0, n)}
	}
	p := new(inlinePacket)
	p.Data = p.buf[:0:n]
	return &p.Packet
}

// PacketGroup hands out inline-size packets 32 to an allocation, one host
// send batch (see Packet for what that retains). The zero value is ready;
// it is not safe for concurrent use.
type PacketGroup struct{ free []inlinePacket }

// Packet is NewPacket(n) from the group.
func (g *PacketGroup) Packet(n int) *Packet {
	if n > inlineData {
		return NewPacket(n)
	}
	if len(g.free) == 0 {
		g.free = make([]inlinePacket, 32)
	}
	p := &g.free[0]
	g.free = g.free[1:]
	p.Data = p.buf[:0:n]
	return &p.Packet
}

// Sender is the transport a node sends through: the in-memory fabric
// here, or the UDP harness in internal/runtime. This is the backend seam
// of Fig. 3a (POSIX/UDP vs DPDK-like in-memory), and SendBatch is its only
// send: a node hands over whatever it has ready — one packet is a batch of
// one — and the transport amortizes its costs over it: here the stopped
// check per call, the virtual-time lock per call of up to 128 packets and
// one inbox lock and wakeup per destination of such a call; syscalls in
// the UDP backend.
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

// Node is anything attachable to the fabric. Both transports run a node
// on one goroutine at a time: the fabric's holder of its running claim,
// UDP's one reader of its socket.
type Node interface {
	// Label returns the node's AND label.
	Label() string
	// Receive handles a packet delivered from direct neighbor `from`.
	Receive(f Sender, pkt *Packet, from string)
}

// Delivery is one packet of a drained burst and the neighbor that sent it.
type Delivery struct {
	Pkt  *Packet
	From string
}

// BurstReceiver is a Node that takes a drained burst — of any length, one
// included — in one call instead of one Receive per packet; its Receive is
// a burst of one. The deliveries are in arrival order, and the slice is
// valid only during the call (the caller reuses its backing array).
// ReceiveBurst must not block: it may run nested on its sender's goroutine
// (never on two at once).
type BurstReceiver interface {
	Node
	ReceiveBurst(f Sender, burst []Delivery)
}

// DeliverBurst hands a queued burst to n, on both transports: in one
// ReceiveBurst call when n is a BurstReceiver, else one Receive per packet
// in arrival order.
func DeliverBurst(n Node, f Sender, burst []Delivery) {
	if br, ok := n.(BurstReceiver); ok {
		br.ReceiveBurst(f, burst)
		return
	}
	for _, d := range burst {
		n.Receive(f, d.Pkt, d.From)
	}
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

// Fabric connects nodes according to an AND network.
type Fabric struct {
	net *and.Network

	// eps holds one endpoint per AND node, by label (New builds them, Attach
	// fills them in): a send's one label lookup resolves its sender.
	eps      map[string]*endpoint
	wg       sync.WaitGroup // drain goroutines and inline runs, for Stop
	stopped  chan struct{}
	stopOnce sync.Once

	inboxCap int // per-node inbox capacity (SetInboxCap before Attach)

	faults Faults
	rngMu  sync.Mutex // guards rng and every port's hold-back slot
	rng    *rand.Rand

	// linksDown counts failed directed links (failure.go): while it is
	// zero, LinkFailed reads nothing else.
	linksDown atomic.Int32

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
	// obsReg is the registry the endpoints' inbox_drops counters live in.
	obsReg *obs.Registry

	// sinkPkts counts deliveries to NullNodes: inert packet sinks with no
	// inbox, no ring buffer, and no drain goroutine (a nil inbox). A k=32
	// fat-tree has 8192 hosts of which a deployment typically uses a
	// handful; the rest must not cost a goroutine each. Deliveries to a
	// sink count on the link stats and fabric.sink_packets, then vanish.
	sinkPkts *obs.Counter
}

// endpoint is one AND node as the fabric sees it.
type endpoint struct {
	label string
	node  Node          // nil until Attach
	burst BurstReceiver // node, when it may run inline on a sender's goroutine
	inbox *ringInbox    // nil for a NullNode, an inert sink, and until Attach
	drops *obs.Counter  // fabric.<label>.inbox_drops: packets a full inbox refused
	ports []port        // one per overlay neighbor, sorted by label
	down  atomic.Bool   // FailNode: packets to or from it blackhole
}

// port is one directed link as its sender sees it: everything a send over
// it touches, resolved once by New. Its fields are immutable but for the
// counters, the cursor, the hold-back slot and the failure bit.
type port struct {
	from, to string
	dst      *endpoint
	link     *and.Link
	toHost   bool
	st       LinkStats
	free     float64     // virtual time the link finishes serializing; guarded by vt.mu
	held     *heldPkt    // reorder hold-back slot; guarded by rngMu
	down     atomic.Bool // FailLink: packets crossing it blackhole
}

// port returns ep's port to the neighbor labeled to, or nil.
func (ep *endpoint) port(to string) *port {
	for i := range ep.ports {
		if ep.ports[i].to == to {
			return &ep.ports[i]
		}
	}
	return nil
}

// heldPkt is one reorder hold-back packet, parked on its port with the
// deliver-on-timeout timer.
type heldPkt struct {
	pkt   *Packet
	p     *port
	timer *time.Timer
}

// New creates a fabric over the AND network. Attach nodes for every label
// before Start.
func New(network *and.Network, faults Faults) *Fabric {
	f := &Fabric{
		net:      network,
		eps:      make(map[string]*endpoint, len(network.Nodes)),
		stopped:  make(chan struct{}),
		inboxCap: DefaultInboxCap,
		faults:   faults,
		rng:      rand.New(rand.NewSource(faults.Seed)),
	}
	f.SetObs(obs.NewRegistry()) // private until a deployment re-homes it
	for _, n := range network.Nodes {
		f.eps[n.Label] = &endpoint{label: n.Label}
	}
	// The port builder: one port per overlay neighbor (parallel links share
	// one), the only place the fabric looks a link or a node up by label.
	for _, ep := range f.eps {
		nbs := slices.Compact(network.Neighbors(ep.label))
		ep.ports = make([]port, len(nbs))
		for i, nb := range nbs {
			p := &ep.ports[i]
			p.from, p.to, p.dst = ep.label, nb, f.eps[nb]
			p.link = network.LinkBetween(ep.label, nb)
			p.toHost = network.NodeByLabel(nb).Kind == and.HostNode
		}
	}
	return f
}

// eachPort calls fn on every port of every node.
func (f *Fabric) eachPort(fn func(*port)) {
	for _, ep := range f.eps {
		for i := range ep.ports {
			fn(&ep.ports[i])
		}
	}
}

// port returns the port of the directed link from→to, or nil.
func (f *Fabric) port(from, to string) *port {
	if ep := f.eps[from]; ep != nil {
		return ep.port(to)
	}
	return nil
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
	for _, ep := range f.eps {
		if ep.inbox != nil {
			ep.drops = r.Counter("fabric." + ep.label + ".inbox_drops")
		}
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
	ep := f.eps[label]
	if ep == nil {
		return fmt.Errorf("netsim: no AND node labeled %q", label)
	}
	if ep.node != nil {
		return fmt.Errorf("netsim: node %q already attached", label)
	}
	ep.node = n
	if _, isSink := n.(*NullNode); isSink {
		return nil
	}
	ep.burst, _ = n.(BurstReceiver)
	ep.inbox = newRingInbox(f.inboxCap)
	f.rngMu.Lock()
	ep.drops = f.obsReg.Counter("fabric." + label + ".inbox_drops")
	f.rngMu.Unlock()
	return nil
}

// InboxDepth reports the number of packets queued at a node's inbox
// (0 for unknown labels). Inboxes are created only before Start, so the
// lookup is safe concurrent with traffic; the depth itself is a
// point-in-time sample. INT stamping uses this as the switch's
// queue-depth source.
func (f *Fabric) InboxDepth(label string) int {
	if ep := f.eps[label]; ep != nil && ep.inbox != nil {
		return ep.inbox.depth()
	}
	return 0
}

// Start launches the inbox goroutines. Every AND node must be attached.
// Each goroutine drains up to DefaultDrainBatch packets per wakeup and hands
// them to the node through DeliverBurst under the claim deliver also takes.
func (f *Fabric) Start() error {
	for _, n := range f.net.Nodes {
		if f.eps[n.Label].node == nil {
			return fmt.Errorf("netsim: AND node %q has no attached implementation", n.Label)
		}
	}
	for _, ep := range f.eps {
		node, ring := ep.node, ep.inbox
		if ring == nil {
			continue // a sink drains nothing
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			batch := make([]Delivery, 0, DefaultDrainBatch)
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
				DeliverBurst(node, f, batch)
				ring.release()
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
// cannot panic; when Stop returns no node is running. Reorder hold-back
// packets still parked at shutdown are stranded: they count against their
// link's Dropped (and fabric.reorder_stranded) instead of silently vanishing.
func (f *Fabric) Stop() {
	f.stopOnce.Do(func() {
		for _, hp := range f.takePending() {
			hp.p.st.Dropped.Add(1)
			f.reorderStranded.Inc()
		}
		close(f.stopped)
		for _, ep := range f.eps {
			if ep.inbox != nil {
				ep.inbox.stop()
			}
		}
		f.wg.Wait()
	})
}

// takePending removes and returns every reorder hold-back packet,
// disarming their deliver-on-timeout timers. A timer that already fired
// and is waiting on the lock finds its slot empty and does nothing.
func (f *Fabric) takePending() []*heldPkt {
	f.rngMu.Lock()
	defer f.rngMu.Unlock()
	var out []*heldPkt
	f.eachPort(func(p *port) {
		if hp := p.held; hp != nil {
			hp.timer.Stop()
			p.held = nil
			out = append(out, hp)
		}
	})
	return out
}

// deliverHeld completes a hold-back packet's delivery (counters were not
// yet applied while it was parked). Packets/Bytes are credited only when
// the packet actually reaches the inbox: a stopped fabric discards the
// packet and counts it Dropped — the earlier code counted it delivered
// first and then threw it away, so a Stop racing a hold-back flush
// inflated the link's delivered counters.
func (f *Fabric) deliverHeld(hp *heldPkt) {
	st := &hp.p.st
	select {
	case <-f.stopped:
		st.Dropped.Add(1)
		return
	default:
	}
	n := uint64(len(hp.pkt.Data)) // once pushed, the receiver owns the packet
	if hp.p.dst.inbox.pushPkts([]*Packet{hp.pkt}, hp.p.from) == 1 {
		st.Packets.Add(1)
		st.Bytes.Add(n)
		return
	}
	st.Dropped.Add(1)
	if drops := hp.p.dst.drops; drops != nil {
		drops.Inc()
	}
}

// flushHeld delivers a hold-back packet whose ReorderHold expired before
// any later send on its link flushed it.
func (f *Fabric) flushHeld(hp *heldPkt) {
	f.rngMu.Lock()
	if hp.p.held != hp {
		f.rngMu.Unlock()
		return // already flushed by a later send, ResetStats, or Stop
	}
	hp.p.held = nil
	f.rngMu.Unlock()
	f.reorderFlushed.Inc()
	f.deliverHeld(hp)
}

// Send transmits one packet from `from` to the direct neighbor `to`: a
// batch of one.
func (f *Fabric) Send(from, to string, pkt *Packet) error {
	return f.SendBatch(from, []string{to}, []*Packet{pkt})
}

// sendChunk bounds how many packets SendBatch groups at once, on the
// sender's stack: a switch's broadcast flush (a 64-packet drain to each of
// two neighbors) in one chunk, group indices in a byte.
const sendChunk = 128

const noPort = sendChunk // a packet whose destination is not an overlay neighbor

// portGroups is one chunk of a SendBatch call grouped by destination port.
// It lives on the sending goroutine's stack, never on the node: several
// goroutines may send as one label at once (SendWorkers).
type portGroups struct {
	n     int
	ports [sendChunk + 1]*port // group g's port; nil once settled without a delivery, and at noPort
	of    [sendChunk]uint8     // the group of the chunk's packet i, or noPort
	pkts  [sendChunk]*Packet   // grouped, send order kept within a group
	at    [sendChunk + 2]uint8 // group g is pkts[at[g]:at[g+1]]
}

// SendBatch implements Sender — the fabric's one send loop. The stopped
// check and the sender's lookup are paid once per call and the
// virtual-time lock once per chunk; each destination of a chunk costs one
// blackhole check and one inbox lock and receiver wakeup, however its
// packets interleave with the others'. Only a fabric with fault injection
// on looks at the packets one by one (faultChunk).
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
	src := f.eps[from]
	if src == nil {
		return fmt.Errorf("netsim: no AND node %q", from)
	}
	var c portGroups
	var errs []error
	for len(pkts) > 0 {
		n := min(len(pkts), sendChunk)
		errs = f.sendChunk(src, &c, tos[:n], pkts[:n], errs)
		tos, pkts = tos[n:], pkts[n:]
	}
	return errors.Join(errs...)
}

func (f *Fabric) sendChunk(src *endpoint, c *portGroups, tos []string, pkts []*Packet, errs []error) []error {
	// Resolve each destination: the previous packet's group, else a scan of
	// the chunk's groups, else a new group on the sender's port to it.
	c.n, c.at[0], c.at[1] = 0, 0, 0
	g := 0
	for i, to := range tos {
		if g == c.n || c.ports[g].to != to {
			for g = 0; g < c.n && c.ports[g].to != to; g++ {
			}
			if g == c.n {
				if c.ports[g] = src.port(to); c.ports[g] == nil {
					// A wiring bug, not a loss: reported, and the packets behind it
					// still go out.
					errs = append(errs, fmt.Errorf("netsim: %s and %s are not overlay neighbors", src.label, to))
					c.of[i] = noPort
					continue
				}
				c.at[g+2] = 0
				c.n++
			}
		}
		c.of[i] = uint8(g)
		c.at[g+2]++
	}
	// A stable counting sort lays the groups out back to back: at[g+1] runs
	// from group g's start to its end.
	for g := 0; g < c.n; g++ {
		c.at[g+2] += c.at[g+1]
	}
	for i, pkt := range pkts {
		if g := c.of[i]; g != noPort {
			c.pkts[c.at[g+1]] = pkt
			c.at[g+1]++
		}
	}

	// Virtual time for every live group under one lock acquisition, released
	// before any inbox is touched. What is sent to or from a failed node, or
	// over a failed link, blackholes like loss (the reliable layer, ECMP
	// repair or re-placement recovers). A group that occupies no receiver —
	// blackholed, or bound for a sink or an unattached node — is settled
	// here, never stamped nor rolled for: it must move neither the makespan
	// nor the seeded rng sequence.
	f.vt.mu.Lock()
	for g := 0; g < c.n; g++ {
		p, grp := c.ports[g], c.pkts[c.at[g]:c.at[g+1]]
		switch {
		case src.down.Load() || p.dst.down.Load() || p.down.Load():
			p.st.Dropped.Add(uint64(len(grp)))
		case p.dst.node == nil:
			errs = append(errs, fmt.Errorf("netsim: no node %q", p.to))
		case p.dst.inbox == nil:
			// Inert sink: the packets crossed the link (count them) and vanish.
			p.st.Packets.Add(uint64(len(grp)))
			p.st.Bytes.Add(dataBytes(grp))
			f.sinkPkts.Add(uint64(len(grp)))
		default:
			f.stamp(p, grp)
			continue
		}
		c.ports[g] = nil
	}
	f.vt.mu.Unlock()

	if !f.faults.onlySeed() {
		f.faultChunk(c, pkts)
		return errs
	}
	for g := 0; g < c.n; g++ {
		if p := c.ports[g]; p != nil {
			f.deliver(p, c.pkts[c.at[g]:c.at[g+1]])
		}
	}
	return errs
}

// faultChunk is fault injection: the one place the seeded dice are rolled —
// three draws per live packet, in send order, whatever batches the packets
// arrived in. A dropped packet counts Dropped; a reordered one parks in
// its port's hold-back slot until the port's next packet (or ReorderHold)
// releases it; a duplicated one is followed by a copy.
func (f *Fabric) faultChunk(c *portGroups, pkts []*Packet) {
	f.rngMu.Lock()
	defer f.rngMu.Unlock()
	for i, pkt := range pkts {
		p := c.ports[c.of[i]]
		if p == nil {
			continue
		}
		drop := f.rng.Float64() < f.faults.DropProb
		dup := f.rng.Float64() < f.faults.DupProb
		reorder := f.rng.Float64() < f.faults.ReorderProb
		var dupPkt *Packet
		if dup && !drop {
			// The same bits arriving again, virtual timestamp included (a dup
			// born at t=0 poisoned INT latency stamps), copied before the
			// original is delivered: its receiver may rewrite it.
			dupPkt = NewPacket(len(pkt.Data))
			dupPkt.Src, dupPkt.Dst, dupPkt.Via, dupPkt.VTimeUs = pkt.Src, pkt.Dst, pkt.Via, pkt.VTimeUs
			dupPkt.Data = append(dupPkt.Data, pkt.Data...)
		}
		held := p.held
		if held != nil {
			held.timer.Stop()
			p.held = nil
		}
		switch {
		case drop:
			p.st.Dropped.Add(1)
		case reorder:
			// Park this packet until the link's next send — or until
			// ReorderHold expires, whichever comes first, so it cannot be
			// stranded when no later send arrives.
			hp := &heldPkt{pkt: pkt, p: p}
			p.held = hp
			hold := f.faults.ReorderHold
			if hold <= 0 {
				hold = 10 * time.Millisecond
			}
			hp.timer = time.AfterFunc(hold, func() { f.flushHeld(hp) })
		default:
			f.deliver(p, pkts[i:i+1])
		}
		if held != nil {
			f.deliver(p, []*Packet{held.pkt})
		}
		if dupPkt != nil {
			f.deliver(p, []*Packet{dupPkt})
		}
	}
}

func (fl Faults) onlySeed() bool {
	return fl.DropProb == 0 && fl.DupProb == 0 && fl.ReorderProb == 0
}

// deliver credits pkts to the port's link and runs a lone packet's idle
// BurstReceiver on this goroutine if faults are off (faultChunk holds rngMu),
// else queues them under one inbox lock and one wakeup. A full inbox drops
// and counts rather than blocking the sender (the reliable layer retransmits).
func (f *Fabric) deliver(p *port, pkts []*Packet) {
	p.st.Packets.Add(uint64(len(pkts)))
	p.st.Bytes.Add(dataBytes(pkts))
	if len(pkts) == 1 && p.dst.burst != nil && f.faults.onlySeed() {
		if one := p.dst.inbox.claimOne(pkts[0], p.from, &f.wg); one != nil {
			p.dst.burst.ReceiveBurst(f, one)
			p.dst.inbox.release()
			f.wg.Done()
			return
		}
	}
	if accepted := p.dst.inbox.pushPkts(pkts, p.from); accepted < len(pkts) {
		over := uint64(len(pkts) - accepted)
		p.st.Dropped.Add(over)
		if drops := p.dst.drops; drops != nil {
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
	if p := f.port(from, to); p != nil {
		return &p.st
	}
	return nil
}

// TotalBytes sums bytes over all directed links.
func (f *Fabric) TotalBytes() (sum uint64) {
	f.eachPort(func(p *port) { sum += p.st.Bytes.Load() })
	return sum
}

// TotalPackets sums packets over all directed links.
func (f *Fabric) TotalPackets() (sum uint64) {
	f.eachPort(func(p *port) { sum += p.st.Packets.Load() })
	return sum
}

// HostBytes sums bytes on links whose receiving end is a host — the
// "bytes hosts must process", which in-network aggregation reduces.
func (f *Fabric) HostBytes() (sum uint64) {
	f.eachPort(func(p *port) {
		if p.toHost {
			sum += p.st.Bytes.Load()
		}
	})
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
	f.eachPort(func(p *port) {
		p.st.Packets.Store(0)
		p.st.Bytes.Store(0)
		p.st.Dropped.Store(0)
	})
	f.resetVTime()
}
