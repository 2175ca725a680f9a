package runtime

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"ncl/internal/and"
	"ncl/internal/netsim"
	"ncl/internal/obs"
)

// UDPNet is the Sockets/UDP backend of the paper's early-prototype scope
// (§6): every AND node binds a real UDP socket on the loopback interface
// and neighbor sends become datagrams. Switch and host node logic is
// identical to the in-memory fabric — only the transport differs, which
// is the backend-agnosticism NCP promises (§3.2).
//
// Datagram framing: [1B fromLen][from][1B srcLen][src][1B dstLen][dst]
// [1B viaLen][via][payload] — the previous hop, then everything of a
// netsim.Packet a node acts on except the virtual clock (Src is what ECMP
// hashes a flow on, so it must survive a hop like it does on the fabric);
// the overlay neighbor relationship is validated on send, like the fabric.
//
// The conn/addr tables are immutable once the sockets are bound, so the
// send hot path reads them through an atomically-published snapshot
// (udpView) instead of taking a mutex per packet; Stop publishes a
// closed view before closing the sockets. SendBatch — the only send; one
// packet is a batch of one — queues a burst of frames and hands them to
// the kernel in one sendmmsg on Linux (one syscall for the whole batch),
// falling back to a WriteToUDP loop elsewhere.
type UDPNet struct {
	network *and.Network

	// view is the read-only send-path snapshot (conns, addrs, closed).
	view atomic.Pointer[udpView]

	mu    sync.Mutex
	nodes map[string]netsim.Node
	wg    sync.WaitGroup

	// frameErrs counts datagrams a reader could not parse
	// (udp.frame_errors), sendErrs packets that never reached the kernel:
	// unframeable, unaddressable or refused (udp.send_errors). SetObs
	// re-homes both.
	frameErrs, sendErrs *obs.Counter
}

// udpView is the immutable state a send needs per packet. A fresh view is
// published at bind time and again (closed=true) at Stop; readers never
// see a partially-updated table.
type udpView struct {
	conns  map[string]*net.UDPConn
	addrs  map[string]*net.UDPAddr
	closed bool
}

// NewUDPNet binds one loopback socket per AND node.
func NewUDPNet(network *and.Network) (*UDPNet, error) {
	u := &UDPNet{
		network: network,
		nodes:   map[string]netsim.Node{},
	}
	v := &udpView{
		conns: map[string]*net.UDPConn{},
		addrs: map[string]*net.UDPAddr{},
	}
	u.view.Store(v)
	u.SetObs(obs.NewRegistry()) // private until a deployment re-homes it
	for _, n := range network.Nodes {
		conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 0})
		if err != nil {
			u.Stop()
			return nil, fmt.Errorf("runtime: binding %s: %w", n.Label, err)
		}
		// Batched sends burst harder than the old one-datagram-per-syscall
		// sender; size the socket buffers so a burst doesn't overrun the
		// receiver before its reader drains (best-effort: the kernel clamps
		// to its rmem/wmem limits).
		conn.SetReadBuffer(4 << 20)
		conn.SetWriteBuffer(4 << 20)
		v.conns[n.Label] = conn
		v.addrs[n.Label] = conn.LocalAddr().(*net.UDPAddr)
	}
	return u, nil
}

// SetObs re-homes the transport's loss counters into the given registry
// (call before Start).
func (u *UDPNet) SetObs(r *obs.Registry) {
	u.frameErrs = r.Counter("udp.frame_errors")
	u.sendErrs = r.Counter("udp.send_errors")
}

// Network implements netsim.Sender.
func (u *UDPNet) Network() *and.Network { return u.network }

// Attach registers the node implementation for its label.
func (u *UDPNet) Attach(n netsim.Node) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	if _, ok := u.view.Load().conns[n.Label()]; !ok {
		return fmt.Errorf("runtime: no socket for %q", n.Label())
	}
	if _, dup := u.nodes[n.Label()]; dup {
		return fmt.Errorf("runtime: node %q already attached", n.Label())
	}
	u.nodes[n.Label()] = n
	return nil
}

// Start launches a reader goroutine per socket. A reader reads into the
// one buffer it holds and hands the node a packet copied out of it
// (decodeFrame), which the node owns for good, as it owns one the fabric
// delivers (netsim.Packet): a host queues windows that alias it.
func (u *UDPNet) Start() error {
	u.mu.Lock()
	defer u.mu.Unlock()
	v := u.view.Load()
	for _, n := range u.network.Nodes {
		node, ok := u.nodes[n.Label]
		if !ok {
			return fmt.Errorf("runtime: AND node %q has no attached implementation", n.Label)
		}
		conn := v.conns[n.Label]
		u.wg.Add(1)
		go func(node netsim.Node, conn *net.UDPConn) {
			defer u.wg.Done()
			buf := make([]byte, 65536)
			for {
				n, _, err := conn.ReadFromUDP(buf)
				if err != nil {
					return // socket closed
				}
				from, pkt, err := decodeFrame(buf[:n])
				if err != nil {
					u.frameErrs.Inc()
					continue
				}
				node.Receive(u, pkt, from)
			}
		}(node, conn)
	}
	return nil
}

// sendView resolves the hot-path state for one send, lock-free.
func (u *UDPNet) sendView(from, to string) (*net.UDPConn, *net.UDPAddr, error) {
	if u.network.LinkBetween(from, to) == nil {
		return nil, nil, fmt.Errorf("runtime: %s and %s are not overlay neighbors", from, to)
	}
	v := u.view.Load()
	conn := v.conns[from]
	addr := v.addrs[to]
	if v.closed || conn == nil || addr == nil {
		return nil, nil, fmt.Errorf("runtime: UDP transport closed or unknown node")
	}
	return conn, addr, nil
}

// Send transmits one packet: a batch of one.
func (u *UDPNet) Send(from, to string, pkt *netsim.Packet) error {
	return u.SendBatch(from, []string{to}, []*netsim.Packet{pkt})
}

// batchScratch is the reusable frame queue of one SendBatch call.
type batchScratch struct {
	bufps  []*[]byte
	frames [][]byte
	addrs  []*net.UDPAddr
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

func (b *batchScratch) release() {
	for i, bufp := range b.bufps {
		framePool.Put(bufp)
		b.bufps[i] = nil
		b.frames[i] = nil
		b.addrs[i] = nil
	}
	b.bufps = b.bufps[:0]
	b.frames = b.frames[:0]
	b.addrs = b.addrs[:0]
	batchPool.Put(b)
}

// SendBatch implements netsim.Sender over UDP: all frames are encoded into
// pooled buffers first (the kernel copies a frame before the call
// returns, so the buffers are pooled across sends), then handed to the
// kernel in one sendmmsg per run on Linux (WriteToUDP loop elsewhere). All packets
// share one source node, so one socket carries the whole batch. A packet
// that cannot be framed or addressed does not stop the batch: every
// deliverable packet is sent and the errors come back joined.
func (u *UDPNet) SendBatch(from string, tos []string, pkts []*netsim.Packet) error {
	if len(tos) != len(pkts) {
		return fmt.Errorf("runtime: SendBatch got %d destinations for %d packets", len(tos), len(pkts))
	}
	var (
		conn *net.UDPConn
		errs []error
	)
	b := batchPool.Get().(*batchScratch)
	for i, pkt := range pkts {
		c, addr, err := u.sendView(from, tos[i])
		if err != nil {
			errs = append(errs, err)
			continue
		}
		bufp := framePool.Get().(*[]byte)
		frame, err := appendFrame((*bufp)[:0], from, pkt)
		if err != nil {
			framePool.Put(bufp)
			errs = append(errs, err)
			continue
		}
		conn = c // same `from` for the whole batch: one socket
		*bufp = frame
		b.bufps = append(b.bufps, bufp)
		b.frames = append(b.frames, frame)
		b.addrs = append(b.addrs, addr)
	}
	if len(b.frames) > 0 {
		// One error per refused frame, so send_errors counts packets.
		err := sendBatchOS(conn, b.frames, b.addrs)
		if j, ok := err.(interface{ Unwrap() []error }); ok {
			errs = append(errs, j.Unwrap()...)
		} else if err != nil {
			errs = append(errs, err)
		}
	}
	b.release()
	u.sendErrs.Add(uint64(len(errs)))
	return errors.Join(errs...)
}

// sendBatchLoop is the portable batch drain: one WriteToUDP per frame
// (the Linux path only lands here when sendmmsg is unusable). A frame the
// kernel refuses does not stop the ones behind it.
func sendBatchLoop(conn *net.UDPConn, frames [][]byte, addrs []*net.UDPAddr) error {
	var errs []error
	for i := range frames {
		if _, err := conn.WriteToUDP(frames[i], addrs[i]); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

var framePool = sync.Pool{New: func() any {
	b := make([]byte, 0, 2048)
	return &b
}}

// Stop closes all sockets and waits for readers.
func (u *UDPNet) Stop() {
	u.mu.Lock()
	v := u.view.Load()
	if v.closed {
		u.mu.Unlock()
		return
	}
	u.view.Store(&udpView{conns: v.conns, addrs: v.addrs, closed: true})
	u.mu.Unlock()
	for _, c := range v.conns {
		if c != nil {
			c.Close()
		}
	}
	u.wg.Wait()
}

// Addr returns the bound address of a node (tests and diagnostics).
func (u *UDPNet) Addr(label string) *net.UDPAddr { return u.view.Load().addrs[label] }

// appendFrame encodes pkt, sent by the node `from`, as a datagram frame
// into buf (reusing its capacity).
func appendFrame(buf []byte, from string, pkt *netsim.Packet) ([]byte, error) {
	for _, label := range [...]string{from, pkt.Src, pkt.Dst, pkt.Via} {
		if len(label) > 255 {
			return nil, fmt.Errorf("runtime: label too long")
		}
		buf = append(buf, byte(len(label)))
		buf = append(buf, label...)
	}
	return append(buf, pkt.Data...), nil
}

// decodeFrame parses a frame into the previous hop and the packet it sent.
// The packet's Data is a right-sized copy of the frame's payload
// (netsim.NewPacket), never the frame itself: the reader reuses that.
func decodeFrame(frame []byte) (from string, pkt *netsim.Packet, err error) {
	var labels [4]string
	for i := range labels {
		if len(frame) < 1 || len(frame) < 1+int(frame[0]) {
			return "", nil, fmt.Errorf("runtime: truncated frame label %d", i)
		}
		n := 1 + int(frame[0])
		labels[i], frame = string(frame[1:n]), frame[n:]
	}
	pkt = netsim.NewPacket(len(frame))
	pkt.Src, pkt.Dst, pkt.Via = labels[1], labels[2], labels[3]
	pkt.Data = append(pkt.Data, frame...)
	return labels[0], pkt, nil
}
