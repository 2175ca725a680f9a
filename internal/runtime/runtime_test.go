package runtime

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"ncl/internal/and"
	"ncl/internal/ncl/ir"
	"ncl/internal/ncl/lower"
	"ncl/internal/ncl/parser"
	"ncl/internal/ncl/sema"
	"ncl/internal/ncl/source"
	"ncl/internal/ncp"
	"ncl/internal/netsim"
	"ncl/internal/obs"
)

// loopbackSender delivers every send synchronously to registered nodes,
// ignoring topology (unit-test transport).
type loopbackSender struct {
	net   *and.Network
	mu    sync.Mutex
	nodes map[string]netsim.Node
	sent  []*netsim.Packet
	calls []int // packets per SendBatch call
	fail  error // when set, SendBatch sends nothing and returns it
}

func newLoopback(t testing.TB) *loopbackSender {
	t.Helper()
	n, err := and.Parse("switch s1\nhost a role=0\nhost b role=1\nlink a s1\nlink s1 b")
	if err != nil {
		t.Fatal(err)
	}
	return &loopbackSender{net: n, nodes: map[string]netsim.Node{}}
}

func (l *loopbackSender) Network() *and.Network { return l.net }
func (l *loopbackSender) SendBatch(from string, _ []string, pkts []*netsim.Packet) error {
	l.mu.Lock()
	l.calls = append(l.calls, len(pkts))
	fail := l.fail
	l.mu.Unlock()
	if fail != nil {
		return fail
	}
	for _, pkt := range pkts {
		l.mu.Lock()
		l.sent = append(l.sent, pkt)
		node := l.nodes[pkt.Dst] // deliver straight to the destination
		l.mu.Unlock()
		if node != nil {
			node.Receive(l, pkt, from)
		}
	}
	return nil
}

func (l *loopbackSender) sentCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.sent)
}

// buildHostModule compiles a small in-kernel for the host side.
func buildHostModule(t testing.TB, src string, w int) *ir.Module {
	t.Helper()
	var diags source.DiagList
	f := parser.ParseSource("t.ncl", src, &diags)
	info := sema.Check(f, &diags)
	if diags.HasErrors() {
		t.Fatal(diags.Err())
	}
	m := lower.Lower("t", info, w, &diags)
	if diags.HasErrors() {
		t.Fatal(diags.Err())
	}
	return m
}

func testConfig(t testing.TB, w int) AppConfig {
	hm := buildHostModule(t, `
_net_ _in_ void sink(int *data, _ext_ int *out) {
    for (unsigned i = 0; i < window.len; ++i)
        out[window.seq * window.len + i] = data[i];
}
`, w)
	return AppConfig{
		KernelIDs:  map[string]uint32{"k": 1, "sink": 2},
		OutSpecs:   map[string][]ncp.ParamSpec{"k": {{Elems: w, Bytes: 4, Signed: true}}},
		WindowLen:  w,
		HostModule: hm,
	}
}

func TestOutSplitsArrays(t *testing.T) {
	lb := newLoopback(t)
	h := NewHost("a", 1, 0, testConfig(t, 4), lb, map[string]string{"b": "s1"})
	lb.nodes["a"] = h

	data := make([]uint64, 12)
	if err := h.Out(Invocation{Kernel: "k", Dest: "b"}, [][]uint64{data}); err != nil {
		t.Fatal(err)
	}
	if lb.sentCount() != 3 {
		t.Errorf("12 elements at W=4 should send 3 windows, sent %d", lb.sentCount())
	}
	// Window sequence numbers 0,1,2 — exactly once each. Cross-worker
	// send order is not deterministic (SendWorkers defaults to
	// GOMAXPROCS), so assert the set, not the order.
	lb.mu.Lock()
	pkts := append([]*netsim.Packet(nil), lb.sent...)
	lb.mu.Unlock()
	seen := map[uint32]int{}
	for _, pkt := range pkts {
		hd, _, _, err := ncp.Decode(pkt.Data)
		if err != nil {
			t.Fatal(err)
		}
		if hd.WindowLen != 4 || hd.Sender != 1 {
			t.Errorf("window header: %+v", hd)
		}
		seen[hd.WindowSeq]++
	}
	for seq := uint32(0); seq < 3; seq++ {
		if seen[seq] != 1 {
			t.Errorf("window seq %d sent %d times, want once", seq, seen[seq])
		}
	}
}

// TestOutSerialOrderDeterministic: SendWorkers=1 must send windows on
// the caller's goroutine in sequence order (what wire-order-sensitive
// tests and benchmark baselines rely on).
func TestOutSerialOrderDeterministic(t *testing.T) {
	lb := newLoopback(t)
	cfg := testConfig(t, 4)
	cfg.SendWorkers = 1
	h := NewHost("a", 1, 0, cfg, lb, map[string]string{"b": "s1"})

	if err := h.Out(Invocation{Kernel: "k", Dest: "b"}, [][]uint64{make([]uint64, 32)}); err != nil {
		t.Fatal(err)
	}
	lb.mu.Lock()
	defer lb.mu.Unlock()
	if len(lb.sent) != 8 {
		t.Fatalf("sent %d packets, want 8", len(lb.sent))
	}
	for i, pkt := range lb.sent {
		hd, _, _, err := ncp.Decode(pkt.Data)
		if err != nil {
			t.Fatal(err)
		}
		if hd.WindowSeq != uint32(i) {
			t.Errorf("packet %d carries seq %d; serial mode must preserve order", i, hd.WindowSeq)
		}
	}
}

func TestOutRejectsBadShapes(t *testing.T) {
	lb := newLoopback(t)
	h := NewHost("a", 1, 0, testConfig(t, 4), lb, map[string]string{"b": "s1"})
	if err := h.Out(Invocation{Kernel: "k", Dest: "b"}, [][]uint64{make([]uint64, 7)}); err == nil {
		t.Error("non-multiple of W must be rejected")
	}
	if err := h.Out(Invocation{Kernel: "nope", Dest: "b"}, nil); err == nil {
		t.Error("unknown kernel must be rejected")
	}
	if err := h.Out(Invocation{Kernel: "k", Dest: "b"}, nil); err == nil {
		t.Error("missing arrays must be rejected")
	}
	if err := h.Out(Invocation{Kernel: "k", Dest: "nowhere"}, [][]uint64{make([]uint64, 4)}); err == nil ||
		!strings.Contains(err.Error(), "no route") {
		t.Error("unroutable destination must be rejected")
	}
}

func TestInExecutesKernelAndTimesOut(t *testing.T) {
	lb := newLoopback(t)
	recv := NewHost("b", 2, 1, testConfig(t, 4), lb, map[string]string{"a": "s1"})
	lb.nodes["b"] = recv

	// Timeout with an empty inbox.
	if _, err := recv.In("sink", [][]uint64{make([]uint64, 4)}, 10*time.Millisecond); err != ErrTimeout {
		t.Fatalf("want ErrTimeout, got %v", err)
	}

	// Deliver one window.
	payload, _ := ncp.EncodePayload([][]uint64{{10, 20, 30, 40}}, []ncp.ParamSpec{{Elems: 4, Bytes: 4, Signed: true}})
	pkt, _ := ncp.Marshal(&ncp.Header{KernelID: 1, WindowSeq: 0, WindowLen: 4, FragCount: 1}, nil, payload)
	recv.Receive(lb, &netsim.Packet{Dst: "b", Data: pkt}, "s1")

	out := make([]uint64, 4)
	rw, err := recv.In("sink", [][]uint64{out}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rw.Header.WindowSeq != 0 {
		t.Errorf("header seq = %d", rw.Header.WindowSeq)
	}
	if out[0] != 10 || out[3] != 40 {
		t.Errorf("in-kernel did not copy: %v", out)
	}
	if recv.Pending() != 0 {
		t.Errorf("pending = %d", recv.Pending())
	}
}

func TestInWrongExtCount(t *testing.T) {
	lb := newLoopback(t)
	recv := NewHost("b", 2, 1, testConfig(t, 4), lb, map[string]string{})
	payload, _ := ncp.EncodePayload([][]uint64{{1, 2, 3, 4}}, []ncp.ParamSpec{{Elems: 4, Bytes: 4, Signed: true}})
	pkt, _ := ncp.Marshal(&ncp.Header{KernelID: 1, WindowLen: 4, FragCount: 1}, nil, payload)
	recv.Receive(lb, &netsim.Packet{Dst: "b", Data: pkt}, "s1")
	if _, err := recv.In("sink", nil, time.Second); err == nil {
		t.Error("missing ext buffers must error")
	}
}

func TestFragmentationRoundTrip(t *testing.T) {
	const w = 1024 // 4 KiB payload > MTU
	lb := newLoopback(t)
	cfg := testConfig(t, w)
	cfg.OutSpecs["k"] = []ncp.ParamSpec{{Elems: w, Bytes: 4, Signed: true}}
	sender := NewHost("a", 1, 0, cfg, lb, map[string]string{"b": "s1"})
	recv := NewHost("b", 2, 1, cfg, lb, map[string]string{})
	lb.nodes["a"] = sender
	lb.nodes["b"] = recv

	data := make([]uint64, w)
	for i := range data {
		data[i] = uint64(i)
	}
	if err := sender.Out(Invocation{Kernel: "k", Dest: "b"}, [][]uint64{data}); err != nil {
		t.Fatal(err)
	}
	if lb.sentCount() < 2 {
		t.Fatalf("4KiB window should fragment, sent %d packets", lb.sentCount())
	}
	out := make([]uint64, w)
	if _, err := recv.In("sink", [][]uint64{out}, time.Second); err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i] != uint64(i) {
			t.Fatalf("reassembly corrupted element %d: %d", i, out[i])
		}
	}
}

func TestFragmentDuplicatesIgnored(t *testing.T) {
	const w = 8
	lb := newLoopback(t)
	cfg := testConfig(t, w)
	cfg.MTU = 16 // force fragmentation of the 32-byte payload
	sender := NewHost("a", 1, 0, cfg, lb, map[string]string{"b": "s1"})
	recv := NewHost("b", 2, 1, cfg, lb, map[string]string{})
	lb.nodes["b"] = recv
	_ = sender

	data := make([]uint64, w)
	for i := range data {
		data[i] = uint64(100 + i)
	}
	if err := sender.Out(Invocation{Kernel: "k", Dest: "b"}, [][]uint64{data}); err != nil {
		t.Fatal(err)
	}
	// Replay every fragment (duplicates).
	lb.mu.Lock()
	pkts := append([]*netsim.Packet(nil), lb.sent...)
	lb.mu.Unlock()
	for _, p := range pkts {
		recv.Receive(lb, p, "s1")
	}
	out := make([]uint64, w)
	if _, err := recv.In("sink", [][]uint64{out}, time.Second); err != nil {
		t.Fatal(err)
	}
	if out[0] != 100 {
		t.Errorf("reassembled wrong: %v", out)
	}
	// Duplicates must not produce a second window.
	if recv.Pending() != 0 {
		t.Errorf("duplicate fragments created %d extra windows", recv.Pending())
	}
}

func TestCloseUnblocksIn(t *testing.T) {
	lb := newLoopback(t)
	h := NewHost("b", 2, 1, testConfig(t, 4), lb, map[string]string{})
	done := make(chan error, 1)
	go func() {
		_, err := h.In("sink", [][]uint64{make([]uint64, 4)}, 0)
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	h.Close()
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Errorf("want ErrClosed, got %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("In did not unblock on Close")
	}
}

func TestGarbageTrafficIgnored(t *testing.T) {
	lb := newLoopback(t)
	h := NewHost("b", 2, 1, testConfig(t, 4), lb, map[string]string{})
	h.Receive(lb, &netsim.Packet{Dst: "b", Data: []byte("definitely not ncp")}, "s1")
	if h.Pending() != 0 {
		t.Error("garbage must not enqueue windows")
	}
}

func TestTryIn(t *testing.T) {
	lb := newLoopback(t)
	h := NewHost("b", 2, 1, testConfig(t, 4), lb, map[string]string{})
	if _, got, err := h.TryIn("sink", [][]uint64{make([]uint64, 4)}); got || err != nil {
		t.Fatalf("empty TryIn: got=%v err=%v", got, err)
	}
	payload, _ := ncp.EncodePayload([][]uint64{{1, 2, 3, 4}}, []ncp.ParamSpec{{Elems: 4, Bytes: 4, Signed: true}})
	pkt, _ := ncp.Marshal(&ncp.Header{KernelID: 1, WindowLen: 4, FragCount: 1}, nil, payload)
	h.Receive(lb, &netsim.Packet{Dst: "b", Data: pkt}, "s1")
	out := make([]uint64, 4)
	if _, got, err := h.TryIn("sink", [][]uint64{out}); !got || err != nil {
		t.Fatalf("TryIn after delivery: got=%v err=%v", got, err)
	}
	if out[2] != 3 {
		t.Errorf("TryIn kernel did not run: %v", out)
	}
	if _, _, err := h.TryIn("ghost", nil); err == nil {
		t.Error("unknown kernel must error")
	}
}

func TestOutReliableDirect(t *testing.T) {
	lb := newLoopback(t)
	cfg := testConfig(t, 4)
	cfg.HostLabels = map[uint32]string{1: "a", 2: "b"}
	sender := NewHost("a", 1, 0, cfg, lb, map[string]string{"b": "s1", "a": "s1"})
	recv := NewHost("b", 2, 1, cfg, lb, map[string]string{"a": "s1", "b": "s1"})
	lb.nodes["a"] = sender
	lb.nodes["b"] = recv

	data := make([]uint64, 8)
	for i := range data {
		data[i] = uint64(i)
	}
	// Loopback delivers synchronously: the ack comes back during Send.
	if err := sender.OutReliable(Invocation{Kernel: "k", Dest: "b"}, [][]uint64{data},
		ReliableOptions{Timeout: 50 * time.Millisecond, Retries: 2}); err != nil {
		t.Fatal(err)
	}
	if recv.Pending() != 2 {
		t.Errorf("receiver should hold 2 windows, has %d", recv.Pending())
	}
	// Shape errors surface.
	if err := sender.OutReliable(Invocation{Kernel: "k", Dest: "b"}, [][]uint64{make([]uint64, 3)},
		ReliableOptions{}); err == nil {
		t.Error("bad shape must error")
	}
	if err := sender.OutReliable(Invocation{Kernel: "ghost", Dest: "b"}, nil, ReliableOptions{}); err == nil {
		t.Error("unknown kernel must error")
	}
}

func TestOutReliableUnackedTimesOut(t *testing.T) {
	lb := newLoopback(t)
	cfg := testConfig(t, 4)
	cfg.HostLabels = map[uint32]string{1: "a"}
	sender := NewHost("a", 1, 0, cfg, lb, map[string]string{"void": "s1"})
	// Destination "void" has no node: windows vanish.
	err := sender.OutReliable(Invocation{Kernel: "k", Dest: "void"},
		[][]uint64{make([]uint64, 4)}, ReliableOptions{Timeout: 3 * time.Millisecond, Retries: 1})
	if err == nil || !strings.Contains(err.Error(), "never acknowledged") {
		t.Fatalf("unacked window must time out: %v", err)
	}
	// Attempts: 1 initial + 1 retry.
	if lb.sentCount() != 2 {
		t.Errorf("sent %d packets, want 2 (initial + retry)", lb.sentCount())
	}
}

func TestUDPFrameRoundTrip(t *testing.T) {
	frame, err := appendFrame(nil, "s1", &netsim.Packet{Src: "worker0", Dst: "worker1", Via: "e3", Data: []byte{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	from, pkt, err := decodeFrameZero(frame)
	if err != nil {
		t.Fatal(err)
	}
	if from != "s1" || pkt.Src != "worker0" || pkt.Dst != "worker1" || pkt.Via != "e3" || len(pkt.Data) != 3 || pkt.Data[2] != 3 {
		t.Errorf("frame round trip: from %q, %+v", from, pkt)
	}
	for _, bad := range [][]byte{{}, {5}, {3, 'a', 'b'}, {1, 'a', 1, 'b'}, {1, 'a', 1, 'b', 1, 'c'}, {1, 'a', 1, 'b', 1, 'c', 2, 'd'}} {
		if _, _, err := decodeFrameZero(bad); err == nil {
			t.Errorf("malformed frame %v accepted", bad)
		}
	}
}

// hopRecorder keeps what a node was handed: the packet and the neighbor
// it came from.
type hopRecorder struct {
	label string
	got   chan [2]string // {pkt.Src, from}
}

func (r hopRecorder) Label() string { return r.label }
func (r hopRecorder) Receive(_ netsim.Sender, p *netsim.Packet, from string) {
	r.got <- [2]string{p.Src, from}
}

// TestUDPCarriesPacketSrc: a forwarded packet keeps its originator over
// sockets as it does over the fabric — SwitchNode.forward hashes ECMP on
// (pkt.Src, pkt.Dst), so a frame that replaced Src with the previous hop
// put one flow on different paths on the two transports.
func TestUDPCarriesPacketSrc(t *testing.T) {
	n, err := and.Parse("switch s1 id=1\nswitch s2 id=2\nlink s1 s2")
	if err != nil {
		t.Fatal(err)
	}
	un, err := NewUDPNet(n)
	if err != nil {
		t.Skipf("UDP unavailable: %v", err)
	}
	defer un.Stop()
	s2 := hopRecorder{label: "s2", got: make(chan [2]string, 1)}
	for _, node := range []netsim.Node{nodeFunc{label: "s1", fn: func(*netsim.Packet) {}}, s2} {
		if err := un.Attach(node); err != nil {
			t.Fatal(err)
		}
	}
	if err := un.Start(); err != nil {
		t.Fatal(err)
	}
	if err := un.Send("s1", "s2", &netsim.Packet{Src: "h0", Dst: "h1", Data: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-s2.got:
		if got != [2]string{"h0", "s1"} {
			t.Errorf("s2 saw pkt.Src=%q from=%q, want h0 from s1", got[0], got[1])
		}
	case <-time.After(2 * time.Second):
		t.Fatal("datagram never arrived")
	}
}

func TestUDPNetSmoke(t *testing.T) {
	n, err := and.Parse("host a\nhost b\nlink a b")
	if err != nil {
		t.Fatal(err)
	}
	un, err := NewUDPNet(n)
	if err != nil {
		t.Skipf("UDP unavailable: %v", err)
	}
	defer un.Stop()
	reg := obs.NewRegistry()
	un.SetObs(reg)
	got := make(chan netsim.Packet, 1)
	recv := nodeFunc{label: "b", fn: func(pkt *netsim.Packet) {
		cp := *pkt
		cp.Data = append([]byte(nil), pkt.Data...) // the reader recycles it
		got <- cp
	}}
	send := nodeFunc{label: "a", fn: func(*netsim.Packet) {}}
	if err := un.Attach(recv); err != nil {
		t.Fatal(err)
	}
	if err := un.Attach(send); err != nil {
		t.Fatal(err)
	}
	if err := un.Start(); err != nil {
		t.Fatal(err)
	}
	if err := un.Send("a", "b", &netsim.Packet{Src: "a", Dst: "b", Via: "waypoint", Data: []byte("hello")}); err != nil {
		t.Fatal(err)
	}
	select {
	case pkt := <-got:
		if string(pkt.Data) != "hello" || pkt.Dst != "b" || pkt.Via != "waypoint" {
			t.Errorf("arrived as %+v", pkt)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("datagram never arrived")
	}

	// A datagram that is not a frame is a counted loss, and the reader
	// survives it.
	raw, err := net.DialUDP("udp4", nil, un.Addr("b"))
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write([]byte{200, 'x'}); err != nil {
		t.Fatal(err)
	}
	frameErrs := reg.Counter("udp.frame_errors")
	for deadline := time.Now().Add(2 * time.Second); frameErrs.Load() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := frameErrs.Load(); n != 1 {
		t.Errorf("udp.frame_errors = %d after one malformed datagram, want 1", n)
	}
	if err := un.Send("a", "b", &netsim.Packet{Dst: "b", Data: []byte("again")}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("reader died on a malformed datagram")
	}

	// So is every packet the transport could not put on the wire: a
	// non-neighbor, and the unframeable one of a batch of two.
	if err := un.Send("a", "nowhere", &netsim.Packet{}); err == nil {
		t.Error("non-neighbor UDP send must fail")
	}
	err = un.SendBatch("a", []string{"b", "b"}, []*netsim.Packet{
		{Dst: strings.Repeat("x", 256)}, {Dst: "b", Data: []byte("ok")}})
	if err == nil {
		t.Error("a 256-byte label must not frame")
	}
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("the good packet of the batch never arrived")
	}
	if n := reg.Counter("udp.send_errors").Load(); n != 2 {
		t.Errorf("udp.send_errors = %d after two failed packets, want 2", n)
	}
}

type nodeFunc struct {
	label string
	fn    func(*netsim.Packet)
}

func (n nodeFunc) Label() string                                       { return n.label }
func (n nodeFunc) Receive(_ netsim.Sender, p *netsim.Packet, _ string) { n.fn(p) }

func TestUnknownUserFieldRejected(t *testing.T) {
	lb := newLoopback(t)
	h := NewHost("a", 1, 0, testConfig(t, 4), lb, map[string]string{"b": "s1"})
	err := h.Out(Invocation{Kernel: "k", Dest: "b", User: map[string]uint64{"typo": 1}},
		[][]uint64{make([]uint64, 4)})
	if err == nil || !strings.Contains(err.Error(), "typo") {
		t.Fatalf("unknown user field must be rejected: %v", err)
	}
}
