package runtime

import (
	"strings"
	"sync"
	"testing"
	"time"

	"ncl/internal/and"
	"ncl/internal/ncp"
	"ncl/internal/netsim"
	"ncl/internal/obs"
)

// reliablePair wires a sender/receiver pair over the loopback transport
// with ack routing configured and a private metrics registry.
func reliablePair(t *testing.T, w int, mutate func(*AppConfig)) (*loopbackSender, *Host, *Host, *obs.Registry) {
	t.Helper()
	lb := newLoopback(t)
	cfg := testConfig(t, w)
	cfg.HostLabels = map[uint32]string{1: "a", 2: "b"}
	reg := obs.NewRegistry()
	cfg.Obs = reg
	if mutate != nil {
		mutate(&cfg)
	}
	sender := NewHost("a", 1, 0, cfg, lb, map[string]string{"b": "s1", "a": "s1"})
	recv := NewHost("b", 2, 1, cfg, lb, map[string]string{"a": "s1", "b": "s1"})
	lb.nodes["a"] = sender
	lb.nodes["b"] = recv
	return lb, sender, recv, reg
}

// TestOutReliableOverflowNotFalselyAcked is the ack-before-enqueue
// regression test: a reliable window the receiver's inbox drops must NOT
// be acknowledged — the sender retransmits it and every window reaches
// the application exactly once.
func TestOutReliableOverflowNotFalselyAcked(t *testing.T) {
	const W = 4
	_, sender, recv, reg := reliablePair(t, W, func(cfg *AppConfig) {
		cfg.InboxCap = 1 // force overflow with several windows in flight
	})

	const windows = 4
	seen := make(map[uint32]int)
	var seenMu sync.Mutex
	drained := make(chan error, 1)
	go func() {
		// Let all first attempts land (and mostly overflow) before
		// draining, then drain slowly so retransmits interleave.
		time.Sleep(20 * time.Millisecond)
		for n := 0; n < windows; n++ {
			rw, err := recv.Recv(5 * time.Second)
			if err != nil {
				drained <- err
				return
			}
			seenMu.Lock()
			seen[rw.Header.WindowSeq]++
			seenMu.Unlock()
			time.Sleep(2 * time.Millisecond)
		}
		drained <- nil
	}()

	data := make([]uint64, windows*W)
	for i := range data {
		data[i] = uint64(i)
	}
	err := sender.OutReliable(Invocation{Kernel: "k", Dest: "b"}, [][]uint64{data},
		ReliableOptions{Timeout: 5 * time.Millisecond, Retries: 50, Window: windows})
	if err != nil {
		t.Fatalf("reliable send failed: %v", err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("receiver: %v (a falsely-acked window never arrived)", err)
	}
	for seq := uint32(0); seq < windows; seq++ {
		if seen[seq] != 1 {
			t.Errorf("window %d delivered %d times, want exactly once", seq, seen[seq])
		}
	}
	snap := reg.Snapshot()
	if snap.Counters["host.b.inbox_dropped"] == 0 {
		t.Error("test never overflowed the inbox — overflow path unexercised")
	}
	if snap.Counters["host.a.retransmits"] == 0 {
		t.Error("overflow-dropped windows must be retransmitted")
	}
	// Window 0 landed on its first attempt; the overflowed ones were
	// retransmitted, so their acks are not round-trip samples (Karn).
	if got := snap.Histograms["host.a.ack_rtt_us"].Count; got < 1 || got >= windows {
		t.Errorf("ack_rtt_us observed %d times, want the never-retransmitted windows only (1..%d)", got, windows-1)
	}
}

// TestLateAckAfterExhaustionIgnored: an ack arriving after the window
// exhausted its retries must not close anything or record an RTT.
func TestLateAckAfterExhaustionIgnored(t *testing.T) {
	lb := newLoopback(t)
	cfg := testConfig(t, 4)
	reg := obs.NewRegistry()
	cfg.Obs = reg
	sender := NewHost("a", 1, 0, cfg, lb, map[string]string{"void": "s1"})
	lb.nodes["a"] = sender

	err := sender.OutReliable(Invocation{Kernel: "k", Dest: "void"},
		[][]uint64{make([]uint64, 4)}, ReliableOptions{Timeout: 2 * time.Millisecond, Retries: 1})
	if err == nil || !strings.Contains(err.Error(), "never acknowledged") {
		t.Fatalf("unacked window must time out: %v", err)
	}

	// The ack limps in after exhaustion (wid 1 was the first invocation).
	ack, _ := ncp.Marshal(&ncp.Header{Flags: ncp.FlagAck, Wid: 1, WindowSeq: 0, FragCount: 1}, nil, nil)
	sender.Receive(lb, &netsim.Packet{Dst: "a", Data: ack}, "s1")
	sender.Receive(lb, &netsim.Packet{Dst: "a", Data: ack}, "s1") // and again

	snap := reg.Snapshot()
	if got := snap.Counters["host.a.stale_acks"]; got != 2 {
		t.Errorf("stale_acks = %d, want 2", got)
	}
	if got := snap.Histograms["host.a.ack_rtt_us"].Count; got != 0 {
		t.Errorf("late acks must not skew ack_rtt_us (count=%d)", got)
	}
	// Exponential backoff armed one retransmit timeout.
	if got := snap.Histograms["host.a.backoff_us"].Count; got != 1 {
		t.Errorf("backoff_us observed %d times, want 1", got)
	}
	if got := snap.Counters["host.a.retransmits"]; got != 1 {
		t.Errorf("retransmits = %d, want 1", got)
	}
}

// TestDuplicateAckIgnored: two acks for the same (wid, seq) must close
// the wait exactly once and record exactly one RTT sample.
func TestDuplicateAckIgnored(t *testing.T) {
	lb := newLoopback(t)
	cfg := testConfig(t, 4)
	reg := obs.NewRegistry()
	cfg.Obs = reg
	sender := NewHost("a", 1, 0, cfg, lb, map[string]string{"void": "s1"})
	lb.nodes["a"] = sender

	done := make(chan error, 1)
	go func() {
		done <- sender.OutReliable(Invocation{Kernel: "k", Dest: "void"},
			[][]uint64{make([]uint64, 4)}, ReliableOptions{Timeout: time.Second, Retries: 1})
	}()
	// Wait for the window to be outstanding, then ack it twice.
	deadline := time.Now().Add(time.Second)
	for lb.sentCount() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	ack, _ := ncp.Marshal(&ncp.Header{Flags: ncp.FlagAck, Wid: 1, WindowSeq: 0, FragCount: 1}, nil, nil)
	sender.Receive(lb, &netsim.Packet{Dst: "a", Data: ack}, "s1")
	sender.Receive(lb, &netsim.Packet{Dst: "a", Data: ack}, "s1")
	if err := <-done; err != nil {
		t.Fatalf("acked window must succeed: %v", err)
	}
	snap := reg.Snapshot()
	if got := snap.Histograms["host.a.ack_rtt_us"].Count; got != 1 {
		t.Errorf("ack_rtt_us observed %d times, want exactly 1", got)
	}
	if got := snap.Counters["host.a.stale_acks"]; got != 1 {
		t.Errorf("stale_acks = %d, want 1", got)
	}
	if got := snap.Gauges["host.a.reliable_inflight"]; got != 0 {
		t.Errorf("reliable_inflight = %d after completion, want 0", got)
	}
}

// TestOutReliablePipelined: the sliding window keeps multiple windows in
// flight — with an in-flight cap of 8 and a receiver that only acks
// (loopback is synchronous), all windows complete in one wave.
func TestOutReliablePipelined(t *testing.T) {
	_, sender, recv, reg := reliablePair(t, 4, nil)
	const windows = 16
	data := make([]uint64, windows*4)
	if err := sender.OutReliable(Invocation{Kernel: "k", Dest: "b"}, [][]uint64{data},
		ReliableOptions{Timeout: time.Second, Retries: 1, Window: 8}); err != nil {
		t.Fatal(err)
	}
	if recv.Pending() != windows {
		t.Errorf("receiver holds %d windows, want %d", recv.Pending(), windows)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["host.a.retransmits"]; got != 0 {
		t.Errorf("lossless loopback retransmitted %d times", got)
	}
	if got := snap.Histograms["host.a.ack_rtt_us"].Count; got != windows {
		t.Errorf("ack count %d, want %d", got, windows)
	}
}

// TestReliableErrorAggregation: a window that can never be delivered
// must not strand the deliverable ones — everything else completes and
// the error names the first failing window.
func TestReliableErrorAggregation(t *testing.T) {
	// Routes exist for both destinations, but only "b" has a node —
	// windows to "b" are acked, the invalid destination "void" times out.
	lb := newLoopback(t)
	cfg := testConfig(t, 4)
	cfg.HostLabels = map[uint32]string{1: "a", 2: "b"}
	reg := obs.NewRegistry()
	cfg.Obs = reg
	sender := NewHost("a", 1, 0, cfg, lb, map[string]string{"b": "s1", "void": "s1"})
	recv := NewHost("b", 2, 1, cfg, lb, map[string]string{"a": "s1"})
	lb.nodes["a"] = sender
	lb.nodes["b"] = recv

	err := sender.OutReliable(Invocation{Kernel: "k", Dest: "void"},
		[][]uint64{make([]uint64, 12)}, // 3 windows, none deliverable
		ReliableOptions{Timeout: 2 * time.Millisecond, Retries: 1, Window: 3})
	if err == nil || !strings.Contains(err.Error(), "window 0") {
		t.Fatalf("error must name the first failing window: %v", err)
	}
	// All three windows ran to completion (2 attempts each).
	if got := reg.Snapshot().Counters["host.a.retransmits"]; got != 3 {
		t.Errorf("retransmits = %d, want 3 (one per window — none abandoned)", got)
	}
}

// TestDupGuardEvictionAllocsFlat: the ring-buffer FIFO must hold
// steady-state evictions allocation-free (the former re-slice eviction
// kept growing the backing array between reallocations).
func TestDupGuardEvictionAllocsFlat(t *testing.T) {
	lb := newLoopback(t)
	h := NewHost("b", 2, 1, testConfig(t, 4), lb, map[string]string{})
	mk := func(i int) fragKey { return fragKey{sender: 7, wid: uint32(i), seq: 0} }
	sh := h.shardFor(7)
	for i := 0; i < dupGuardCap+64; i++ {
		sh.mu.Lock()
		h.markDone(sh, mk(i))
		sh.mu.Unlock()
	}
	if sh.doneFIFO.len() != dupGuardCap || len(sh.done) != dupGuardCap {
		t.Fatalf("guard size %d/%d, want %d", sh.doneFIFO.len(), len(sh.done), dupGuardCap)
	}
	i := dupGuardCap + 64
	allocs := testing.AllocsPerRun(4096, func() {
		sh.mu.Lock()
		h.markDone(sh, mk(i))
		i++
		sh.mu.Unlock()
	})
	// The ring itself must be allocation-free; tolerate stray map-bucket
	// churn well below the old slice-regrowth cost.
	if allocs > 0.5 {
		t.Errorf("steady-state eviction allocates %.2f allocs/op, want ~0", allocs)
	}
}

// TestFragBufferEviction: fragment buffers for windows that never
// complete are evicted FIFO past fragBufCap and counted.
func TestFragBufferEviction(t *testing.T) {
	lb := newLoopback(t)
	cfg := testConfig(t, 4)
	reg := obs.NewRegistry()
	cfg.Obs = reg
	recv := NewHost("b", 2, 1, cfg, lb, map[string]string{})

	const extra = 10
	half := make([]byte, 8)
	for i := 0; i < fragBufCap+extra; i++ {
		// First fragment only: the window can never complete.
		pkt, err := ncp.Marshal(&ncp.Header{
			KernelID: 1, WindowLen: 4, Sender: 7, Wid: uint32(i + 1),
			FragIdx: 0, FragCount: 2,
		}, nil, half)
		if err != nil {
			t.Fatal(err)
		}
		recv.Receive(lb, &netsim.Packet{Dst: "b", Data: pkt}, "s1")
	}
	sh := recv.shardFor(7)
	sh.mu.Lock()
	live := len(sh.frags)
	sh.mu.Unlock()
	if live > fragBufCap {
		t.Errorf("%d live fragment buffers, cap is %d", live, fragBufCap)
	}
	if got := reg.Snapshot().Counters["host.b.frag_evictions"]; got != extra {
		t.Errorf("frag_evictions = %d, want %d", got, extra)
	}
	// The newest window still completes after its second fragment.
	pkt, _ := ncp.Marshal(&ncp.Header{
		KernelID: 1, WindowLen: 4, Sender: 7, Wid: uint32(fragBufCap + extra),
		FragIdx: 1, FragCount: 2,
	}, nil, half)
	recv.Receive(lb, &netsim.Packet{Dst: "b", Data: pkt}, "s1")
	if recv.Pending() != 1 {
		t.Errorf("surviving fragment buffer did not complete (pending=%d)", recv.Pending())
	}
}

// TestDecodeErrorsCounted: undecodable packets are dropped AND counted.
func TestDecodeErrorsCounted(t *testing.T) {
	lb := newLoopback(t)
	cfg := testConfig(t, 4)
	reg := obs.NewRegistry()
	cfg.Obs = reg
	h := NewHost("b", 2, 1, cfg, lb, map[string]string{})
	h.Receive(lb, &netsim.Packet{Dst: "b", Data: []byte("definitely not ncp")}, "s1")
	h.Receive(lb, &netsim.Packet{Dst: "b", Data: []byte{}}, "s1")
	// A valid packet with a corrupted tail (checksum/shape mismatch).
	pkt, _ := ncp.Marshal(&ncp.Header{KernelID: 1, WindowLen: 4, FragCount: 1}, nil, make([]byte, 16))
	pkt[len(pkt)-1] ^= 0xFF
	h.Receive(lb, &netsim.Packet{Dst: "b", Data: pkt}, "s1")
	if h.Pending() != 0 {
		t.Error("corrupt packets must not enqueue windows")
	}
	if got := reg.Snapshot().Counters["host.b.decode_errors"]; got < 2 {
		t.Errorf("decode_errors = %d, want >= 2", got)
	}
}

// TestBatchSplitCopiesAndValidates: sub-windows of a batched packet must
// not alias each other's user/trace slices, and a payload that does not
// divide evenly across the batch is a counted decode error.
func TestBatchSplitCopiesAndValidates(t *testing.T) {
	lb := newLoopback(t)
	cfg := testConfig(t, 4)
	cfg.UserFields = []string{"tag"}
	reg := obs.NewRegistry()
	cfg.Obs = reg
	recv := NewHost("b", 2, 1, cfg, lb, map[string]string{})

	// 3 windows x 16 bytes in one packet.
	payload := make([]byte, 48)
	for i := range payload {
		payload[i] = byte(i)
	}
	pkt, err := ncp.Marshal(&ncp.Header{
		KernelID: 1, WindowLen: 4, Sender: 7, Wid: 1, FragCount: 1, BatchCount: 3,
	}, []uint64{42}, payload)
	if err != nil {
		t.Fatal(err)
	}
	recv.Receive(lb, &netsim.Packet{Dst: "b", Data: pkt}, "s1")
	if recv.Pending() != 3 {
		t.Fatalf("batch of 3 produced %d windows", recv.Pending())
	}
	var ws []*RecvWindow
	for i := 0; i < 3; i++ {
		rw, err := recv.Recv(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, rw)
	}
	for i, rw := range ws {
		if rw.Header.WindowSeq != uint32(i) {
			t.Errorf("window %d has seq %d", i, rw.Header.WindowSeq)
		}
		if len(rw.Raw) != 16 || rw.Raw[0] != byte(16*i) {
			t.Errorf("window %d raw bytes wrong: len=%d first=%d", i, len(rw.Raw), rw.Raw[0])
		}
		if len(rw.User) != 1 || rw.User[0] != 42 {
			t.Errorf("window %d user fields: %v", i, rw.User)
		}
	}
	// Mutating one sub-window's user slice must not leak into another.
	ws[0].User[0] = 99
	if ws[1].User[0] != 42 {
		t.Error("sub-windows alias the same user slice")
	}

	// A 47-byte payload cannot split into 3 windows.
	bad, err := ncp.Marshal(&ncp.Header{
		KernelID: 1, WindowLen: 4, Sender: 7, Wid: 2, FragCount: 1, BatchCount: 3,
	}, []uint64{42}, payload[:47])
	if err != nil {
		t.Fatal(err)
	}
	recv.Receive(lb, &netsim.Packet{Dst: "b", Data: bad}, "s1")
	if recv.Pending() != 0 {
		t.Error("mismatched batch payload must not enqueue windows")
	}
	if got := reg.Snapshot().Counters["host.b.decode_errors"]; got != 1 {
		t.Errorf("decode_errors = %d, want 1", got)
	}
}

// rerouteSender is the loopback transport with directed first-hop links
// that can fail: a packet queued on a dead link is lost. After deliver
// reliable windows have reached b, it runs fail once.
type rerouteSender struct {
	*loopbackSender
	mu      sync.Mutex
	dead    map[[2]string]bool
	deliver int
	fail    func(*rerouteSender)
}

func (r *rerouteSender) LinkFailed(from, to string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dead[[2]string{from, to}]
}

func (r *rerouteSender) SendBatch(from string, tos []string, pkts []*netsim.Packet) error {
	var keptTos []string
	var kept []*netsim.Packet
	for i, pkt := range pkts {
		if r.LinkFailed(from, tos[i]) {
			continue
		}
		keptTos, kept = append(keptTos, tos[i]), append(kept, pkt)
		if hd, _, _, err := ncp.Decode(pkt.Data); err == nil && pkt.Dst == "b" && hd.Flags&ncp.FlagAckRequest != 0 {
			if r.deliver--; r.deliver == 0 {
				r.fail(r)
			}
		}
	}
	return r.loopbackSender.SendBatch(from, keptTos, kept)
}

// TestOutReliableFollowsRouteChanges: a reliable call whose first hop
// dies partway through resends its lost windows over the hop it resolves
// then, so it completes — whether the failed link was one of two ECMP
// uplinks (the flow re-hashes off it) or new routes name a new waypoint.
func TestOutReliableFollowsRouteChanges(t *testing.T) {
	const windows = 64
	hashed := and.PickHop([]string{"s1", "s2"}, "a", "b")
	cases := []struct {
		name string
		next map[string][]string
		via  map[string]string
		fail func(*rerouteSender, *Host)
	}{
		{
			name: "ecmp-uplink-fails",
			next: map[string][]string{"b": {"s1", "s2"}},
			fail: func(r *rerouteSender, _ *Host) { r.dead[[2]string{"a", hashed}] = true },
		},
		{
			name: "routes-name-new-waypoint",
			next: map[string][]string{"w1": {"s1"}},
			via:  map[string]string{"b": "w1"},
			fail: func(r *rerouteSender, a *Host) {
				r.dead[[2]string{"a", "s1"}] = true
				a.SetRoutes(map[string][]string{"w2": {"s2"}}, map[string]string{"b": "w2"})
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lb := newLoopback(t)
			rs := &rerouteSender{loopbackSender: lb, dead: map[[2]string]bool{}, deliver: 8}
			cfg := testConfig(t, 4)
			cfg.HostLabels = map[uint32]string{1: "a", 2: "b"}
			reg := obs.NewRegistry()
			cfg.Obs = reg
			a := NewHost("a", 1, 0, cfg, rs, nil)
			lb.nodes["a"], lb.nodes["b"] = a, NewHost("b", 2, 1, cfg, rs, map[string]string{"a": "s1"})
			a.SetRoutes(tc.next, tc.via)
			rs.fail = func(r *rerouteSender) { tc.fail(r, a) }
			if err := a.OutReliable(Invocation{Kernel: "k", Dest: "b"}, windowsOf(windows),
				ReliableOptions{Timeout: 5 * time.Millisecond}); err != nil {
				t.Fatal(err)
			}
			snap := reg.Snapshot()
			if got := snap.Counters["host.b.windows_received"]; got != windows {
				t.Errorf("b received %d windows, want %d", got, windows)
			}
			if snap.Counters["host.a.retransmits"] == 0 {
				t.Error("no window was lost on the dead hop: the failure came too late to test rerouting")
			}
		})
	}
}
