package runtime

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ncl/internal/and"
	"ncl/internal/ncp"
	"ncl/internal/netsim"
	"ncl/internal/obs"
)

// nullSender discards every packet (pure send-path benchmarks).
type nullSender struct {
	net  *and.Network
	sent atomic.Uint64
}

func newNullSender(tb testing.TB) *nullSender {
	tb.Helper()
	n, err := and.Parse("switch s1\nhost a role=0\nhost b role=1\nlink a s1\nlink s1 b")
	if err != nil {
		tb.Fatal(err)
	}
	return &nullSender{net: n}
}

func (n *nullSender) Network() *and.Network { return n.net }
func (n *nullSender) SendBatch(_ string, _ []string, pkts []*netsim.Packet) error {
	n.sent.Add(uint64(len(pkts)))
	return nil
}

// countAcks decodes the transport's captured packets and counts FlagAck
// headers per window sequence.
func countAcks(tb testing.TB, lb *loopbackSender) map[uint32]int {
	tb.Helper()
	lb.mu.Lock()
	pkts := append([]*netsim.Packet(nil), lb.sent...)
	lb.mu.Unlock()
	acks := map[uint32]int{}
	for _, p := range pkts {
		hd, _, _, err := ncp.Decode(p.Data)
		if err != nil {
			continue
		}
		if hd.Flags&ncp.FlagAck != 0 {
			acks[hd.WindowSeq]++
		}
	}
	return acks
}

// TestReliableBatchAckedPerSubWindow is the reliable-batch regression
// test: a multi-window packet carrying FlagAckRequest must be
// acknowledged per sub-window, and a retransmit of the whole batch must
// re-ack every sub-window without re-enqueuing any of them (the old
// batch-split path never acked and re-enqueued every retransmit). The
// acks of one packet reach the transport in one SendBatch call, and a
// transport that refuses them is counted, not ignored.
func TestReliableBatchAckedPerSubWindow(t *testing.T) {
	lb := newLoopback(t)
	cfg := testConfig(t, 4)
	cfg.HostLabels = map[uint32]string{7: "a"} // ack routing for sender 7
	reg := obs.NewRegistry()
	cfg.Obs = reg
	recv := NewHost("b", 2, 1, cfg, lb, map[string]string{"a": "s1"})

	payload := make([]byte, 48) // 3 windows x 16 bytes
	pkt, err := ncp.Marshal(&ncp.Header{
		Flags: ncp.FlagAckRequest, KernelID: 1, WindowLen: 4,
		Sender: 7, Wid: 9, FragCount: 1, BatchCount: 3,
	}, nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	recv.Receive(lb, &netsim.Packet{Dst: "b", Data: pkt}, "s1")
	if recv.Pending() != 3 {
		t.Fatalf("batch of 3 enqueued %d windows", recv.Pending())
	}
	acks := countAcks(t, lb)
	for seq := uint32(0); seq < 3; seq++ {
		if acks[seq] != 1 {
			t.Errorf("sub-window %d acked %d times, want 1 (sender would retransmit forever)", seq, acks[seq])
		}
	}

	// The whole batch retransmits: every sub-window re-acked, none
	// re-enqueued.
	recv.Receive(lb, &netsim.Packet{Dst: "b", Data: pkt}, "s1")
	if recv.Pending() != 3 {
		t.Errorf("retransmitted batch re-enqueued windows: pending=%d, want 3", recv.Pending())
	}
	acks = countAcks(t, lb)
	for seq := uint32(0); seq < 3; seq++ {
		if acks[seq] != 2 {
			t.Errorf("sub-window %d acked %d times after retransmit, want 2", seq, acks[seq])
		}
	}
	if got := reg.Snapshot().Counters["host.b.duplicates_dropped"]; got != 3 {
		t.Errorf("duplicates_dropped = %d, want 3 (one per retransmitted sub-window)", got)
	}
	if !reflect.DeepEqual(lb.calls, []int{3, 3}) {
		t.Errorf("acks left in SendBatch calls of %v packets, want one call of 3 per received packet", lb.calls)
	}

	lb.fail = errors.New("transport down")
	recv.Receive(lb, &netsim.Packet{Dst: "b", Data: pkt}, "s1")
	snap := reg.Snapshot()
	if got := snap.Counters["host.b.ack_send_errors"]; got != 1 {
		t.Errorf("ack_send_errors = %d after the transport refused a packet's acks, want 1", got)
	}
	if got := snap.Counters["host.b.packets_sent"]; got != 0 {
		t.Errorf("packets_sent = %d: acks are not application packets", got)
	}
}

// TestFragFIFOCompaction is the fragment-bookkeeping regression test:
// fragmented windows that complete *normally* must not leave their keys
// in the eviction FIFO forever (the old code only popped keys under
// cap pressure, so a long-running host's ring grew without bound).
func TestFragFIFOCompaction(t *testing.T) {
	lb := newLoopback(t)
	cfg := testConfig(t, 4)
	recv := NewHost("b", 2, 1, cfg, lb, map[string]string{})

	const windows = 500
	half := make([]byte, 8)
	for i := 0; i < windows; i++ {
		for frag := uint16(0); frag < 2; frag++ {
			pkt, err := ncp.Marshal(&ncp.Header{
				KernelID: 1, WindowLen: 4, Sender: 7, Wid: uint32(i + 1),
				FragIdx: frag, FragCount: 2,
			}, nil, half)
			if err != nil {
				t.Fatal(err)
			}
			recv.Receive(lb, &netsim.Packet{Dst: "b", Data: pkt}, "s1")
		}
		// Drain so the inbox never overflows.
		if _, err := recv.Recv(time.Second); err != nil {
			t.Fatal(err)
		}
	}
	sh := recv.shardFor(7)
	sh.mu.Lock()
	ringLen, live := sh.fragFIFO.len(), len(sh.frags)
	sh.mu.Unlock()
	if live != 0 {
		t.Errorf("%d fragment buffers live after all windows completed", live)
	}
	if ringLen > 2*live+16 {
		t.Errorf("fragFIFO holds %d keys after %d completed windows — completed keys leak", ringLen, windows)
	}
}

// TestTracedWindowsCountedPerBatch is the traceHops regression test:
// when trace sampling selects several windows of one multi-window
// packet, traced_windows must count every selected window, not stop at
// the first (TraceEvery=1 with batches of 4 used to count 1 per packet).
func TestTracedWindowsCountedPerBatch(t *testing.T) {
	lb := newLoopback(t)
	cfg := testConfig(t, 4)
	cfg.Batch = 4
	cfg.SendWorkers = 1
	cfg.TraceEvery = 1
	reg := obs.NewRegistry()
	cfg.Obs = reg
	h := NewHost("a", 1, 0, cfg, lb, map[string]string{"b": "s1"})

	if err := h.Out(Invocation{Kernel: "k", Dest: "b"}, [][]uint64{make([]uint64, 32)}); err != nil {
		t.Fatal(err)
	}
	// 8 windows in 2 packets, every window sampled.
	if got := reg.Snapshot().Counters["host.a.traced_windows"]; got != 8 {
		t.Errorf("traced_windows = %d, want 8 (every selected window in each batch)", got)
	}
	if lb.sentCount() != 2 {
		t.Errorf("sent %d packets, want 2 batches", lb.sentCount())
	}
}

// TestOutBatchedToHost exercises Out with Batch>1 end to end against a
// host: batch-split delivery, the uneven trailing batch, and user-field
// propagation into every sub-window (previously only the encode side
// was covered).
func TestOutBatchedToHost(t *testing.T) {
	lb := newLoopback(t)
	cfg := testConfig(t, 4)
	cfg.Batch = 3
	cfg.SendWorkers = 1
	cfg.UserFields = []string{"tag"}
	sender := NewHost("a", 1, 0, cfg, lb, map[string]string{"b": "s1"})
	recv := NewHost("b", 2, 1, cfg, lb, map[string]string{})
	lb.nodes["b"] = recv

	const windows = 7 // 3 + 3 + 1: the trailing batch is uneven
	data := make([]uint64, windows*4)
	for i := range data {
		data[i] = uint64(i)
	}
	inv := Invocation{Kernel: "k", Dest: "b", User: map[string]uint64{"tag": 42}}
	if err := sender.Out(inv, [][]uint64{data}); err != nil {
		t.Fatal(err)
	}
	if lb.sentCount() != 3 {
		t.Errorf("7 windows at batch 3 should ship in 3 packets, sent %d", lb.sentCount())
	}
	if recv.Pending() != windows {
		t.Fatalf("receiver holds %d windows, want %d", recv.Pending(), windows)
	}
	for seq := 0; seq < windows; seq++ {
		rw, err := recv.Recv(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if rw.Header.WindowSeq != uint32(seq) {
			t.Errorf("window %d has seq %d (serial batched send must preserve order)", seq, rw.Header.WindowSeq)
		}
		if len(rw.Raw) != 16 {
			t.Errorf("window %d payload %dB, want 16", seq, len(rw.Raw))
		}
		vals, err := ncp.DecodePayload(rw.Raw, cfg.OutSpecs["k"])
		if err != nil {
			t.Fatal(err)
		}
		if vals[0][0] != uint64(seq*4) {
			t.Errorf("window %d first element %d, want %d", seq, vals[0][0], seq*4)
		}
		if len(rw.User) != 1 || rw.User[0] != 42 {
			t.Errorf("window %d user fields %v, want [42]", seq, rw.User)
		}
	}
}

// TestOutPooledAllocsFlat asserts the pooled send path's allocation
// budget in steady state: an inline-size packet comes from its scratch's
// send group, 32 packets with their wire bytes in one allocation
// (netsim.PacketGroup), which the transport takes over, so a packet costs
// at most 1/16; a packet above the inline size is a netsim.NewPacket and
// its bytes, two objects.
func TestOutPooledAllocsFlat(t *testing.T) {
	for _, tc := range []struct {
		w      int
		budget float64
	}{{16, 1.0 / 16}, {32, 2.2}} { // 100-byte and 164-byte packets
		t.Run(fmt.Sprintf("W=%d", tc.w), func(t *testing.T) {
			ns := newNullSender(t)
			cfg := testConfig(t, tc.w)
			cfg.SendWorkers = 1
			h := NewHost("a", 1, 0, cfg, ns, map[string]string{"b": "s1"})

			const windows = 256
			data := make([]uint64, windows*tc.w)
			inv := Invocation{Kernel: "k", Dest: "b"}
			// Warm the pools.
			if err := h.Out(inv, [][]uint64{data}); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if err := h.Out(inv, [][]uint64{data}); err != nil {
					t.Fatal(err)
				}
			})
			if perPacket := allocs / windows; perPacket > tc.budget {
				t.Errorf("send path allocates %.3f allocs/packet (%.0f per Out), budget %.3f", perPacket, allocs, tc.budget)
			}
		})
	}
}

// TestDataPathRaceStress mixes Out, OutReliable, Recv, and Close across
// goroutines — meaningful under -race (scripts/check.sh): the sharded
// receive path, pooled send scratch, and close-vs-enqueue guard must be
// data-race free.
func TestDataPathRaceStress(t *testing.T) {
	lb := newLoopback(t)
	cfg := testConfig(t, 4)
	cfg.HostLabels = map[uint32]string{1: "a", 2: "b"}
	cfg.Obs = obs.NewRegistry()
	sender := NewHost("a", 1, 0, cfg, lb, map[string]string{"b": "s1", "a": "s1"})
	recv := NewHost("b", 2, 1, cfg, lb, map[string]string{"a": "s1", "b": "s1"})
	lb.nodes["a"] = sender
	lb.nodes["b"] = recv

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Drain continuously until Close unblocks us.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if _, err := recv.Recv(0); err != nil {
				return
			}
		}
	}()
	// Unreliable senders.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			data := make([]uint64, 32*4)
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = sender.Out(Invocation{Kernel: "k", Dest: "b"}, [][]uint64{data})
			}
		}()
	}
	// A reliable sender (errors are expected once the receiver closes).
	wg.Add(1)
	go func() {
		defer wg.Done()
		data := make([]uint64, 8*4)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = sender.OutReliable(Invocation{Kernel: "k", Dest: "b"}, [][]uint64{data},
				ReliableOptions{Timeout: time.Millisecond, Retries: 1, Window: 4})
		}
	}()

	time.Sleep(50 * time.Millisecond)
	recv.Close() // races against in-flight enqueues by design
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
	sender.Close()
}

// BenchmarkOutParallel measures the send path at SendWorkers=1 (the old
// serial behaviour) vs GOMAXPROCS (the default): same 4096-window
// invocation, packets discarded at the transport.
func BenchmarkOutParallel(b *testing.B) {
	const W, windows = 16, 4096
	// workers=4 exercises the concurrent machinery even on single-core
	// runners, where workers=max degenerates to the serial path.
	for _, bc := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=4", 4}, {"workers=max", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			ns := newNullSender(b)
			cfg := testConfig(b, W)
			cfg.SendWorkers = bc.workers
			h := NewHost("a", 1, 0, cfg, ns, map[string]string{"b": "s1"})
			data := make([]uint64, windows*W)
			inv := Invocation{Kernel: "k", Dest: "b"}
			b.SetBytes(int64(windows * W * 4))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := h.Out(inv, [][]uint64{data}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*windows)/b.Elapsed().Seconds(), "windows/s")
		})
	}
}

// BenchmarkReceiveParallel measures the sharded receive path: packets
// from many concurrent senders decoded, dedup-guarded, and enqueued
// while a drainer empties the inbox.
func BenchmarkReceiveParallel(b *testing.B) {
	const W, senders = 16, 32
	lb := newLoopback(b)
	cfg := testConfig(b, W)
	h := NewHost("b", 2, 1, cfg, lb, map[string]string{})

	// Pre-marshal one packet per simulated sender; vary WindowSeq per
	// delivery via a fresh header so the dup guard is exercised without
	// dropping (no FlagAckRequest = no dedup path, plain enqueue).
	payload, err := ncp.EncodePayload([][]uint64{make([]uint64, W)},
		cfg.OutSpecs["k"])
	if err != nil {
		b.Fatal(err)
	}
	pkts := make([][]byte, senders)
	for s := 0; s < senders; s++ {
		pkt, err := ncp.Marshal(&ncp.Header{
			KernelID: 1, WindowLen: W, Sender: uint32(s), FragCount: 1,
		}, nil, payload)
		if err != nil {
			b.Fatal(err)
		}
		pkts[s] = pkt
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, err := h.Recv(0); err != nil {
				return
			}
		}
	}()
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Uint64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			s := next.Add(1) % senders
			h.Receive(lb, &netsim.Packet{Dst: "b", Data: pkts[s]}, "s1")
		}
	})
	b.StopTimer()
	h.Close()
	<-done
}
