package netsim

import (
	"strings"
	"sync"
	"testing"
	"time"

	"ncl/internal/and"
	"ncl/internal/ncp"
	"ncl/internal/obs"
	"ncl/internal/pisa"
)

// TestDupInjectionCopiesVTime is the dup-timestamp regression test: a
// fault-injected duplicate is the same bits arriving again, so it must
// carry the original's virtual timestamp. The pre-fix code built the
// duplicate without VTimeUs, so every dup restarted the virtual clock at
// zero and poisoned latency accounting downstream.
func TestDupInjectionCopiesVTime(t *testing.T) {
	fab := New(pairNet(t), Faults{DupProb: 1.0, Seed: 1})
	a := &echoNode{label: "a"}
	b := &echoNode{label: "b"}
	fab.Attach(a)
	fab.Attach(b)
	fab.Start()
	defer fab.Stop()

	if err := fab.Send("a", "b", &Packet{Src: "a", Dst: "b", Data: make([]byte, 100)}); err != nil {
		t.Fatal(err)
	}
	waitCount(t, b, 2)
	b.mu.Lock()
	orig, dup := b.got[0], b.got[1]
	b.mu.Unlock()
	if orig.VTimeUs <= 0 {
		t.Fatalf("original VTimeUs = %v, want a stamped (positive) arrival time", orig.VTimeUs)
	}
	if dup.VTimeUs != orig.VTimeUs {
		t.Errorf("duplicate VTimeUs = %v, want the original's %v", dup.VTimeUs, orig.VTimeUs)
	}
	if &dup.Data[0] == &orig.Data[0] {
		t.Error("duplicate must carry its own Data copy (receiver owns the bytes)")
	}
}

// TestDeliverHeldAfterStopCountsDropped is the hold-back accounting
// regression test: a hold-back packet flushed against a stopped fabric is
// discarded, so it must count as Dropped — not as delivered. The pre-fix
// deliverHeld credited Packets/Bytes first and discarded afterwards, so a
// Stop racing a flush inflated the link's delivered counters.
func TestDeliverHeldAfterStopCountsDropped(t *testing.T) {
	fab := New(pairNet(t), Faults{})
	a := &echoNode{label: "a"}
	b := &echoNode{label: "b"}
	fab.Attach(a)
	fab.Attach(b)
	fab.Start()
	fab.Stop()

	st := fab.Stats("a", "b")
	hp := &heldPkt{
		d:     delivery{pkt: &Packet{Src: "a", Dst: "b", Data: []byte{1, 2, 3}}, from: "a"},
		st:    st,
		inbox: fab.inboxes["b"],
	}
	fab.deliverHeld(hp)
	if got := st.Packets.Load(); got != 0 {
		t.Errorf("Packets = %d after stopped-fabric flush, want 0 (nothing was delivered)", got)
	}
	if got := st.Bytes.Load(); got != 0 {
		t.Errorf("Bytes = %d after stopped-fabric flush, want 0", got)
	}
	if got := st.Dropped.Load(); got != 1 {
		t.Errorf("Dropped = %d, want 1", got)
	}
	if b.count() != 0 {
		t.Errorf("stopped fabric delivered %d packets", b.count())
	}
}

// TestDeliverHeldFullInboxCountsDrop: the other deliverHeld discard path —
// a full inbox — also counts Dropped (plus the inbox_drops counter) and
// never credits delivery.
func TestDeliverHeldFullInboxCountsDrop(t *testing.T) {
	fab := New(pairNet(t), Faults{})
	reg := obs.NewRegistry()
	fab.SetObs(reg)
	fab.SetInboxCap(1)
	a := &echoNode{label: "a"}
	b := &echoNode{label: "b"}
	fab.Attach(a)
	fab.Attach(b)
	// Not started: nothing drains, so the one-slot inbox stays full.
	inbox := fab.inboxes["b"]
	if !inbox.push(delivery{pkt: &Packet{Data: []byte{9}}, from: "a"}) {
		t.Fatal("first push must fit")
	}
	st := fab.Stats("a", "b")
	hp := &heldPkt{
		d:     delivery{pkt: &Packet{Data: []byte{1}}, from: "a"},
		st:    st,
		inbox: inbox,
		drops: reg.Counter("fabric.b.inbox_drops"),
	}
	fab.deliverHeld(hp)
	if st.Packets.Load() != 0 || st.Dropped.Load() != 1 {
		t.Errorf("full-inbox flush: Packets=%d Dropped=%d, want 0/1", st.Packets.Load(), st.Dropped.Load())
	}
	if got := reg.Counter("fabric.b.inbox_drops").Load(); got != 1 {
		t.Errorf("inbox_drops = %d, want 1", got)
	}
}

// starNet: one switch with two host neighbors, for multi-destination
// batch sends.
func starNet(t *testing.T) *and.Network {
	t.Helper()
	n, err := and.Parse("switch s1\nhost a\nhost b\nlink a s1\nlink s1 b")
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestSendBatchDeliveryAndOrder: SendBatch with interleaved destinations
// delivers everything, keeps per-destination FIFO order, stamps virtual
// time, and counts each link exactly as per-packet Send would.
func TestSendBatchDeliveryAndOrder(t *testing.T) {
	fab := New(starNet(t), Faults{})
	s1 := &echoNode{label: "s1"}
	a := &echoNode{label: "a"}
	b := &echoNode{label: "b"}
	for _, n := range []Node{s1, a, b} {
		if err := fab.Attach(n); err != nil {
			t.Fatal(err)
		}
	}
	fab.Start()
	defer fab.Stop()

	const perDest = 10
	var tos []string
	var pkts []*Packet
	for i := 0; i < perDest; i++ {
		tos = append(tos, "a", "b")
		pkts = append(pkts,
			&Packet{Src: "s1", Dst: "a", Data: []byte{byte(i)}},
			&Packet{Src: "s1", Dst: "b", Data: []byte{byte(i)}})
	}
	if err := fab.SendBatch("s1", tos, pkts); err != nil {
		t.Fatal(err)
	}
	waitCount(t, a, perDest)
	waitCount(t, b, perDest)
	for _, n := range []*echoNode{a, b} {
		n.mu.Lock()
		for i, p := range n.got {
			if p.Data[0] != byte(i) {
				t.Errorf("%s got[%d] = %d: per-destination FIFO order broken", n.label, i, p.Data[0])
			}
			if p.VTimeUs <= 0 {
				t.Errorf("%s got[%d] unstamped (VTimeUs=%v)", n.label, i, p.VTimeUs)
			}
		}
		n.mu.Unlock()
	}
	for _, dst := range []string{"a", "b"} {
		st := fab.Stats("s1", dst)
		if st.Packets.Load() != perDest || st.Bytes.Load() != perDest || st.Dropped.Load() != 0 {
			t.Errorf("link s1->%s: %d pkts %d bytes %d dropped, want %d/%d/0",
				dst, st.Packets.Load(), st.Bytes.Load(), st.Dropped.Load(), perDest, perDest)
		}
	}
}

// TestSendBatchDropAccountingParity: against a full inbox, SendBatch must
// produce exactly the counters a loop of per-packet Sends produces —
// every packet counted on Packets/Bytes, overflow counted on Dropped and
// fabric.<label>.inbox_drops.
func TestSendBatchDropAccountingParity(t *testing.T) {
	run := func(t *testing.T, batched bool) (st *LinkStats, drops uint64) {
		t.Helper()
		fab := New(pairNet(t), Faults{})
		reg := obs.NewRegistry()
		fab.SetObs(reg)
		fab.SetInboxCap(4)
		a := &echoNode{label: "a"}
		b := &echoNode{label: "b"}
		fab.Attach(a)
		fab.Attach(b)
		// Not started: nothing drains, so exactly capacity packets fit.
		const n = 10
		var tos []string
		var pkts []*Packet
		for i := 0; i < n; i++ {
			pkt := &Packet{Src: "a", Dst: "b", Data: []byte{byte(i), 0}}
			if batched {
				tos = append(tos, "b")
				pkts = append(pkts, pkt)
			} else if err := fab.Send("a", "b", pkt); err != nil {
				t.Fatal(err)
			}
		}
		if batched {
			if err := fab.SendBatch("a", tos, pkts); err != nil {
				t.Fatal(err)
			}
		}
		return fab.Stats("a", "b"), reg.Counter("fabric.b.inbox_drops").Load()
	}

	bst, bdrops := run(t, true)
	sst, sdrops := run(t, false)
	if bst.Packets.Load() != sst.Packets.Load() ||
		bst.Bytes.Load() != sst.Bytes.Load() ||
		bst.Dropped.Load() != sst.Dropped.Load() ||
		bdrops != sdrops {
		t.Errorf("batched (%d pkts, %d bytes, %d dropped, %d inbox_drops) != per-packet (%d, %d, %d, %d)",
			bst.Packets.Load(), bst.Bytes.Load(), bst.Dropped.Load(), bdrops,
			sst.Packets.Load(), sst.Bytes.Load(), sst.Dropped.Load(), sdrops)
	}
	if bst.Dropped.Load() != 6 || bdrops != 6 {
		t.Errorf("10 sends into a 4-slot undrained inbox: Dropped=%d inbox_drops=%d, want 6/6",
			bst.Dropped.Load(), bdrops)
	}
}

// TestSendBatchFaultFallback: a faulted fabric routes SendBatch through
// per-packet Send so fault injection (here the reorder hold-back slot)
// behaves exactly as with individual sends: last packet parked, the rest
// delivered shifted by one slot.
func TestSendBatchFaultFallback(t *testing.T) {
	fab := New(pairNet(t), Faults{ReorderProb: 1.0, ReorderHold: time.Hour, Seed: 1})
	a := &echoNode{label: "a"}
	b := &echoNode{label: "b"}
	fab.Attach(a)
	fab.Attach(b)
	fab.Start()
	defer fab.Stop()

	var tos []string
	var pkts []*Packet
	for i := 0; i < 4; i++ {
		tos = append(tos, "b")
		pkts = append(pkts, &Packet{Src: "a", Dst: "b", Data: []byte{byte(i)}})
	}
	if err := fab.SendBatch("a", tos, pkts); err != nil {
		t.Fatal(err)
	}
	waitCount(t, b, 3)
	time.Sleep(10 * time.Millisecond)
	if b.count() != 3 {
		t.Errorf("hold-back slot should retain one packet: got %d", b.count())
	}
}

// TestSendBatchDeliversPastBadDestination: one packet addressed to a
// non-neighbor must not take the packets behind it down with it — on the
// perfect-network fast path and on the faulted per-packet fallback alike.
// Every deliverable packet arrives and the error names the bad one.
func TestSendBatchDeliversPastBadDestination(t *testing.T) {
	for name, faults := range map[string]Faults{
		"perfect": {},
		"faulted": {DupProb: 1e-12, Seed: 1}, // fault dice on, nothing injected
	} {
		t.Run(name, func(t *testing.T) {
			fab := New(starNet(t), faults)
			s1 := &echoNode{label: "s1"}
			a := &echoNode{label: "a"}
			b := &echoNode{label: "b"}
			for _, n := range []Node{s1, a, b} {
				if err := fab.Attach(n); err != nil {
					t.Fatal(err)
				}
			}
			fab.Start()
			defer fab.Stop()
			err := fab.SendBatch("s1", []string{"a", "nowhere", "b"}, []*Packet{
				{Src: "s1", Dst: "a", Data: []byte{1}},
				{Src: "s1", Dst: "nowhere", Data: []byte{2}},
				{Src: "s1", Dst: "b", Data: []byte{3}},
			})
			if err == nil || !strings.Contains(err.Error(), "nowhere") {
				t.Fatalf("err = %v, want the unknown destination reported", err)
			}
			waitCount(t, a, 1)
			waitCount(t, b, 1)
		})
	}
}

// TestSendBatchLenMismatch: mismatched slice lengths are a wiring bug and
// must error instead of partially sending.
func TestSendBatchLenMismatch(t *testing.T) {
	fab := New(pairNet(t), Faults{})
	fab.Attach(&echoNode{label: "a"})
	fab.Attach(&echoNode{label: "b"})
	if err := fab.SendBatch("a", []string{"b", "b"}, []*Packet{{}}); err == nil {
		t.Error("length mismatch must fail")
	}
	if err := fab.SendBatch("a", nil, nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}
}

// TestSendBatchConcurrentStress drives SendBatch from several goroutines
// against a draining receiver (run it with -race: it exercises the ring
// push/drain handoff, the batched virtual-clock stamp, and the counters
// under contention). Conservation must hold: delivered + dropped == sent.
func TestSendBatchConcurrentStress(t *testing.T) {
	fab := New(pairNet(t), Faults{})
	a := &echoNode{label: "a"}
	b := &echoNode{label: "b"}
	fab.Attach(a)
	fab.Attach(b)
	fab.Start()
	defer fab.Stop()

	const (
		goroutines = 4
		batches    = 50
		perBatch   = 8
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tos := make([]string, perBatch)
			pkts := make([]*Packet, perBatch)
			for i := range tos {
				tos[i] = "b"
			}
			for n := 0; n < batches; n++ {
				for i := range pkts {
					pkts[i] = &Packet{Src: "a", Dst: "b", Data: []byte{byte(i)}}
				}
				if err := fab.SendBatch("a", tos, pkts); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	const total = goroutines * batches * perBatch
	st := fab.Stats("a", "b")
	deadline := time.Now().Add(5 * time.Second)
	for uint64(b.count())+st.Dropped.Load() < total {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if got := uint64(b.count()) + st.Dropped.Load(); got != total {
		t.Errorf("conservation: delivered %d + dropped %d != sent %d", b.count(), st.Dropped.Load(), total)
	}
	if st.Packets.Load() != total {
		t.Errorf("Packets = %d, want %d (dropped packets still count as sent)", st.Packets.Load(), total)
	}
}

// TestBatchedSwitchPreservesOrder: a burst through the switch's batched
// receive path must come out in FIFO order with every window executed —
// including when ineligible packets (here an unknown kernel id) split the
// burst into segments.
func TestBatchedSwitchPreservesOrder(t *testing.T) {
	fab, sn, _, b := chainFabric(t)
	const n = 200
	for i := 0; i < n; i++ {
		kid := uint32(1)
		if i%17 == 0 {
			kid = 99 // unknown: forwarded raw through the per-packet path
		}
		pkt := ncpPacket(t, kid, uint64(i), 0)
		if err := fab.Send("a", "s1", &Packet{Src: "a", Dst: "b", Data: pkt}); err != nil {
			t.Fatal(err)
		}
	}
	waitCount(t, b, n)
	b.mu.Lock()
	defer b.mu.Unlock()
	spec := []ncp.ParamSpec{{Elems: 1, Bytes: 4, Signed: true}}
	for i, p := range b.got {
		_, _, payload, err := ncp.Decode(p.Data)
		if err != nil {
			t.Fatal(err)
		}
		data, err := ncp.DecodePayload(payload, spec)
		if err != nil {
			t.Fatal(err)
		}
		want := uint64(i + 1) // kernel increments
		if i%17 == 0 {
			want = uint64(i) // unknown kernel: forwarded untouched
		}
		if data[0][0] != want {
			t.Fatalf("window %d arrived as %d, want %d (order or exec broken)", i, data[0][0], want)
		}
	}
	if got := sn.KernelWindows.Load(); got != n-(n+16)/17 {
		t.Errorf("kernel windows = %d, want %d", got, n-(n+16)/17)
	}
}

// TestSwitchReceiveBatchAllocs: the vectorized batch path must hold the
// same per-window allocation budget as the per-packet path — 2 (the
// repacked bytes and the forwarded Packet struct); segment bookkeeping,
// scratch, and the output queue are all pooled or reused.
func TestSwitchReceiveBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race; allocation counts are meaningless")
	}
	net, err := and.Parse("switch s1 id=1\nhost a role=0\nhost b role=1\nlink a s1\nlink s1 b")
	if err != nil {
		t.Fatal(err)
	}
	sn := NewSwitchNode("s1", pisa.DefaultTarget())
	if err := sn.Install(passProgram(), 1); err != nil {
		t.Fatal(err)
	}
	sn.SetRoutes(net.NextHops()["s1"])
	sn.SetHosts(map[uint32]string{1: "a", 2: "b"})
	sender := &nullSender{net: net}

	const win = 64
	batch := make([]delivery, win)
	for i := range batch {
		batch[i] = delivery{pkt: &Packet{Src: "a", Dst: "b", Data: ncpPacket(t, 1, uint64(i), 0)}, from: "a"}
	}
	// Warm the pools and grow the segment slices to capacity.
	for i := 0; i < 8; i++ {
		sn.receiveBatch(sender, batch)
	}
	avg := testing.AllocsPerRun(100, func() {
		sn.receiveBatch(sender, batch)
	})
	if perWin := avg / win; perWin > 2 {
		t.Fatalf("batched receive: %.2f allocs/window, budget 2", perWin)
	}
}
