package netsim

import (
	"fmt"
	"math/rand"
	"reflect"
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
	hp := &heldPkt{pkt: &Packet{Src: "a", Dst: "b", Data: []byte{1, 2, 3}}, p: fab.port("a", "b")}
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
	inbox := fab.eps["b"].inbox
	if inbox.pushPkts([]*Packet{{Data: []byte{9}}}, "a") != 1 {
		t.Fatal("first push must fit")
	}
	st := fab.Stats("a", "b")
	hp := &heldPkt{pkt: &Packet{Data: []byte{1}}, p: fab.port("a", "b")}
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
func starNet(t testing.TB) *and.Network {
	t.Helper()
	n, err := and.Parse("switch s1\nhost a\nhost b\nlink a s1\nlink s1 b")
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestSendBatchDeliveryAndOrder: SendBatch with interleaved destinations
// delivers everything, keeps per-destination FIFO order, stamps virtual
// time, and counts each link once per packet.
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

// oneLoopNet: a switch with three host neighbors — a and b live, z
// attached as an inert sink.
func oneLoopNet(t *testing.T) *and.Network {
	t.Helper()
	n, err := and.Parse("switch s1\nhost a\nhost b\nhost z\nlink a s1\nlink s1 b\nlink s1 z")
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// oneLoopResult is everything the one-loop differential compares: what
// each inbox holds in order (duplicates and released hold-backs included),
// what is still parked per link, the per-link counters, the overflow
// counters, the stamp every sent packet ended with and the makespan.
type oneLoopResult struct {
	Delivered map[string][]string
	Held      map[string]string
	Links     map[string][3]uint64 // Packets, Bytes, Dropped
	Overflow  map[string]uint64
	VTimeUs   []float64
	Makespan  float64
}

// runOneLoop sends the seeded stream from s1 over a fresh, never started
// fabric — nothing drains, so the inboxes are the delivered sequence —
// cut into SendBatch calls at cuts (nil: one Send per packet).
func runOneLoop(t *testing.T, faults Faults, inboxCap int, prep func(*Fabric), tos []string, cuts []int) oneLoopResult {
	t.Helper()
	fab := New(oneLoopNet(t), faults)
	reg := obs.NewRegistry()
	fab.SetObs(reg)
	fab.SetInboxCap(inboxCap)
	for _, n := range []Node{&echoNode{label: "s1"}, &echoNode{label: "a"}, &echoNode{label: "b"}, NewNullNode("z")} {
		if err := fab.Attach(n); err != nil {
			t.Fatal(err)
		}
	}
	defer fab.Stop()
	if prep != nil {
		prep(fab)
	}
	pkts := make([]*Packet, len(tos))
	for i, to := range tos {
		// Sizes differ so Bytes and the serialization delay tell packets apart;
		// every third packet has already waited out a queue upstream.
		pkts[i] = &Packet{Src: "s1", Dst: to, Data: make([]byte, 20+i), VTimeUs: float64(i % 3)}
		pkts[i].Data[0] = byte(i)
	}
	if cuts == nil {
		for i := range pkts {
			if err := fab.Send("s1", tos[i], pkts[i]); err != nil {
				t.Fatal(err)
			}
		}
	} else {
		start := 0
		for _, end := range append(cuts, len(pkts)) {
			if err := fab.SendBatch("s1", tos[start:end], pkts[start:end]); err != nil {
				t.Fatal(err)
			}
			start = end
		}
	}

	res := oneLoopResult{
		Delivered: map[string][]string{}, Held: map[string]string{},
		Links: map[string][3]uint64{}, Overflow: map[string]uint64{},
		Makespan: fab.MakespanUs(),
	}
	show := func(p *Packet) string { return fmt.Sprintf("#%d t=%.4f", p.Data[0], p.VTimeUs) }
	for _, to := range []string{"a", "b", "z"} {
		if inbox := fab.eps[to].inbox; inbox != nil {
			for _, d := range inbox.drain(nil, inboxCap) {
				res.Delivered[to] = append(res.Delivered[to], show(d.Pkt))
			}
			res.Overflow[to] = reg.Counter("fabric." + to + ".inbox_drops").Load()
		}
		st := fab.Stats("s1", to)
		res.Links[to] = [3]uint64{st.Packets.Load(), st.Bytes.Load(), st.Dropped.Load()}
	}
	fab.rngMu.Lock()
	for _, to := range []string{"a", "b", "z"} {
		if hp := fab.port("s1", to).held; hp != nil {
			res.Held[to] = show(hp.pkt)
		}
	}
	fab.rngMu.Unlock()
	for _, p := range pkts {
		res.VTimeUs = append(res.VTimeUs, p.VTimeUs)
	}
	return res
}

// TestSendBatchOneLoop: SendBatch is the fabric's only send loop and Send
// a batch of one, so how a packet stream is cut into calls — one Send per
// packet, one SendBatch, random splits — must not change anything: the
// delivered sequence per receiver, the seeded drops, duplicates and
// hold-backs (the dice are rolled per packet in stream order), the
// per-link and overflow counters, and every packet's virtual-time stamp.
// A call groups its packets by destination, so the streams include a
// broadcast's shape — no two consecutive packets to one destination — and
// one longer than a grouping chunk.
func TestSendBatchOneLoop(t *testing.T) {
	for _, tc := range []struct {
		name     string
		faults   Faults
		inboxCap int
		prep     func(*Fabric)
		check    func(t *testing.T, res oneLoopResult, sent map[string]uint64)
	}{
		{name: "perfect", inboxCap: 4096},
		{name: "full-inbox", inboxCap: 4, check: func(t *testing.T, res oneLoopResult, sent map[string]uint64) {
			// Every packet counts on the link; what the 4 slots refuse counts
			// on Dropped and inbox_drops alike.
			for _, to := range []string{"a", "b"} {
				l := res.Links[to]
				if len(res.Delivered[to]) != 4 || l[2] != l[0]-4 || res.Overflow[to] != l[2] {
					t.Errorf("->%s: %d delivered, link %v, inbox_drops %d", to, len(res.Delivered[to]), l, res.Overflow[to])
				}
			}
		}},
		{name: "drop-dup", faults: Faults{DropProb: 0.2, DupProb: 0.2, Seed: 7}, inboxCap: 4096,
			check: func(t *testing.T, res oneLoopResult, sent map[string]uint64) {
				// Packets counts what reached the inbox: sent - dropped + duplicated.
				if l := res.Links["a"]; l[2] == 0 || l[0] <= sent["a"]-l[2] {
					t.Errorf("->a: the stream saw no drop or no duplicate: %d sent, link %v", sent["a"], l)
				}
			}},
		{name: "reorder-pinned-hold", faults: Faults{ReorderProb: 0.3, ReorderHold: time.Hour, Seed: 3}, inboxCap: 4096},
		{name: "reorder-always", faults: Faults{ReorderProb: 1, ReorderHold: time.Hour, Seed: 1}, inboxCap: 4096,
			check: func(t *testing.T, res oneLoopResult, sent map[string]uint64) {
				// Each packet waits for the next on its link: everything arrives
				// shifted by one slot and the last packet stays parked.
				for _, to := range []string{"a", "b"} {
					if res.Held[to] == "" || uint64(len(res.Delivered[to])) != sent[to]-1 {
						t.Errorf("->%s: held %q, %d of %d delivered", to, res.Held[to], len(res.Delivered[to]), sent[to])
					}
				}
			}},
		{name: "dice-on-nothing-injected", faults: Faults{DupProb: 1e-12, Seed: 1}, inboxCap: 4096},
		{name: "dice-on-full-inbox", faults: Faults{DupProb: 1e-12, Seed: 1}, inboxCap: 4},
		{name: "failed-link-between-live-runs", inboxCap: 4096, prep: func(f *Fabric) { f.FailLink("s1", "b") }, check: blackholed},
		{name: "failed-node-between-live-runs", faults: Faults{DupProb: 1e-12, Seed: 1}, inboxCap: 4096,
			prep: func(f *Fabric) { f.FailNode("b") }, check: blackholed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, stream := range []struct {
				name string
				n    int
				runs bool // random runs of one to five packets, else a, b, z, a, b, z, …
			}{
				{"runs", 60, true},
				{"alternating", 60, false},
				{"longer-than-a-chunk", 2*sendChunk + 7, true},
			} {
				t.Run(stream.name, func(t *testing.T) {
					r := rand.New(rand.NewSource(11))
					var tos []string
					sent := map[string]uint64{}
					for len(tos) < stream.n {
						// The sink draws no dice and a blackholed packet neither, so
						// both shift the stream's sequence the same way however it is
						// cut.
						to, n := []string{"a", "b", "z"}[len(tos)%3], 1
						if stream.runs {
							to, n = []string{"a", "b", "a", "b", "z"}[r.Intn(5)], 1+r.Intn(5)
						}
						for ; n > 0; n-- {
							tos = append(tos, to)
							sent[to]++
						}
					}
					want := runOneLoop(t, tc.faults, tc.inboxCap, tc.prep, tos, nil)
					if want.Links["z"][0] == 0 || len(want.Delivered["a"]) == 0 {
						t.Fatalf("the stream does not exercise every destination: %+v", want.Links)
					}
					if tc.check != nil {
						tc.check(t, want, sent)
					}
					var cuts []int
					for at := r.Intn(8); at < len(tos); at += 1 + r.Intn(12) {
						cuts = append(cuts, at)
					}
					for name, c := range map[string][]int{"one-SendBatch": {}, "random-splits": cuts} {
						if got := runOneLoop(t, tc.faults, tc.inboxCap, tc.prep, tos, c); !reflect.DeepEqual(got, want) {
							t.Errorf("%s diverges from one Send per packet:\n got %+v\nwant %+v", name, got, want)
						}
					}
				})
			}
		})
	}
}

// blackholed checks a stream whose middle destination b is failed: its
// packets are lost and counted, never stamped, and a's deliver around them.
func blackholed(t *testing.T, res oneLoopResult, sent map[string]uint64) {
	if l := res.Links["b"]; len(res.Delivered["b"]) != 0 || l != [3]uint64{0, 0, sent["b"]} {
		t.Errorf("->b is failed: %d delivered, link %v, %d sent", len(res.Delivered["b"]), l, sent["b"])
	}
	if la := res.Links["a"]; uint64(len(res.Delivered["a"])) != sent["a"] || la[2] != 0 {
		t.Errorf("->a is live: %d of %d delivered, link %v", len(res.Delivered["a"]), sent["a"], la)
	}
}

// TestSinkPacketsCarryNoVirtualTime: a packet that never occupies a link's
// receiver — bound for a NullNode sink, or blackholed by a failed link or
// node — gets no virtual-time stamp and moves neither the makespan nor the
// link's free cursor, whichever entry sends it, alone or in a batch mixed
// with a live destination; and the live runs around it still deliver.
// (Send used to skip the stamp and SendBatch to apply it: one 100-byte
// packet to a sink read 0 through one and 1.008 µs through the other.)
func TestSinkPacketsCarryNoVirtualTime(t *testing.T) {
	for name, dead := range map[string]struct {
		to   string
		prep func(*Fabric)
	}{
		"sink":        {"z", func(*Fabric) {}},
		"failed-link": {"b", func(f *Fabric) { f.FailLink("b", "s1") }},
		"failed-node": {"b", func(f *Fabric) { f.FailNode("b") }},
	} {
		t.Run(name, func(t *testing.T) {
			fab := New(oneLoopNet(t), Faults{})
			a := &echoNode{label: "a"}
			for _, n := range []Node{&echoNode{label: "s1"}, a, &echoNode{label: "b"}, NewNullNode("z")} {
				if err := fab.Attach(n); err != nil {
					t.Fatal(err)
				}
			}
			fab.Start()
			defer fab.Stop()
			dead.prep(fab)
			pkt := func(to string) *Packet { return &Packet{Src: "s1", Dst: to, Data: make([]byte, 100)} }
			untouched := func(step string, pkts ...*Packet) {
				t.Helper()
				for _, p := range pkts {
					if p.VTimeUs != 0 {
						t.Errorf("%s: packet to %s stamped VTimeUs = %v, want 0", step, dead.to, p.VTimeUs)
					}
				}
				fab.vt.mu.Lock()
				free := fab.port("s1", dead.to).free
				fab.vt.mu.Unlock()
				if free != 0 {
					t.Errorf("%s: link s1->%s busy until %v in virtual time, want untouched", step, dead.to, free)
				}
			}

			one := pkt(dead.to)
			if err := fab.Send("s1", dead.to, one); err != nil {
				t.Fatal(err)
			}
			untouched("Send", one)
			two := []*Packet{pkt(dead.to), pkt(dead.to)}
			if err := fab.SendBatch("s1", []string{dead.to, dead.to}, two); err != nil {
				t.Fatal(err)
			}
			untouched("SendBatch", two...)
			if got := fab.MakespanUs(); got != 0 {
				t.Errorf("MakespanUs = %v after traffic that reached no host, want 0", got)
			}

			mixed := []*Packet{pkt(dead.to), pkt("a"), pkt(dead.to), pkt("a")}
			if err := fab.SendBatch("s1", []string{dead.to, "a", dead.to, "a"}, mixed); err != nil {
				t.Fatal(err)
			}
			untouched("mixed SendBatch", mixed[0], mixed[2])
			waitCount(t, a, 2)
			if mixed[1].VTimeUs <= 0 || mixed[3].VTimeUs <= mixed[1].VTimeUs {
				t.Errorf("live packets stamped %v then %v, want increasing arrival times", mixed[1].VTimeUs, mixed[3].VTimeUs)
			}
			if got := fab.MakespanUs(); got != mixed[3].VTimeUs {
				t.Errorf("MakespanUs = %v, want the last live arrival %v", got, mixed[3].VTimeUs)
			}
			st := fab.Stats("s1", dead.to)
			if dead.to == "z" {
				if st.Packets.Load() != 5 || st.Dropped.Load() != 0 {
					t.Errorf("sink link: %d packets %d dropped, want 5/0", st.Packets.Load(), st.Dropped.Load())
				}
			} else if st.Packets.Load() != 0 || st.Dropped.Load() != 5 {
				t.Errorf("blackholed link: %d packets %d dropped, want 0/5", st.Packets.Load(), st.Dropped.Load())
			}
		})
	}
}

// quietNode drains its inbox without allocating.
type quietNode struct{ label string }

func (q quietNode) Label() string                   { return q.label }
func (q quietNode) Receive(Sender, *Packet, string) {}

// TestFabricSendAllocs: the send loop allocates nothing per packet or per
// call — for Send (a batch of one built on the stack), for a 64-packet
// SendBatch of 8-packet runs and for a 128-packet one alternating between
// its two destinations (a broadcast's shape), with the fault dice off and
// on.
func TestFabricSendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	for name, faults := range map[string]Faults{
		"perfect": {},
		"dice-on": {DupProb: 1e-12, Seed: 1},
	} {
		t.Run(name, func(t *testing.T) {
			fab := New(starNet(t), faults)
			for _, n := range []Node{quietNode{"s1"}, quietNode{"a"}, quietNode{"b"}} {
				if err := fab.Attach(n); err != nil {
					t.Fatal(err)
				}
			}
			fab.Start()
			defer fab.Stop()
			tos, pkts := fabricBatch(64, 8)
			if avg := testing.AllocsPerRun(200, func() {
				if err := fab.Send("s1", "a", pkts[0]); err != nil {
					t.Fatal(err)
				}
			}); avg != 0 {
				t.Errorf("Send allocates %.2f per packet, want 0", avg)
			}
			if avg := testing.AllocsPerRun(200, func() {
				if err := fab.SendBatch("s1", tos, pkts); err != nil {
					t.Fatal(err)
				}
			}); avg != 0 {
				t.Errorf("SendBatch allocates %.2f per %d-packet batch of runs, want 0", avg, len(pkts))
			}
			tos, pkts = fabricBatch(128, 1)
			if avg := testing.AllocsPerRun(200, func() {
				if err := fab.SendBatch("s1", tos, pkts); err != nil {
					t.Fatal(err)
				}
			}); avg != 0 {
				t.Errorf("SendBatch allocates %.2f per alternating %d-packet batch, want 0", avg, len(pkts))
			}
			if st := fab.Stats("s1", "b"); st.Packets.Load() == 0 {
				t.Error("nothing crossed the link")
			}
		})
	}
}

// fabricBatch builds n 64-byte packets from s1 that alternate between a and
// b every run packets.
func fabricBatch(n, run int) ([]string, []*Packet) {
	tos := make([]string, n)
	pkts := make([]*Packet, n)
	for i := range pkts {
		tos[i] = []string{"a", "b"}[i/run%2]
		pkts[i] = &Packet{Src: "s1", Dst: tos[i], Data: make([]byte, 64)}
	}
	return tos, pkts
}

// BenchmarkFabricSendBatch times the send loop from s1 to its two hosts,
// which drain and discard: runs-64 sends two 32-packet runs per call,
// alternating-128 a broadcast's shape, a, b, a, b, … ns/pkt is per packet.
func BenchmarkFabricSendBatch(b *testing.B) {
	for _, bc := range []struct {
		name   string
		n, run int
	}{{"runs-64", 64, 32}, {"alternating-128", 128, 1}} {
		b.Run(bc.name, func(b *testing.B) {
			fab := New(starNet(b), Faults{})
			for _, n := range []Node{quietNode{"s1"}, quietNode{"a"}, quietNode{"b"}} {
				if err := fab.Attach(n); err != nil {
					b.Fatal(err)
				}
			}
			fab.Start()
			defer fab.Stop()
			tos, pkts := fabricBatch(bc.n, bc.run)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := fab.SendBatch("s1", tos, pkts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bc.n), "ns/pkt")
		})
	}
}

// TestSendBatchDeliversPastBadDestination: one packet addressed to a
// non-neighbor must not take the packets behind it down with it, with the
// fault dice off or on. Every deliverable packet arrives and the error
// names the bad one.
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
// Then two goroutines send alternating batches as one switch label, as a
// node's SendWorkers do: each one's packets keep their order per
// destination, and every link counts every packet once.
func TestSendBatchConcurrentStress(t *testing.T) {
	t.Run("one-destination", testSendBatchOneDestinationStress)
	t.Run("one-label-two-goroutines", func(t *testing.T) {
		fab := New(starNet(t), Faults{})
		a, b := &echoNode{label: "a"}, &echoNode{label: "b"}
		for _, n := range []Node{&echoNode{label: "s1"}, a, b} {
			if err := fab.Attach(n); err != nil {
				t.Fatal(err)
			}
		}
		fab.Start()
		defer fab.Stop()

		const (
			goroutines = 2
			batches    = 50
			perBatch   = 64 // alternating a, b: 32 packets to each per call
		)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; n < batches; n++ {
					tos := make([]string, perBatch)
					pkts := make([]*Packet, perBatch)
					for i := range pkts {
						// Data: the goroutine, then the packet's sequence number on its
						// destination.
						seq := n*perBatch/2 + i/2
						tos[i] = []string{"a", "b"}[i%2]
						pkts[i] = &Packet{Src: "s1", Dst: tos[i], Data: []byte{byte(g), byte(seq >> 8), byte(seq)}}
					}
					if err := fab.SendBatch("s1", tos, pkts); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		const perDest = goroutines * batches * perBatch / 2
		for _, n := range []*echoNode{a, b} {
			waitCount(t, n, perDest)
			st := fab.Stats("s1", n.label)
			if st.Packets.Load() != perDest || st.Dropped.Load() != 0 {
				t.Errorf("link s1->%s: %d packets %d dropped, want %d/0", n.label, st.Packets.Load(), st.Dropped.Load(), perDest)
			}
			n.mu.Lock()
			next := [goroutines]int{}
			for _, p := range n.got {
				g, seq := p.Data[0], int(p.Data[1])<<8|int(p.Data[2])
				if seq != next[g] {
					t.Errorf("->%s: goroutine %d's packet %d arrived where %d was due", n.label, g, seq, next[g])
					break
				}
				next[g]++
			}
			n.mu.Unlock()
		}
	})
}

func testSendBatchOneDestinationStress(t *testing.T) {
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
// same per-window allocation budget as the per-packet path — 0 on a pass:
// every window leaves in the packet it arrived in, and segment
// bookkeeping, scratch, and the output queue are all pooled or reused.
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
	batch := make([]Delivery, win)
	for i := range batch {
		batch[i] = Delivery{Pkt: &Packet{Src: "a", Dst: "b", Data: ncpPacket(t, 1, uint64(i), 0)}, From: "a"}
	}
	// Warm the pools and grow the segment slices to capacity.
	for i := 0; i < 8; i++ {
		sn.ReceiveBurst(sender, batch)
	}
	avg := testing.AllocsPerRun(100, func() {
		sn.ReceiveBurst(sender, batch)
	})
	if perWin := avg / win; perWin > 0 {
		t.Fatalf("batched receive: %.2f allocs/window, budget 0", perWin)
	}
}
