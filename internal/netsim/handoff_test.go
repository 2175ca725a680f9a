package netsim

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ncl/internal/and"
)

// seqNode is a BurstReceiver that checks the fabric's one-runner rule:
// at most one ReceiveBurst call in flight, and each source's sequence
// numbers (Data[0] the source, Data[1:3] the sequence) increasing. Its
// per-source state is a plain map, read and written only inside runs, so
// the race detector also checks that successive runs are ordered. With
// echo set, it sends every packet back to the neighbor it came from.
type seqNode struct {
	label    string
	echo     bool
	inflight atomic.Int32
	overlap  atomic.Int32 // calls that found another in flight
	disorder atomic.Int32 // packets whose sequence did not increase
	got      atomic.Int64
	last     map[byte]int
	slow     time.Duration // each run sleeps this long (the Stop test)
	running  atomic.Bool
}

func newSeqNode(label string, echo bool) *seqNode {
	return &seqNode{label: label, echo: echo, last: map[byte]int{}}
}

func (n *seqNode) Label() string { return n.label }
func (n *seqNode) Receive(f Sender, pkt *Packet, from string) {
	n.ReceiveBurst(f, []Delivery{{Pkt: pkt, From: from}})
}

func (n *seqNode) ReceiveBurst(f Sender, burst []Delivery) {
	if n.inflight.Add(1) != 1 {
		n.overlap.Add(1)
	}
	n.running.Store(true)
	runtime.Gosched() // widen the window a second runner would fall into
	time.Sleep(n.slow)
	for _, d := range burst {
		src, seq := d.Pkt.Data[0], int(d.Pkt.Data[1])<<8|int(d.Pkt.Data[2])
		if last, ok := n.last[src]; ok && seq <= last {
			n.disorder.Add(1)
		}
		n.last[src] = seq
		if n.echo {
			back := &Packet{Src: n.label, Dst: d.From, Data: d.Pkt.Data}
			_ = f.SendBatch(n.label, []string{d.From}, []*Packet{back})
		}
	}
	n.got.Add(int64(len(burst)))
	n.running.Store(false)
	n.inflight.Add(-1)
}

func seqPacket(src byte, seq int) *Packet {
	return &Packet{Data: []byte{src, byte(seq >> 8), byte(seq)}}
}

func startFabric(t *testing.T, net *and.Network, nodes ...Node) *Fabric {
	t.Helper()
	fab := New(net, Faults{})
	for _, n := range nodes {
		if err := fab.Attach(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := fab.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fab.Stop)
	return fab
}

// TestHandOffRunsIdleReceiverInline: a lone packet to an idle
// BurstReceiver has been received when SendBatch returns — it ran on the
// sender's goroutine, with no drain goroutine in between.
func TestHandOffRunsIdleReceiverInline(t *testing.T) {
	b := newSeqNode("b", false)
	fab := startFabric(t, pairNet(t), &echoNode{label: "a"}, b)
	for i := 1; i <= 100; i++ {
		if err := fab.SendBatch("a", []string{"b"}, []*Packet{seqPacket(0, i)}); err != nil {
			t.Fatal(err)
		}
		if got := b.got.Load(); got != int64(i) {
			t.Fatalf("after send %d the receiver had %d packets: the lone packet was queued, not run inline", i, got)
		}
	}
}

// TestHandOffOneRunnerPerNode: four goroutines send one-packet and mixed
// bursts, as two labels, into one node that echoes each packet back, so
// hand-off nests (a → s1 → a on one goroutine) while drained bursts run
// beside it. No node ever runs on two goroutines at once, and every
// source's packets arrive in order at s1 and back at its sender.
func TestHandOffOneRunnerPerNode(t *testing.T) {
	const sources, perSource = 4, 2000
	s1 := newSeqNode("s1", true)
	a, b := newSeqNode("a", false), newSeqNode("b", false)
	fab := startFabric(t, starNet(t), s1, a, b)
	labels := []string{"a", "b"}
	var wg sync.WaitGroup
	for g := 0; g < sources; g++ {
		wg.Add(1)
		go func(src byte, from string) {
			defer wg.Done()
			tos := make([]string, 0, 5)
			pkts := make([]*Packet, 0, 5)
			for seq := 0; seq < perSource; {
				k := 1 // mostly lone packets, now and then a burst of up to 5
				if seq%11 >= 7 {
					k = min(1+seq%5, perSource-seq)
				}
				tos, pkts = tos[:0], pkts[:0]
				for i := 0; i < k; i++ {
					tos = append(tos, "s1")
					pkts = append(pkts, seqPacket(src, seq))
					seq++
				}
				if err := fab.SendBatch(from, tos, pkts); err != nil {
					t.Error(err)
					return
				}
			}
		}(byte(g), labels[g%2])
	}
	wg.Wait()
	// Wait out the queued packets: what s1 took and echoed, and what a full
	// inbox dropped, account for everything sent.
	sent := int64(sources * perSource)
	drops := func(from, to string) int64 { return int64(fab.Stats(from, to).Dropped.Load()) }
	deadline := time.Now().Add(10 * time.Second)
	for s1.got.Load()+drops("a", "s1")+drops("b", "s1") != sent ||
		a.got.Load()+b.got.Load()+drops("s1", "a")+drops("s1", "b") != s1.got.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("s1 got %d of %d sent, a %d, b %d", s1.got.Load(), sent, a.got.Load(), b.got.Load())
		}
		time.Sleep(time.Millisecond)
	}
	fab.Stop()
	for _, n := range []*seqNode{s1, a, b} {
		if o := n.overlap.Load(); o != 0 {
			t.Errorf("%s: %d ReceiveBurst calls overlapped another", n.label, o)
		}
		if d := n.disorder.Load(); d != 0 {
			t.Errorf("%s: %d packets arrived out of their source's order", n.label, d)
		}
	}
	if len(s1.last) != sources {
		t.Errorf("s1 heard from %d sources, want %d", len(s1.last), sources)
	}
}

// TestHandOffPlainNodeKeepsItsGoroutine: a plain Node is never run inline,
// so a receiver that blocks (legal for Receive) cannot stall its sender.
func TestHandOffPlainNodeKeepsItsGoroutine(t *testing.T) {
	b := &blockingNode{label: "b", release: make(chan struct{}), received: make(chan struct{}, 1)}
	fab := startFabric(t, pairNet(t), &echoNode{label: "a"}, b)
	sent := make(chan error, 1)
	go func() { sent <- fab.Send("a", "b", &Packet{Data: []byte{1}}) }()
	select {
	case err := <-sent:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Send blocked in a plain Node's Receive: it ran inline")
	}
	close(b.release)
	<-b.received
}

// TestHandOffStopWaitsForRuns: after Stop returns no ReceiveBurst is in
// flight, neither one running inline on a sender's goroutine nor one on a
// drain goroutine, and nothing is run after it.
func TestHandOffStopWaitsForRuns(t *testing.T) {
	b := newSeqNode("b", false)
	b.slow = 20 * time.Millisecond
	fab := startFabric(t, pairNet(t), &echoNode{label: "a"}, b)
	go func() {
		// The first packet runs inline on this goroutine; the second queues
		// behind it for the drain goroutine, unless Stop comes first.
		_ = fab.Send("a", "b", seqPacket(0, 1))
	}()
	for !b.running.Load() {
		time.Sleep(100 * time.Microsecond)
	}
	_ = fab.Send("a", "b", seqPacket(0, 2))
	fab.Stop()
	if b.running.Load() || b.inflight.Load() != 0 {
		t.Fatal("a ReceiveBurst was still running when Stop returned")
	}
	got := b.got.Load()
	time.Sleep(2 * b.slow)
	if b.got.Load() != got || b.inflight.Load() != 0 {
		t.Fatal("a ReceiveBurst ran after Stop returned")
	}
}
