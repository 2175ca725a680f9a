package runtime

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ncl/internal/and"
	"ncl/internal/netsim"
)

func udpPair(t *testing.T) (*UDPNet, *atomic.Uint64) {
	t.Helper()
	n, err := and.Parse("host a\nhost b\nlink a b")
	if err != nil {
		t.Fatal(err)
	}
	un, err := NewUDPNet(n)
	if err != nil {
		t.Skipf("UDP unavailable: %v", err)
	}
	t.Cleanup(un.Stop)
	var got atomic.Uint64
	recv := nodeFunc{label: "b", fn: func(pkt *netsim.Packet) {
		if len(pkt.Data) == 4 {
			got.Add(1)
		}
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
	return un, &got
}

func waitUDP(t *testing.T, got *atomic.Uint64, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for got.Load() < want {
		if time.Now().After(deadline) {
			// UDP on loopback can in principle drop under load; require a
			// strong majority so the test is about concurrency safety, not
			// kernel buffer sizing.
			if got.Load() >= want*9/10 {
				return
			}
			t.Fatalf("received %d of %d datagrams", got.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestUDPSendConcurrentRace is the lock-free-view regression test: many
// goroutines sending through one UDPNet must not contend on (or race
// over) the connection table. Before the atomically-published read-only
// view, UDPNet.Send took the net-wide mutex per packet — run this with
// -race to pin the concurrent-send contract.
func TestUDPSendConcurrentRace(t *testing.T) {
	un, got := udpPair(t)
	const (
		goroutines = 8
		perG       = 100
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				pkt := &netsim.Packet{Src: "a", Dst: "b", Data: []byte{1, 2, 3, 4}}
				if err := un.Send("a", "b", pkt); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	waitUDP(t, got, goroutines*perG)
}

// TestUDPSendBatch drives the batched send path (sendmmsg on linux, a
// write loop elsewhere) end to end, concurrently from several goroutines.
func TestUDPSendBatch(t *testing.T) {
	un, got := udpPair(t)
	const (
		goroutines = 4
		batches    = 25
		perBatch   = 16
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tos := make([]string, perBatch)
			pkts := make([]*netsim.Packet, perBatch)
			for i := range tos {
				tos[i] = "b"
			}
			for n := 0; n < batches; n++ {
				for i := range pkts {
					pkts[i] = &netsim.Packet{Src: "a", Dst: "b", Data: []byte{9, 9, 9, 9}}
				}
				if err := un.SendBatch("a", tos, pkts); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	waitUDP(t, got, goroutines*batches*perBatch)
}

// TestUDPSendBatchDeliversPastBadPacket: a packet to a non-neighbor and a
// datagram the kernel refuses (larger than UDP carries) must not take the
// packets behind them down with them — every switch output leaves through
// SendBatch. Both good packets arrive; both failures are reported.
func TestUDPSendBatchDeliversPastBadPacket(t *testing.T) {
	un, got := udpPair(t)
	good := func() *netsim.Packet { return &netsim.Packet{Src: "a", Dst: "b", Data: []byte{1, 2, 3, 4}} }
	err := un.SendBatch("a", []string{"b", "nowhere", "b", "b"}, []*netsim.Packet{
		good(),
		{Src: "a", Dst: "nowhere", Data: []byte{1, 2, 3, 4}},
		{Src: "a", Dst: "b", Data: make([]byte, 70_000)},
		good(),
	})
	if err == nil || !strings.Contains(err.Error(), "nowhere") {
		t.Fatalf("err = %v, want the non-neighbor reported", err)
	}
	if joined, ok := err.(interface{ Unwrap() []error }); !ok || len(joined.Unwrap()) != 2 {
		t.Fatalf("err = %v, want two joined failures (non-neighbor, oversized datagram)", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for got.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got.Load() != 2 {
		t.Fatalf("received %d of the 2 deliverable datagrams", got.Load())
	}
}

// TestUDPSendAfterStop: Stop publishes a closed view; sends racing or
// following it must fail cleanly instead of panicking on a closed socket
// table.
func TestUDPSendAfterStop(t *testing.T) {
	un, _ := udpPair(t)
	un.Stop()
	if err := un.Send("a", "b", &netsim.Packet{Data: []byte{1}}); err == nil {
		t.Error("send after stop must fail")
	}
	if err := un.SendBatch("a", []string{"b"}, []*netsim.Packet{{Data: []byte{1}}}); err == nil {
		t.Error("batch send after stop must fail")
	}
}
