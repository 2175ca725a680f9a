package runtime

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"ncl/internal/and"
	"ncl/internal/ncp"
	"ncl/internal/netsim"
	"ncl/internal/obs"
	"ncl/internal/pisa"
)

// ownershipConfig is a host sending kernel k: windows of w int32 elements,
// acknowledged host to host.
func ownershipConfig(w int) AppConfig {
	return AppConfig{
		KernelIDs:   map[string]uint32{"k": 1},
		OutSpecs:    map[string][]ncp.ParamSpec{"k": {{Elems: w, Bytes: 4, Signed: true}}},
		WindowLen:   w,
		SendWorkers: 1,
		Obs:         obs.NewRegistry(),
	}
}

// windowSource is every window's data in one array: window seq holds
// seq*w+1 .. seq*w+w, so no two windows carry the same bytes.
func windowSource(windows, w int) []uint64 {
	data := make([]uint64, windows*w)
	for i := range data {
		data[i] = uint64(i + 1)
	}
	return data
}

// checkWindow reports whether rw still reads as window seq of
// windowSource, plus add per element.
func checkWindow(rw *RecvWindow, w int, add int64) error {
	seq := int(rw.Header.WindowSeq)
	vals, err := ncp.DecodePayload(rw.Raw, []ncp.ParamSpec{{Elems: w, Bytes: 4, Signed: true}})
	if err != nil {
		return fmt.Errorf("window %d: %v", seq, err)
	}
	for j, v := range vals[0] {
		if want := int64(seq*w+j+1) + add; int64(v) != want {
			return fmt.Errorf("window %d element %d reads %d, want %d", seq, j, int64(v), want)
		}
	}
	return nil
}

// transport is what the ownership tests need of the fabric and of UDPNet.
type transport interface {
	netsim.Sender
	Attach(netsim.Node) error
	Start() error
}

// TestRecvWindowOwnsItsBytes: a window the application holds keeps the
// bytes it arrived with while its host receives more, on every transport.
// RecvWindow.Raw aliases the packet, so this holds only because a node owns
// a received packet for good — over UDP, because the reader copies every
// datagram out of the one buffer it reads into.
func TestRecvWindowOwnsItsBytes(t *testing.T) {
	const w, windows = 8, 256
	for _, name := range []string{"fabric", "udp"} {
		t.Run(name, func(t *testing.T) {
			n, err := and.Parse("host a role=0\nhost b role=1\nlink a b")
			if err != nil {
				t.Fatal(err)
			}
			var tr transport
			if name == "fabric" {
				fab := netsim.New(n, netsim.Faults{})
				tr = fab
				t.Cleanup(fab.Stop)
			} else {
				un, err := NewUDPNet(n)
				if err != nil {
					t.Skipf("UDP unavailable: %v", err)
				}
				tr = un
				t.Cleanup(un.Stop)
			}
			cfg := ownershipConfig(w)
			a := withHosts(NewHost("a", 1, 0, cfg, tr, map[string]string{"b": "b"}), map[uint32]string{1: "a", 2: "b"})
			b := withHosts(NewHost("b", 2, 1, cfg, tr, map[string]string{"a": "a"}), map[uint32]string{1: "a", 2: "b"})
			t.Cleanup(a.Close)
			t.Cleanup(b.Close)
			for _, h := range []*Host{a, b} {
				if err := tr.Attach(h); err != nil {
					t.Fatal(err)
				}
			}
			if err := tr.Start(); err != nil {
				t.Fatal(err)
			}

			// Reliable, so that a datagram the loopback drops under load is
			// resent rather than failing the test.
			sent := make(chan error, 1)
			go func() {
				sent <- a.OutReliable(Invocation{Kernel: "k", Dest: "b"}, [][]uint64{windowSource(windows, w)},
					ReliableOptions{Timeout: 50 * time.Millisecond, Retries: 20})
			}()
			held := make([]*RecvWindow, windows)
			for i := 0; i < windows; i++ {
				rw, err := b.Recv(10 * time.Second)
				if err != nil {
					t.Fatalf("after %d of %d windows: %v", i, windows, err)
				}
				if seq := rw.Header.WindowSeq; seq >= windows || held[seq] != nil {
					t.Fatalf("window %d delivered twice or out of range", seq)
				}
				held[rw.Header.WindowSeq] = rw
			}
			if err := <-sent; err != nil {
				t.Fatal(err)
			}
			for _, rw := range held {
				if err := checkWindow(rw, w, 0); err != nil {
					t.Fatalf("held while %d windows arrived: %v", windows, err)
				}
			}
		})
	}
}

// addBcastProgram is a kernel over w int32 elements that adds add to each
// in place and broadcasts the window.
func addBcastProgram(w int, add uint64) *pisa.Program {
	k := &pisa.Kernel{
		Name: "k", ID: 1, WindowLen: w,
		Fields:  []pisa.Field{{Name: pisa.FieldFwd, Bits: 8}},
		Params:  []pisa.ParamLayout{{Name: "x", Elems: w, Bits: 32, Signed: true}},
		WinMeta: map[string]pisa.FieldRef{},
	}
	ops := []pisa.ActionOp{{Op: "mov", Dst: 0, A: pisa.ConstOperand(3)}}
	for i := 0; i < w; i++ {
		f := pisa.FieldRef(len(k.Fields))
		k.Fields = append(k.Fields, pisa.Field{Name: fmt.Sprintf("d_x_%d", i), Bits: 32, Signed: true})
		k.Params[0].Fields = append(k.Params[0].Fields, f)
		ops = append(ops, pisa.ActionOp{Op: "add", Dst: f, A: pisa.FieldOperand(f), B: pisa.ConstOperand(add)})
	}
	k.Passes = [][]*pisa.Stage{{{VLIW: ops}}}
	return &pisa.Program{Name: "bcast", Kernels: []*pisa.Kernel{k}}
}

// TestBcastWindowsShareBytes: s1 executes every window w0 sends in place
// and broadcasts it to both workers. The two copies are one array, and
// each worker's result window aliases it — nothing on the receive path
// copied it — yet every window reads right, when it arrives and at the
// end, while s1 goes on executing later windows.
func TestBcastWindowsShareBytes(t *testing.T) {
	const w, windows, add = 4, 256, 1000
	n, err := and.Parse("switch s1 id=1\nhost w0 role=0\nhost w1 role=0\nlink w0 s1\nlink w1 s1")
	if err != nil {
		t.Fatal(err)
	}
	fab := netsim.New(n, netsim.Faults{})
	t.Cleanup(fab.Stop)
	sn := netsim.NewSwitchNode("s1", pisa.DefaultTarget())
	if err := sn.Install(addBcastProgram(w, add), 1); err != nil {
		t.Fatal(err)
	}
	sn.SetRoutes(n.NextHops()["s1"])
	cfg := ownershipConfig(w)
	workers := []*Host{
		withHosts(NewHost("w0", 1, 0, cfg, fab, map[string]string{"s1": "s1"}), map[uint32]string{1: "a", 2: "b"}),
		withHosts(NewHost("w1", 2, 0, cfg, fab, nil), map[uint32]string{1: "a", 2: "b"}),
	}
	for _, node := range []netsim.Node{sn, workers[0], workers[1]} {
		if err := fab.Attach(node); err != nil {
			t.Fatal(err)
		}
	}
	if err := fab.Start(); err != nil {
		t.Fatal(err)
	}

	held := make([][]*RecvWindow, len(workers))
	var wg sync.WaitGroup
	for i, h := range workers {
		held[i] = make([]*RecvWindow, windows)
		wg.Add(1)
		go func(h *Host, held []*RecvWindow) {
			defer wg.Done()
			for n := 0; n < windows; n++ {
				rw, err := h.Recv(10 * time.Second)
				if err != nil {
					t.Errorf("%s after %d of %d windows: %v", h.Label(), n, windows, err)
					return
				}
				if seq := rw.Header.WindowSeq; seq >= windows || held[seq] != nil {
					t.Errorf("%s: window %d delivered twice or out of range", h.Label(), seq)
					return
				}
				if err := checkWindow(rw, w, add); err != nil {
					t.Errorf("%s on arrival: %v", h.Label(), err)
					return
				}
				held[rw.Header.WindowSeq] = rw
			}
		}(h, held[i])
	}
	if err := workers[0].Out(Invocation{Kernel: "k", Dest: "s1"}, [][]uint64{windowSource(windows, w)}); err != nil {
		t.Error(err)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for seq := range held[0] {
		a, b := held[0][seq], held[1][seq]
		if &a.Raw[0] != &b.Raw[0] {
			t.Fatalf("window %d: the workers' windows are two arrays, want the broadcast's one", seq)
		}
		if err := checkWindow(a, w, add); err != nil {
			t.Fatalf("after s1 executed %d later windows: %v", windows-1-seq, err)
		}
	}
}

// TestFragmentsOutOfOrderOverUDP: a host keeps each fragment as it arrived
// until its window completes, and concatenates once. Over UDP the parts of
// eight windows arrive last fragment first and interleaved, so every part
// is held while the reader takes in every other datagram.
func TestFragmentsOutOfOrderOverUDP(t *testing.T) {
	const w, windows, frags = 16, 8, 4
	n, err := and.Parse("host a role=0\nhost b role=1\nlink a b")
	if err != nil {
		t.Fatal(err)
	}
	un, err := NewUDPNet(n)
	if err != nil {
		t.Skipf("UDP unavailable: %v", err)
	}
	t.Cleanup(un.Stop)
	cfg := ownershipConfig(w)
	cfg.MTU = 4 * w / frags
	b := withHosts(NewHost("b", 2, 1, cfg, un, nil), map[uint32]string{1: "a", 2: "b"})
	t.Cleanup(b.Close)
	if err := un.Attach(b); err != nil {
		t.Fatal(err)
	}
	if err := un.Attach(nodeFunc{label: "a", fn: func(*netsim.Packet) {}}); err != nil {
		t.Fatal(err)
	}
	if err := un.Start(); err != nil {
		t.Fatal(err)
	}

	// The fragments as a's runtime builds them, sent in sequence order.
	lb := newLoopback(t)
	a := withHosts(NewHost("a", 1, 0, cfg, lb, map[string]string{"b": "b"}), map[uint32]string{1: "a", 2: "b"})
	if err := a.Out(Invocation{Kernel: "k", Dest: "b"}, [][]uint64{windowSource(windows, w)}); err != nil {
		t.Fatal(err)
	}
	if len(lb.sent) != windows*frags {
		t.Fatalf("sent %d packets, want %d fragments", len(lb.sent), windows*frags)
	}
	var tos []string
	var scrambled []*netsim.Packet
	for f := frags - 1; f >= 0; f-- {
		for win := 0; win < windows; win++ {
			tos = append(tos, "b")
			scrambled = append(scrambled, lb.sent[win*frags+f])
		}
	}
	if err := un.SendBatch("a", tos, scrambled); err != nil {
		t.Fatal(err)
	}
	seen := map[uint32]bool{}
	for i := 0; i < windows; i++ {
		rw, err := b.Recv(5 * time.Second)
		if err != nil {
			t.Fatalf("after %d of %d windows: %v", i, windows, err)
		}
		if seen[rw.Header.WindowSeq] {
			t.Fatalf("window %d delivered twice", rw.Header.WindowSeq)
		}
		seen[rw.Header.WindowSeq] = true
		if err := checkWindow(rw, w, 0); err != nil {
			t.Fatal(err)
		}
	}
}
