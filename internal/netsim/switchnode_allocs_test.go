package netsim

import (
	"fmt"
	"testing"

	"ncl/internal/and"
	"ncl/internal/ncp"
	"ncl/internal/pisa"
)

// nullSender satisfies Sender without touching the fabric: SendBatch discards
// (no channel ops, no allocations attributable to delivery), so an
// allocs run measures only the switch node's own data path.
type nullSender struct{ net *and.Network }

func (n *nullSender) SendBatch(string, []string, []*Packet) error { return nil }
func (n *nullSender) Network() *and.Network                       { return n.net }

// fwdProgram is a kernel over w int32 elements whose forwarding decision
// is its first element: 0 pass, 1 drop, 2 reflect, 3 bcast.
func fwdProgram(w int) *pisa.Program {
	k := &pisa.Kernel{
		Name: "fwd", ID: 1, WindowLen: w,
		Fields:  []pisa.Field{{Name: pisa.FieldFwd, Bits: 8}},
		Params:  []pisa.ParamLayout{{Name: "x", Elems: w, Bits: 32, Signed: true}},
		WinMeta: map[string]pisa.FieldRef{},
		Passes:  [][]*pisa.Stage{{{VLIW: []pisa.ActionOp{{Op: "mov", Dst: 0, A: pisa.FieldOperand(1)}}}}},
	}
	for i := 0; i < w; i++ {
		k.Params[0].Fields = append(k.Params[0].Fields, pisa.FieldRef(len(k.Fields)))
		k.Fields = append(k.Fields, pisa.Field{Name: fmt.Sprintf("d_x_%d", i), Bits: 32, Signed: true})
	}
	return &pisa.Program{Name: "fwd", Kernels: []*pisa.Kernel{k}}
}

// TestSwitchProcessAllocsUntraced: the whole untraced Receive pipeline —
// decode, exec on the payload bytes, in-place edit, forward — allocates
// nothing; depth probing and exec timing run only for traced windows. An
// untraced window leaves in the Packet it arrived in, so a pass costs 0.
// A broadcast copy beyond the first is another Packet over the same bytes:
// a packet the switch consumed earlier when there is one, so a drop
// followed by a broadcast to two neighbors costs 0, and a new one
// otherwise. A burst of exactly-once windows the kernel consumes costs
// nothing either: its range ack is built in a consumed packet, and the
// ack's repeat is another packet over the same bytes. A window too short
// to hold the range ack (40 bytes against 44) leaves the ack one new
// Packet with its bytes inline.
func TestSwitchProcessAllocsUntraced(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race; allocation counts are meaningless")
	}
	star, err := and.Parse("switch s1 id=1\nhost a role=0\nhost b role=1\nhost c role=1\nlink a s1\nlink s1 b\nlink s1 c")
	if err != nil {
		t.Fatal(err)
	}
	pair, err := and.Parse("switch s1 id=1\nhost a role=0\nhost b role=1\nlink a s1\nlink s1 b")
	if err != nil {
		t.Fatal(err)
	}
	xonce := uint8(ncp.FlagAckRequest | ncp.FlagExactlyOnce)
	for _, tc := range []struct {
		name   string
		net    *and.Network
		prog   *pisa.Program
		elems  int // int32 elements per window
		flags  uint8
		vals   []uint64 // window i of a call carries vals[i % len(vals)]
		burst  int      // windows 0..burst-1 of one invocation, one receive call
		budget float64  // per call
	}{
		{"pass", star, passProgram(), 1, 0, []uint64{41}, 1, 0},
		{"bcast", star, bcastProgram(), 1, 0, []uint64{41}, 1, 2},
		{"drop-then-bcast", pair, fwdProgram(8), 8, 0, []uint64{1, 3}, 2, 0},
		{"xonce-range-ack", star, fwdProgram(8), 8, xonce, []uint64{1}, 16, 0},
		{"xonce-range-ack-short-windows", star, dropProgram(), 1, xonce, []uint64{41}, 16, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := tc.net
			sn := NewSwitchNode("s1", pisa.DefaultTarget())
			if err := sn.Install(tc.prog, 1); err != nil {
				t.Fatal(err)
			}
			sn.SetRouting(SinglePath(net.NextHops()["s1"], map[uint32]string{1: "a", 2: "b"}))
			fab := New(net, Faults{})
			sn.SetDepthSource(func() int { return fab.InboxDepth("s1") })
			sender := &nullSender{net: net}

			data, bufs := make([][]byte, tc.burst), make([][]byte, tc.burst)
			pkts := make([]Packet, tc.burst)
			burst := make([]Delivery, tc.burst)
			for i := range data {
				data[i] = ncpWindow(t, 1, tc.elems, tc.vals[i%len(tc.vals)], tc.flags, uint32(i))
				bufs[i] = make([]byte, len(data[i]))
				burst[i] = Delivery{Pkt: &pkts[i], From: "a"}
			}
			receive := func() {
				// Fresh deliveries each time, in the same storage: the switch
				// rewrites the structs it forwards and the bytes it executes.
				for i := range pkts {
					pkts[i] = Packet{Src: "a", Dst: "b", Data: bufs[i][:copy(bufs[i], data[i])]}
				}
				if tc.burst == 1 {
					sn.Receive(sender, &pkts[0], "a")
				} else {
					sn.ReceiveBurst(sender, burst)
				}
			}
			for i := 0; i < 8; i++ { // warm the working set, the neighbor list and the shadow state
				receive()
			}
			if avg := testing.AllocsPerRun(500, receive); avg != tc.budget {
				t.Fatalf("untraced Receive (%s): %.2f allocs per call of %d windows, want %.0f", tc.name, avg, tc.burst, tc.budget)
			}
			if n := sn.Errors.Load(); n != 0 {
				t.Fatalf("%d errors", n)
			}
			if tc.flags != 0 && (sn.AcksSent.Load() != 8+501 || sn.AcksRepeated.Load() != 8+501) {
				t.Fatalf("acks_sent = %d, acks_repeated = %d after %d bursts, want one range ack per burst, sent twice",
					sn.AcksSent.Load(), sn.AcksRepeated.Load(), 8+501)
			}
		})
	}
}

// TestSwitchProcessTracedStampsINT drives a traced window through the
// same direct path and checks the exec hop record the switch appends:
// kernel id, a queue-depth sample from the wired source, and a measured
// (wall-clock, no virtual time on a direct call) latency.
func TestSwitchProcessTracedStampsINT(t *testing.T) {
	net, err := and.Parse("switch s1 id=1\nhost a role=0\nhost b role=1\nlink a s1\nlink s1 b")
	if err != nil {
		t.Fatal(err)
	}
	sn := NewSwitchNode("s1", pisa.DefaultTarget())
	if err := sn.Install(passProgram(), 1); err != nil {
		t.Fatal(err)
	}
	sn.SetRouting(SinglePath(net.NextHops()["s1"], map[uint32]string{1: "a", 2: "b"}))
	sn.SetDepthSource(func() int { return 7 })

	var got *Packet
	sender := &captureSender{net: net, out: func(p *Packet) { got = p }}
	pkt := &Packet{Src: "a", Dst: "b", Data: ncpPacket(t, 1, 41, ncp.FlagTrace)}
	sn.Receive(sender, pkt, "a")
	if got == nil {
		t.Fatal("traced window was not forwarded")
	}
	_, _, hops, _, err := ncp.DecodeFull(got.Data)
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != 1 {
		t.Fatalf("hops = %+v, want the one exec record", hops)
	}
	h := hops[0]
	if h.Kind != ncp.HopSwitch || h.Event != ncp.EventExec {
		t.Fatalf("hop = %+v, want switch exec", h)
	}
	if h.KernelID != 1 {
		t.Errorf("kernel id = %d, want 1", h.KernelID)
	}
	if h.QueueDepth != 7 {
		t.Errorf("queue depth = %d, want wired source's 7", h.QueueDepth)
	}
	// No virtual time on a direct call, so the latency is the measured
	// exec wall time — and the histogram saw the same observation.
	if sn.execNs.Count() != 1 {
		t.Errorf("exec_ns observations = %d, want 1", sn.execNs.Count())
	}
}

// captureSender hands forwarded packets to a callback.
type captureSender struct {
	net *and.Network
	out func(*Packet)
}

func (c *captureSender) SendBatch(_ string, _ []string, pkts []*Packet) error {
	for _, pkt := range pkts {
		c.out(pkt)
	}
	return nil
}
func (c *captureSender) Network() *and.Network { return c.net }
