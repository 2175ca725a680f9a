package netsim

import (
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

// TestSwitchProcessAllocsUntraced: the whole untraced Receive pipeline —
// decode, exec on the payload bytes, in-place edit, forward — allocates
// nothing; depth probing and exec timing run only for traced windows. An
// untraced window leaves in the Packet it arrived in, so a pass costs 0
// and a broadcast exactly one Packet per neighbor beyond the first (the
// copies share the bytes).
func TestSwitchProcessAllocsUntraced(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race; allocation counts are meaningless")
	}
	net, err := and.Parse("switch s1 id=1\nhost a role=0\nhost b role=1\nhost c role=1\nlink a s1\nlink s1 b\nlink s1 c")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		prog   *pisa.Program
		budget float64
	}{{"pass", passProgram(), 0}, {"bcast", bcastProgram(), 2}} {
		t.Run(tc.name, func(t *testing.T) {
			sn := NewSwitchNode("s1", pisa.DefaultTarget())
			if err := sn.Install(tc.prog, 1); err != nil {
				t.Fatal(err)
			}
			sn.SetRoutes(net.NextHops()["s1"])
			sn.SetHosts(map[uint32]string{1: "a", 2: "b"})
			fab := New(net, Faults{})
			sn.SetDepthSource(func() int { return fab.InboxDepth("s1") })
			sender := &nullSender{net: net}

			data := ncpPacket(t, 1, 41, 0)
			pkt := new(Packet)
			receive := func() {
				// A fresh delivery each time, in the same storage: the switch
				// rewrites the struct it forwards.
				*pkt = Packet{Src: "a", Dst: "b", Data: data}
				sn.Receive(sender, pkt, "a")
			}
			for i := 0; i < 8; i++ { // warm the working set and the neighbor list
				receive()
			}
			if avg := testing.AllocsPerRun(500, receive); avg != tc.budget {
				t.Fatalf("untraced Receive (%s): %.2f allocs/window, want %.0f", tc.name, avg, tc.budget)
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
	sn.SetRoutes(net.NextHops()["s1"])
	sn.SetHosts(map[uint32]string{1: "a", 2: "b"})
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
