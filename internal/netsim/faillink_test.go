package netsim

import (
	"fmt"
	"testing"
	"time"

	"ncl/internal/and"
	"ncl/internal/pisa"
)

// TestFailLinkBlackholesDirect pins the transport behavior: a send
// crossing a failed link returns nil (blackhole, like loss), counts
// Dropped, and delivers nothing; RestoreLink brings the link back.
func TestFailLinkBlackholesDirect(t *testing.T) {
	n := lineNet(t)
	fab := New(n, Faults{})
	a := &sinkNode{label: "a"}
	b := &sinkNode{label: "b"}
	s1 := &sinkNode{label: "s1"}
	for _, nd := range []*sinkNode{a, b, s1} {
		if err := fab.Attach(nd); err != nil {
			t.Fatal(err)
		}
	}
	if err := fab.Start(); err != nil {
		t.Fatal(err)
	}
	defer fab.Stop()

	fab.FailLink("a", "s1")
	if !fab.LinkFailed("a", "s1") || !fab.LinkFailed("s1", "a") {
		t.Fatal("FailLink must mark both directions")
	}
	if fab.LinkFailed("s1", "b") {
		t.Fatal("untouched link reported failed")
	}
	if err := fab.Send("a", "s1", &Packet{Src: "a", Dst: "s1", Data: []byte{1}}); err != nil {
		t.Fatalf("send over failed link must blackhole, not error: %v", err)
	}
	if got := fab.Stats("a", "s1").Dropped.Load(); got != 1 {
		t.Fatalf("failed link Dropped = %d, want 1", got)
	}
	time.Sleep(20 * time.Millisecond)
	if s1.count() != 0 {
		t.Fatal("packet crossed a failed link")
	}

	fab.RestoreLink("a", "s1")
	if fab.LinkFailed("a", "s1") {
		t.Fatal("RestoreLink did not clear the link")
	}
	if err := fab.Send("a", "s1", &Packet{Src: "a", Dst: "s1", Data: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for s1.count() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s1.count() != 1 {
		t.Fatal("restored link did not deliver")
	}
}

// TestFailLinkECMPShift is the satellite regression: on a k=4 fat-tree,
// edge switch p0e0 reaches remote hosts through two equal-cost
// aggregation uplinks (p0a0, p0a1). Failing the p0e0–p0a0 link must
// shift every flow onto the surviving p0a1 uplink with zero loss — the
// forwarders re-hash over live hops via LinkHealth — and restoring the
// link must spread flows across both uplinks again.
func TestFailLinkECMPShift(t *testing.T) {
	fab, _, dst := ecmpFatTree(t)

	const flows = 32
	// inject fires one raw (non-NCP) packet per flow identity into p0e0
	// and waits for all of them at h15. Distinct Src labels give PickHop
	// distinct flow hashes, exercising the ECMP spread.
	inject := func() {
		t.Helper()
		before := dst.count()
		for i := 0; i < flows; i++ {
			pkt := &Packet{Src: fmt.Sprintf("flow%d", i), Dst: "h15", Data: []byte{0xff, byte(i)}}
			if err := fab.Send("h0", "p0e0", pkt); err != nil {
				t.Fatal(err)
			}
		}
		deadline := time.Now().Add(5 * time.Second)
		for dst.count() < before+flows && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := dst.count() - before; got != flows {
			t.Fatalf("delivered %d/%d flows", got, flows)
		}
	}
	viaA0 := fab.Stats("p0e0", "p0a0")
	viaA1 := fab.Stats("p0e0", "p0a1")

	inject()
	a0Healthy, a1Healthy := viaA0.Packets.Load(), viaA1.Packets.Load()
	if a0Healthy == 0 || a1Healthy == 0 {
		t.Fatalf("healthy ECMP did not spread: p0a0=%d p0a1=%d", a0Healthy, a1Healthy)
	}

	fab.FailLink("p0e0", "p0a0")
	inject()
	if got := viaA0.Packets.Load(); got != a0Healthy {
		t.Fatalf("failed uplink carried %d new packets", got-a0Healthy)
	}
	if got := viaA1.Packets.Load(); got != a1Healthy+flows {
		t.Fatalf("surviving uplink carried %d/%d shifted flows", got-a1Healthy, flows)
	}

	fab.RestoreLink("p0e0", "p0a0")
	inject()
	if got := viaA0.Packets.Load(); got == a0Healthy {
		t.Fatal("restored uplink carries no traffic")
	}
}

// ecmpFatTree starts a k=4 fat-tree of switch nodes with one live host,
// h15; every other host is a null endpoint. Edge switch p0e0 (returned)
// has the pass kernel installed and two equal-cost uplinks toward h15.
func ecmpFatTree(t *testing.T) (*Fabric, *SwitchNode, *sinkNode) {
	t.Helper()
	net, err := and.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	fab := New(net, Faults{})
	all := net.NextHopsAll()
	if hops := all["p0e0"]["h15"]; len(hops) != 2 {
		t.Fatalf("p0e0 has %d equal-cost hops toward h15, want 2 (%v)", len(hops), hops)
	}
	var edge *SwitchNode
	for _, sw := range net.Switches() {
		sn := NewSwitchNode(sw.Label, pisa.DefaultTarget())
		sn.SetRouting(&Routes{Next: all[sw.Label]})
		if sw.Label == "p0e0" {
			edge = sn
			if err := sn.Install(passProgram(), 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := fab.Attach(sn); err != nil {
			t.Fatal(err)
		}
	}
	dst := &sinkNode{label: "h15"}
	if err := fab.Attach(dst); err != nil {
		t.Fatal(err)
	}
	for _, hn := range net.Hosts() {
		if hn.Label == "h15" {
			continue
		}
		if err := fab.Attach(NewNullNode(hn.Label)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fab.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fab.Stop)
	return fab, edge, dst
}

// TestFailLinkECMPRepairInsideBurst: windows a kernel passes leave the
// switch through the burst's output collector, which must carry the
// transport's LinkHealth — or every flow of a segment whose hash picks
// the failed uplink is blackholed there instead of re-hashed.
func TestFailLinkECMPRepairInsideBurst(t *testing.T) {
	fab, edge, dst := ecmpFatTree(t)
	fab.FailLink("p0e0", "p0a0")
	const flows = 32
	burst := make([]Delivery, flows)
	for i := range burst {
		pkt := &Packet{Src: fmt.Sprintf("flow%d", i), Dst: "h15", Data: ncpPacket(t, 1, uint64(i), 0)}
		burst[i] = Delivery{Pkt: pkt, From: "h0"}
	}
	edge.ReceiveBurst(fab, burst)
	if got := edge.KernelWindows.Load(); got != flows {
		t.Fatalf("executed %d/%d windows", got, flows)
	}
	waitFor(t, func() bool { return dst.count() == flows })
	if got := fab.Stats("p0e0", "p0a0").Dropped.Load(); got != 0 {
		t.Fatalf("%d windows blackholed on the failed uplink", got)
	}
	if got := fab.Stats("p0e0", "p0a1").Packets.Load(); got != flows {
		t.Fatalf("surviving uplink carried %d/%d windows", got, flows)
	}
}
