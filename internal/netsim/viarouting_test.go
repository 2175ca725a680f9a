package netsim

import (
	"testing"

	"ncl/internal/and"
	"ncl/internal/pisa"
)

// Diamond with two switch arms: a - s1 - {s2,s3} - b. The tests steer
// packets through one arm by waypoint, the way placement routes
// host-to-host windows through the physical switch a logical location
// landed on.
func diamondFabric(t *testing.T) (*Fabric, *SwitchNode, *SwitchNode, *sinkNode, *sinkNode) {
	t.Helper()
	n, err := and.Parse(`
switch s1
switch s2
switch s3
host a
host b
link a s1
link s1 s2
link s1 s3
link s2 b
link s3 b
`)
	if err != nil {
		t.Fatal(err)
	}
	fab := New(n, Faults{})
	s1 := NewSwitchNode("s1", pisa.DefaultTarget())
	s3 := NewSwitchNode("s3", pisa.DefaultTarget())
	s2 := &sinkNode{label: "s2"}
	b := &sinkNode{label: "b"}
	for _, nd := range []Node{s1, s3, s2, b, &sinkNode{label: "a"}} {
		if err := fab.Attach(nd); err != nil {
			t.Fatal(err)
		}
	}
	if err := fab.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fab.Stop)
	return fab, s1, s3, s2, b
}

func TestForwardViaWaypoint(t *testing.T) {
	fab, s1, s3, s2, b := diamondFabric(t)
	// "L" is a logical location placed on s3. s1 routes b via either arm
	// but must honor the waypoint; s3 answers for L and clears it.
	s1.SetRouting(&SwitchRouting{
		Next: map[string][]string{"b": {"s2", "s3"}, "L": {"s3"}, "s3": {"s3"}},
	})
	s3.SetRouting(&SwitchRouting{
		Aliases: []string{"L"},
		Next:    map[string][]string{"b": {"b"}},
	})
	pkt := &Packet{Src: "a", Dst: "b", Via: "L", Data: []byte("raw")}
	if err := fab.Send("a", "s1", pkt); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return b.count() == 1 })
	if s2.count() != 0 {
		t.Fatalf("packet leaked through the other arm (s2 saw %d)", s2.count())
	}
	b.mu.Lock()
	got := b.got[0]
	b.mu.Unlock()
	if got.Via != "" {
		t.Fatalf("waypoint not cleared: Via=%q", got.Via)
	}
}

func TestForwardViaStamping(t *testing.T) {
	fab, s1, s3, s2, b := diamondFabric(t)
	// s1's via table steers b-bound traffic through L even when the
	// packet arrives unstamped (the kernel-output path on a placed
	// switch).
	s1.SetRouting(&SwitchRouting{
		Next: map[string][]string{"b": {"s2", "s3"}, "L": {"s3"}},
		Via:  map[string]string{"b": "L"},
	})
	s3.SetRouting(&SwitchRouting{
		Aliases: []string{"L"},
		Next:    map[string][]string{"b": {"b"}},
	})
	if err := fab.Send("a", "s1", &Packet{Src: "a", Dst: "b", Data: []byte("raw")}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return b.count() == 1 })
	if s2.count() != 0 {
		t.Fatalf("via table ignored: s2 saw %d", s2.count())
	}
}

func TestForwardAliasTerminates(t *testing.T) {
	_, s1, _, _, _ := diamondFabric(t)
	s1.SetRouting(&SwitchRouting{
		Aliases: []string{"agg"},
		Next:    map[string][]string{"b": {"s2"}},
	})
	before := s1.Errors.Load()
	// A packet destined to a location placed *here* has nowhere further
	// to go — same contract as a packet destined to the switch itself.
	s1.Receive(nopSender{}, &Packet{Src: "a", Dst: "agg", Data: []byte("raw")}, "a")
	if s1.Errors.Load() != before+1 {
		t.Fatal("alias-destined packet should count an error, not forward")
	}
}

type nopSender struct{}

func (nopSender) SendBatch(string, []string, []*Packet) error { return nil }
func (nopSender) Network() *and.Network                       { return nil }

func TestForwardECMPDeterministicSpread(t *testing.T) {
	fab, s1, _, s2, b := diamondFabric(t)
	s1.SetRouting(&SwitchRouting{
		Next: map[string][]string{"b": {"s2", "s3"}},
	})
	// Same flow always takes the same arm; across many sources both arms
	// are used. Only s2 counts here (s3 forwards on to b, which double
	// counts), so check s2 got some but not all.
	const flows = 32
	for i := 0; i < flows; i++ {
		src := string(rune('a' + i%26))
		if err := fab.Send("a", "s1", &Packet{Src: src, Dst: "b", Data: []byte("raw")}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool {
		return int(fab.Stats("s1", "s2").Packets.Load()+fab.Stats("s1", "s3").Packets.Load()) == flows
	})
	viaS2 := fab.Stats("s1", "s2").Packets.Load()
	viaS3 := fab.Stats("s1", "s3").Packets.Load()
	if viaS2 == 0 || viaS3 == 0 {
		t.Fatalf("ECMP collapsed: s2=%d s3=%d", viaS2, viaS3)
	}
	_ = s2
	_ = b
}
