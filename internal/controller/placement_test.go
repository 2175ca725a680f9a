package controller

import (
	"strings"
	"testing"

	"ncl/internal/and"
	"ncl/internal/netsim"
	"ncl/internal/obs"
	"ncl/internal/pisa"
)

// starOverlay is the AllReduce-shaped logical AND: n workers around one
// aggregation location.
func starOverlay(t *testing.T, workers int) *and.Network {
	t.Helper()
	src := "switch s1 id=1\n"
	for i := 0; i < workers; i++ {
		src += "host h" + itoa(i) + "\nlink h" + itoa(i) + " s1\n"
	}
	n, err := and.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

// The satellite regression: events counted before SetObs must survive
// the registry re-homing instead of vanishing with the private registry.
func TestSetObsCarriesCountsOver(t *testing.T) {
	c, _ := wire(t)
	if err := c.InstallAll(map[string]*pisa.Program{"s1": prog("p1"), "s2": prog("p2")}); err != nil {
		t.Fatal(err)
	}
	if err := c.CtrlWrite("ctr", 0, 7); err != nil {
		t.Fatal(err)
	}
	if err := c.MapInsert("s1", "Idx", 1, 2); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	c.SetObs(reg)
	if got := reg.Counter("controller.program_installs").Load(); got != 2 {
		t.Errorf("installs after SetObs = %d, want 2", got)
	}
	if got := reg.Counter("controller.ctrl_writes").Load(); got != 1 {
		t.Errorf("ctrl_writes after SetObs = %d, want 1", got)
	}
	if got := reg.Counter("controller.map_inserts").Load(); got != 1 {
		t.Errorf("map_inserts after SetObs = %d, want 1", got)
	}
	// Re-homing into the same registry must not double-count.
	c.SetObs(reg)
	if got := reg.Counter("controller.program_installs").Load(); got != 2 {
		t.Errorf("installs after repeated SetObs = %d, want 2", got)
	}
	// Counts keep accumulating in the new home.
	if err := c.CtrlWrite("ctr", 1, 9); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("controller.ctrl_writes").Load(); got != 2 {
		t.Errorf("ctrl_writes after post-SetObs write = %d, want 2", got)
	}
}

func fatTree(t *testing.T, k int) *and.Network {
	t.Helper()
	n, err := and.FatTree(k)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// renamedHosts returns a fat-tree whose first n hosts keep their labels —
// logical overlays must use physical host labels, so tests build overlays
// out of h0..h(n-1).
func TestPlaceMinimizesHopCount(t *testing.T) {
	phys := fatTree(t, 4)
	// Pod-0-local overlay: 4 workers on the first pod's hosts.
	logical, err := and.Parse(`
switch s1 id=1
host h0
host h1
host h2
host h3
link h0 s1
link h1 s1
link h2 s1
link h3 s1
`)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := Place(PlaceOptions{Logical: logical, Physical: phys})
	if err != nil {
		t.Fatal(err)
	}
	got := pl.Assign["s1"]
	// h0,h1 hang off p0e0; h2,h3 off p0e1. Any pod-0 switch gives total
	// cost 8 (edges: 2*1+2*3; aggs: 4*2); cores cost 12. Ties break
	// lexicographically: p0a0 < p0a1 < p0e0 < p0e1.
	if got != "p0a0" {
		t.Errorf("s1 placed at %s, want p0a0", got)
	}
	if pl.CostHops != 8 {
		t.Errorf("cost %d, want 8", pl.CostHops)
	}
	// Determinism under equal costs: repeated runs agree.
	for i := 0; i < 3; i++ {
		pl2, err := Place(PlaceOptions{Logical: logical, Physical: phys})
		if err != nil {
			t.Fatal(err)
		}
		if pl2.Assign["s1"] != got {
			t.Fatalf("non-deterministic placement: %s vs %s", pl2.Assign["s1"], got)
		}
	}
}

func TestPlacePinAndExclude(t *testing.T) {
	phys := fatTree(t, 4)
	logical := starOverlay(t, 4)

	pinned, err := Place(PlaceOptions{Logical: logical, Physical: phys,
		Pin: map[string]string{"s1": "core0"}})
	if err != nil {
		t.Fatal(err)
	}
	if pinned.Assign["s1"] != "core0" {
		t.Errorf("pin ignored: %s", pinned.Assign["s1"])
	}
	if pinned.CostHops != 12 {
		t.Errorf("core-pinned cost %d, want 12", pinned.CostHops)
	}

	// Excluding the whole of pod 0 pushes the location out of the pod.
	excl := map[string]bool{"p0a0": true, "p0a1": true, "p0e0": true, "p0e1": true}
	moved, err := Place(PlaceOptions{Logical: logical, Physical: phys, Exclude: excl})
	if err != nil {
		t.Fatal(err)
	}
	if excl[moved.Assign["s1"]] {
		t.Errorf("placed on excluded switch %s", moved.Assign["s1"])
	}
	if moved.CostHops <= pinned.CostHops-1 && !strings.HasPrefix(moved.Assign["s1"], "core") {
		t.Errorf("unexpected placement %s (cost %d)", moved.Assign["s1"], moved.CostHops)
	}
}

func TestPlaceBudgetFeasibility(t *testing.T) {
	phys := fatTree(t, 4)
	logical := starOverlay(t, 4)
	// A register too large for the tiny budget below.
	big := &pisa.Program{
		Name: "big",
		Registers: []pisa.RegisterDef{
			{Name: "acc", Elems: 1024, Bits: 64, Stage: 0},
		},
		Kernels: []*pisa.Kernel{{
			Name: "k", ID: 1, WindowLen: 1,
			Fields:  []pisa.Field{{Name: pisa.FieldFwd, Bits: 8}},
			WinMeta: map[string]pisa.FieldRef{},
			Passes:  [][]*pisa.Stage{{{}}},
		}},
	}
	tiny := pisa.DefaultTarget()
	tiny.RegBitsPerStage = 1024 // 1024*64 bits will not fit

	// Every switch too small: no feasible placement.
	_, err := Place(PlaceOptions{
		Logical: logical, Physical: phys,
		Programs: map[string]*pisa.Program{"s1": big},
		Budget:   tiny,
	})
	if err == nil || !strings.Contains(err.Error(), "no feasible switch") {
		t.Fatalf("expected infeasibility error, got %v", err)
	}

	// One switch with capacity: the location must land there even though
	// a pod-0 switch would be cheaper.
	budgets := map[string]pisa.TargetConfig{"core3": pisa.DefaultTarget()}
	pl, err := Place(PlaceOptions{
		Logical: logical, Physical: phys,
		Programs: map[string]*pisa.Program{"s1": big},
		Budget:   tiny, Budgets: budgets,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Assign["s1"] != "core3" {
		t.Errorf("budget-constrained placement landed on %s, want core3", pl.Assign["s1"])
	}

	// Pinning onto an infeasible switch is an explicit error.
	_, err = Place(PlaceOptions{
		Logical: logical, Physical: phys,
		Programs: map[string]*pisa.Program{"s1": big},
		Budget:   tiny, Budgets: budgets,
		Pin: map[string]string{"s1": "core0"},
	})
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("expected pin-budget error, got %v", err)
	}
}

func TestPlaceMultiSwitchOverlayInjective(t *testing.T) {
	phys := fatTree(t, 4)
	// Two-rack hierarchical overlay: r1 and r2 aggregate two hosts each,
	// c joins them (the E9 shape).
	logical, err := and.Parse(`
switch r1 id=1
switch r2 id=2
switch c id=3
host h0
host h1
host h4
host h5
link h0 r1
link h1 r1
link h4 r2
link h5 r2
link r1 c
link r2 c
`)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := Place(PlaceOptions{Logical: logical, Physical: phys})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for l, p := range pl.Assign {
		if seen[p] {
			t.Fatalf("two locations share switch %s", p)
		}
		seen[p] = true
		if phys.NodeByLabel(p) == nil || phys.NodeByLabel(p).Kind != and.SwitchNode {
			t.Fatalf("location %s on non-switch %q", l, p)
		}
	}
	// r1 serves h0,h1 (rack p0e0): must land in pod 0's reach; r2 serves
	// h4,h5 (rack p1e0).
	if !strings.HasPrefix(pl.Assign["r1"], "p0") {
		t.Errorf("r1 at %s, want a pod-0 switch", pl.Assign["r1"])
	}
	if !strings.HasPrefix(pl.Assign["r2"], "p1") {
		t.Errorf("r2 at %s, want a pod-1 switch", pl.Assign["r2"])
	}
}

func TestRoutingRealizesOverlay(t *testing.T) {
	phys := fatTree(t, 4)
	logical := starOverlay(t, 4) // h0..h3 around s1
	pl, err := Place(PlaceOptions{Logical: logical, Physical: phys})
	if err != nil {
		t.Fatal(err)
	}
	rt := pl.Routing()
	home := pl.Assign["s1"]

	// The placed switch answers for the alias and broadcasts to the
	// overlay neighbors, not its physical ones.
	sw := rt[home]
	if len(sw.Aliases) != 1 || sw.Aliases[0] != "s1" {
		t.Fatalf("aliases at %s = %v", home, sw.Aliases)
	}
	if len(sw.Bcast) != 4 {
		t.Fatalf("bcast targets = %v, want the 4 workers", sw.Bcast)
	}
	// Hosts route windows destined s1 toward its physical home.
	hn := rt["h0"].Next
	if len(hn["s1"]) == 0 {
		t.Fatal("h0 has no route toward s1")
	}
	// Every physical switch can route the alias.
	for _, ps := range phys.Switches() {
		if ps.Label == home {
			continue
		}
		if len(rt[ps.Label].Next["s1"]) == 0 {
			t.Errorf("switch %s cannot route alias s1", ps.Label)
		}
	}
	// The placed switch itself can reach every worker (bcast exit).
	for _, h := range []string{"h0", "h1", "h2", "h3"} {
		if len(sw.Next[h]) == 0 {
			t.Errorf("placed switch cannot route to %s", h)
		}
	}
}

func TestReplaceAfterFailureConverges(t *testing.T) {
	phys := fatTree(t, 4)
	logical := starOverlay(t, 4)
	opts := PlaceOptions{Logical: logical, Physical: phys,
		Programs: map[string]*pisa.Program{"s1": prog("p1")}}
	c, err := NewPlaced(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, sw := range phys.Switches() {
		if err := c.AttachSwitch(netsim.NewSwitchNode(sw.Label, pisa.DefaultTarget())); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.InstallAll(map[string]*pisa.Program{"s1": prog("p1")}); err != nil {
		t.Fatal(err)
	}
	if err := c.CtrlWrite("ctr", 0, 42); err != nil {
		t.Fatal(err)
	}
	if err := c.MapInsert("s1", "Idx", 5, 55); err != nil {
		t.Fatal(err)
	}
	first := c.Placement().Assign["s1"]

	if err := c.Replace(first); err != nil {
		t.Fatal(err)
	}
	second := c.Placement().Assign["s1"]
	if second == first {
		t.Fatalf("location did not move off failed switch %s", first)
	}
	// The moved location's program, MAT entries, and ctrl state are live
	// on the new switch.
	sn := c.Switch("s1")
	if sn.Label() != second {
		t.Fatalf("Switch(s1) = %s, want %s", sn.Label(), second)
	}
	if v, err := c.ReadRegister("s1", "ctr", 0); err != nil || v != 42 {
		t.Fatalf("ctrl state after replace: %d, %v (want 42)", v, err)
	}
	if v, ok, err := sn.Device().LookupEntry("Idx", 5); err != nil || !ok || v != 55 {
		t.Fatalf("MAT entry after replace: %d, %v, %v (want 55)", v, ok, err)
	}
	// Replacing the same switch again is a no-op; a second distinct
	// failure moves again and still converges.
	if err := c.Replace(first); err != nil {
		t.Fatal(err)
	}
	if err := c.Replace(second); err != nil {
		t.Fatal(err)
	}
	third := c.Placement().Assign["s1"]
	if third == first || third == second {
		t.Fatalf("second failover landed back on a dead switch (%s)", third)
	}
	if v, err := c.ReadRegister("s1", "ctr", 0); err != nil || v != 42 {
		t.Fatalf("ctrl state after second replace: %d, %v", v, err)
	}
	// Routing avoids dead switches everywhere.
	rt := c.Placement().RoutingAvoiding(map[string]bool{first: true, second: true})
	for _, ps := range phys.Switches() {
		label, sw := ps.Label, rt[ps.Label]
		for dst, hops := range sw.Next {
			for _, h := range hops {
				if h == first || h == second {
					t.Fatalf("%s routes %s via dead switch %s", label, dst, h)
				}
			}
		}
	}
}
