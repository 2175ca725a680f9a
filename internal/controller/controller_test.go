package controller

import (
	"strings"
	"testing"

	"ncl/internal/and"
	"ncl/internal/netsim"
	"ncl/internal/pisa"
)

func testNet(t *testing.T) *and.Network {
	t.Helper()
	n, err := and.Parse(`
switch s1 id=1
switch s2 id=2
host a role=0
host b role=1
link a s1
link s1 s2
link s2 b
`)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// prog builds a minimal loadable program with one register and one table.
func prog(name string) *pisa.Program {
	return &pisa.Program{
		Name: name,
		Registers: []pisa.RegisterDef{
			{Name: "ctr", Elems: 8, Bits: 32, Stage: 0, Ctrl: true},
		},
		Tables: []string{"Idx"},
		Kernels: []*pisa.Kernel{{
			Name: "k", ID: 1, WindowLen: 1,
			Fields:  []pisa.Field{{Name: pisa.FieldFwd, Bits: 8}},
			WinMeta: map[string]pisa.FieldRef{},
			Passes:  [][]*pisa.Stage{{{}}},
		}},
	}
}

func wire(t *testing.T) (*Controller, map[string]*netsim.SwitchNode) {
	t.Helper()
	net := testNet(t)
	c := New(net)
	sns := map[string]*netsim.SwitchNode{}
	for _, sw := range net.Switches() {
		sn := netsim.NewSwitchNode(sw.Label, pisa.DefaultTarget())
		if err := c.AttachSwitch(sn); err != nil {
			t.Fatal(err)
		}
		sns[sw.Label] = sn
	}
	return c, sns
}

func TestInstallAllAndRouting(t *testing.T) {
	c, sns := wire(t)
	programs := map[string]*pisa.Program{"s1": prog("p1"), "s2": prog("p2")}
	if err := c.InstallAll(programs); err != nil {
		t.Fatal(err)
	}
	if sns["s1"].Device().Program().Name != "p1" {
		t.Error("s1 got the wrong program")
	}
	// Routing: s1's next hop toward b is s2.
	rt := c.Placement().Routing()
	if hops := rt["a"].Next["b"]; len(hops) != 1 || hops[0] != "s1" {
		t.Errorf("a->b first hop = %v", hops)
	}
}

func TestInstallAllMissingProgram(t *testing.T) {
	c, _ := wire(t)
	err := c.InstallAll(map[string]*pisa.Program{"s1": prog("p1")})
	if err == nil || !strings.Contains(err.Error(), "no program for switch s2") {
		t.Fatalf("missing program must fail: %v", err)
	}
}

func TestCtrlWriteReachesAllHolders(t *testing.T) {
	c, sns := wire(t)
	if err := c.InstallAll(map[string]*pisa.Program{"s1": prog("p1"), "s2": prog("p2")}); err != nil {
		t.Fatal(err)
	}
	if err := c.CtrlWrite("ctr", 3, 42); err != nil {
		t.Fatal(err)
	}
	for loc, sn := range sns {
		v, err := sn.Device().ReadRegister("ctr", 3)
		if err != nil || v != 42 {
			t.Errorf("%s: ctr[3] = %d (%v)", loc, v, err)
		}
	}
	if err := c.CtrlWrite("ghost", 0, 1); err == nil {
		t.Error("unknown register must fail")
	}
}

func TestMapOps(t *testing.T) {
	c, _ := wire(t)
	if err := c.InstallAll(map[string]*pisa.Program{"s1": prog("p1"), "s2": prog("p2")}); err != nil {
		t.Fatal(err)
	}
	if err := c.MapInsert("s1", "Idx", 7, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.MapDelete("s1", "Idx", 7); err != nil {
		t.Fatal(err)
	}
	if err := c.MapInsert("nowhere", "Idx", 1, 1); err == nil {
		t.Error("unknown switch must fail")
	}
	if err := c.MapInsert("s1", "ghost", 1, 1); err == nil {
		t.Error("unknown table must fail")
	}
}

func TestAttachRejectsNonSwitch(t *testing.T) {
	net := testNet(t)
	c := New(net)
	if err := c.AttachSwitch(netsim.NewSwitchNode("a", pisa.DefaultTarget())); err == nil {
		t.Error("attaching a host label as a switch must fail")
	}
	if err := c.AttachSwitch(netsim.NewSwitchNode("ghost", pisa.DefaultTarget())); err == nil {
		t.Error("attaching an unknown label must fail")
	}
}

func TestReadRegisterErrors(t *testing.T) {
	c, _ := wire(t)
	if _, err := c.ReadRegister("nowhere", "ctr", 0); err == nil {
		t.Error("unknown switch read must fail")
	}
}
