package core

import (
	"testing"

	"ncl/internal/and"
	"ncl/internal/netsim"
)

// TestDeployIdentityPlacement pins what Deploy runs on: the identity
// placement, whose physical network is the overlay and which keeps every
// location on its own switch. Its routing is the placement's, so a worker
// stamps its first-hop switch as the waypoint toward every other node
// behind it. The hierarchical case is the overlay examples/hierarchical
// deploys.
func TestDeployIdentityPlacement(t *testing.T) {
	cases := []struct {
		name, src, overlay string
		worker, firstHop   string
	}{
		{"star", lossyAllreduceNCL, starOverlaySrc([]string{"w0", "w1", "w2"}), "w0", "s1"},
		{"hierarchical", hierNCL, hierAND, "w2", "r2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			art, err := Build(tc.src, tc.overlay, BuildOptions{WindowLen: 8, ModuleName: "ident"})
			if err != nil {
				t.Fatal(err)
			}
			dep, err := art.Deploy(netsim.Faults{})
			if err != nil {
				t.Fatal(err)
			}
			defer dep.Stop()

			pl := dep.Controller.Placement()
			if pl == nil {
				t.Fatal("Deploy's controller has no placement")
			}
			switches := art.Net.Switches()
			if len(pl.Assign) != len(switches) {
				t.Errorf("assignment has %d locations, overlay %d switches", len(pl.Assign), len(switches))
			}
			for _, s := range switches {
				if got := pl.Assign[s.Label]; got != s.Label {
					t.Errorf("Assign[%s] = %q, want itself", s.Label, got)
				}
			}
			if pl.CostHops != len(art.Net.Links) {
				t.Errorf("CostHops = %d, want the overlay's %d links", pl.CostHops, len(art.Net.Links))
			}

			rt := dep.Controller.Placement().Routing()
			for _, n := range art.Net.Nodes {
				if n.Label == tc.worker || n.Label == tc.firstHop {
					continue
				}
				if got := rt[tc.worker].Via[n.Label]; got != tc.firstHop {
					t.Errorf("%s's waypoint toward %s = %q, want its first-hop switch %s",
						tc.worker, n.Label, got, tc.firstHop)
				}
			}
		})
	}
}

// TestFailSwitchWithoutSpareCommitsNothing fails the switch holding s1
// when no other switch may take it — a placement with every other switch
// excluded, and the identity star, which has no other switch. Both
// FailSwitch calls must fail and leave s1 where it was: a re-placement
// that failed once must not be reported as done on the retry.
func TestFailSwitchWithoutSpareCommitsNothing(t *testing.T) {
	workers := []string{"h0", "h1", "h8", "h9"}
	art, err := Build(lossyAllreduceNCL, starOverlaySrc(workers),
		BuildOptions{WindowLen: 8, ModuleName: "nospare"})
	if err != nil {
		t.Fatal(err)
	}
	fat, err := and.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	onlyCore0 := map[string]bool{}
	for _, s := range fat.Switches() {
		if s.Label != "core0" {
			onlyCore0[s.Label] = true
		}
	}
	deploys := []struct {
		name   string
		deploy func() (*Deployment, error)
		home   string
	}{
		{"placed", func() (*Deployment, error) {
			return art.DeployOn(fat, PlacedOptions{Exclude: onlyCore0})
		}, "core0"},
		{"identity", func() (*Deployment, error) { return art.Deploy(netsim.Faults{}) }, "s1"},
	}
	for _, d := range deploys {
		t.Run(d.name, func(t *testing.T) {
			dep, err := d.deploy()
			if err != nil {
				t.Fatal(err)
			}
			defer dep.Stop()
			if got := dep.Controller.Placement().Assign["s1"]; got != d.home {
				t.Fatalf("s1 placed on %s, want %s", got, d.home)
			}
			for call := 1; call <= 2; call++ {
				if err := dep.FailSwitch(d.home); err == nil {
					t.Errorf("FailSwitch(%s) call %d succeeded with no switch to move s1 to", d.home, call)
				}
				if got := dep.Controller.Placement().Assign["s1"]; got != d.home {
					t.Errorf("after call %d s1 is on %s, want %s", call, got, d.home)
				}
			}
		})
	}
}
