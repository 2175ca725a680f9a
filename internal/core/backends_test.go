package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"ncl/internal/and"
	"ncl/internal/controller"
	"ncl/internal/netsim"
	"ncl/internal/runtime"
)

// TestDeployBackendsDifferential holds the transport seam lossless: the
// same seeded allreduce, placed by the engine on a k=4 fat-tree with every
// worker addressing a peer — so every window reaches the aggregation
// switch only by its Via waypoint — runs once over the in-memory fabric
// and once over loopback UDP, through the one deploy function. Both must
// deliver the same windows to every host and leave the same registers on
// every switch. A transport that loses any field a node acts on fails it:
// without Via the windows go straight to the peer and nothing aggregates.
func TestDeployBackendsDifferential(t *testing.T) {
	const (
		W       = 8
		dataLen = 64
		windows = dataLen / W
		seed    = 18
	)
	workers := []string{"h0", "h5", "h10", "h15"} // one per pod
	fat, err := and.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	art, err := Build(lossyAllreduceNCL, starOverlaySrc(workers),
		BuildOptions{WindowLen: W, SendWorkers: 1, ModuleName: "backends"})
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		delivered map[string][]string // host -> sorted (kernel, wid, seq, payload)
		registers map[string][]uint64 // switch/register -> values
		executed  map[string]uint64   // switch -> kernel windows
	}
	run := func(t *testing.T, tr transport) outcome {
		ctrl, err := controller.NewPlaced(controller.PlaceOptions{
			Logical: art.Net, Physical: fat, Programs: art.Programs, Budget: art.Target,
		})
		if err != nil {
			t.Fatal(err)
		}
		dep, err := art.deploy(tr, wiring{ctrl: ctrl, cfg: art.AppConfig(), programs: art.Programs, budget: art.Target})
		if err != nil {
			t.Fatal(err)
		}
		defer dep.Stop()
		if err := ctrl.CtrlWrite("nworkers", 0, uint64(len(workers))); err != nil {
			t.Fatal(err)
		}
		rt := ctrl.Placement().Routing()
		rng := rand.New(rand.NewSource(seed))
		for w, label := range workers {
			peer := workers[(w+1)%len(workers)]
			if rt[label].Via[peer] == "" {
				t.Fatalf("%s -> %s carries no waypoint; the workload would not exercise Via", label, peer)
			}
			grad := make([]uint64, dataLen)
			for i := range grad {
				grad[i] = uint64(rng.Int31n(1 << 20))
			}
			if err := dep.Hosts[label].Out(runtime.Invocation{Kernel: "allreduce", Dest: peer}, [][]uint64{grad}); err != nil {
				t.Fatal(err)
			}
		}
		out := outcome{
			delivered: map[string][]string{},
			registers: map[string][]uint64{},
			executed:  map[string]uint64{},
		}
		for _, label := range workers {
			for n := 0; n < windows; n++ {
				rw, err := dep.Hosts[label].Recv(10 * time.Second)
				if err != nil {
					t.Fatalf("%s: window %d of %d: %v", label, n, windows, err)
				}
				out.delivered[label] = append(out.delivered[label],
					fmt.Sprintf("k%d wid%d seq%d %x", rw.Header.KernelID, rw.Header.Wid, rw.Header.WindowSeq, rw.Raw))
			}
			sort.Strings(out.delivered[label])
		}
		for label, sn := range dep.Switches {
			out.executed[label] = sn.KernelWindows.Load()
			prog := sn.Device().Program()
			if prog == nil {
				continue
			}
			for _, reg := range prog.Registers {
				vals := make([]uint64, reg.Elems)
				for i := range vals {
					if vals[i], err = sn.Device().ReadRegister(reg.Name, i); err != nil {
						t.Fatal(err)
					}
				}
				out.registers[label+"/"+reg.Name] = vals
			}
		}
		home := ctrl.Placement().Assign["s1"]
		if n := out.executed[home]; n != uint64(len(workers)*windows) {
			t.Errorf("placed switch %s executed %d windows, want the %d sent", home, n, len(workers)*windows)
		}
		return out
	}

	un, err := runtime.NewUDPNet(fat)
	if err != nil {
		t.Skipf("UDP sockets unavailable in this environment: %v", err)
	}
	overUDP := run(t, un)
	overFabric := run(t, art.fabric(fat, netsim.Faults{}))
	if !reflect.DeepEqual(overFabric.delivered, overUDP.delivered) {
		t.Errorf("delivered windows differ:\nfabric %v\nudp    %v", overFabric.delivered, overUDP.delivered)
	}
	if !reflect.DeepEqual(overFabric.registers, overUDP.registers) {
		t.Errorf("final switch registers differ:\nfabric %v\nudp    %v", overFabric.registers, overUDP.registers)
	}
	if !reflect.DeepEqual(overFabric.executed, overUDP.executed) {
		t.Errorf("windows executed per switch differ:\nfabric %v\nudp    %v", overFabric.executed, overUDP.executed)
	}
}
