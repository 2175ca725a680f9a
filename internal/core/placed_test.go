package core

import (
	"fmt"
	"os"
	gort "runtime"
	"sync"
	"testing"
	"time"

	"ncl/internal/and"
	"ncl/internal/netsim"
	"ncl/internal/runtime"
)

// starOverlaySrc builds a one-switch aggregation overlay whose worker
// host labels name hosts of a physical fat-tree.
func starOverlaySrc(workers []string) string {
	src := "switch s1 id=1\n"
	for _, w := range workers {
		src += fmt.Sprintf("host %s role=0\nlink %s s1\n", w, w)
	}
	return src
}

// TestDeployOnFatTreeReliableAllReduce is the scale-out acceptance test:
// the Fig. 4 aggregation overlay placed by the engine onto a k=8 fat-tree
// (128 hosts, 80 switches), with workers spread across four pods, running
// reliable exactly-once allreduce over a lossy fabric. The overlay's s1
// has no physical counterpart — everything rides on placement.
func TestDeployOnFatTreeReliableAllReduce(t *testing.T) {
	const (
		W       = 8
		dataLen = 64
		windows = dataLen / W
	)
	workers := []string{"h0", "h1", "h16", "h17", "h32", "h33", "h48", "h49"}

	fat, err := and.FatTree(8)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(fat.Hosts()); n != 128 {
		t.Fatalf("FatTree(8) has %d hosts, want 128", n)
	}
	art, err := Build(lossyAllreduceNCL, starOverlaySrc(workers),
		BuildOptions{WindowLen: W, ModuleName: "fatar"})
	if err != nil {
		t.Fatal(err)
	}
	dep, err := art.DeployOn(fat, PlacedOptions{
		Faults: netsim.Faults{DropProb: 0.08, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Stop()

	phys := dep.Controller.Placement().Assign["s1"]
	if fat.NodeByLabel(phys) == nil {
		t.Fatalf("s1 placed on %q, which is not a fat-tree switch", phys)
	}
	if err := dep.Controller.CtrlWrite("nworkers", 0, uint64(len(workers))); err != nil {
		t.Fatal(err)
	}

	opts := runtime.ReliableOptions{Timeout: 10 * time.Millisecond, Retries: 20, Window: 16}
	expected := make([]int64, dataLen)
	var wg sync.WaitGroup
	errs := make([]error, len(workers))
	for w := range workers {
		grad := make([]uint64, dataLen)
		for i := range grad {
			v := int64((w + 1) * (i%9 + 1))
			grad[i] = uint64(v)
			expected[i] += v
		}
		wg.Add(1)
		go func(w int, grad []uint64) {
			defer wg.Done()
			errs[w] = dep.Hosts[workers[w]].OutReliable(
				runtime.Invocation{Kernel: "allreduce", Dest: "s1"}, [][]uint64{grad}, opts)
		}(w, grad)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %s: %v", workers[w], err)
		}
	}

	// Every OutReliable returned, so every contribution is switch-acked:
	// the placed switch's registers are the ground truth.
	for i := 0; i < dataLen; i++ {
		v, err := dep.Controller.ReadRegister("s1", fmt.Sprintf("accum$%d", i%W), i/W)
		if err != nil {
			t.Fatal(err)
		}
		if int64(int32(v)) != expected[i] {
			t.Fatalf("accum[%d] = %d, want %d", i, int64(int32(v)), expected[i])
		}
	}
	// Aggregation happened on the assigned physical switch, nowhere else.
	if n := dep.Switches[phys].KernelWindows.Load(); n < uint64(len(workers)*windows) {
		t.Errorf("placed switch %s executed %d windows, want >= %d", phys, n, len(workers)*windows)
	}
	for label, sn := range dep.Switches {
		if label != phys && sn.KernelWindows.Load() != 0 {
			t.Errorf("switch %s executed %d windows; only %s holds the kernel", label, sn.KernelWindows.Load(), phys)
		}
	}
}

// TestDeployOnFatTreeKVS runs the Fig. 5 cache on a k=4 fat-tree: the
// overlay's client-s1-server chain placed by the engine, with a cache-hit
// reflected by the placed switch and a miss crossing to the server. The
// traced variant is the waypoint regression: every window is sampled, so
// every transit switch re-serializes it to append its forward hop — and
// must hand the rebuilt packet its Via, or the window is routed around
// the placed switch and its kernel never runs.
func TestDeployOnFatTreeKVS(t *testing.T) {
	t.Run("untraced", func(t *testing.T) { deployOnFatTreeKVS(t, false) })
	t.Run("traced", func(t *testing.T) { deployOnFatTreeKVS(t, true) })
}

func deployOnFatTreeKVS(t *testing.T, traced bool) {
	const (
		cap      = 4
		valBytes = 8
	)
	const kvsSrc = `
#define SERVER 1
#define CAP 4
#define VAL 8

_net_ _at_("s1") ncl::Map<uint64_t, uint8_t, CAP> Idx;
_net_ _at_("s1") char Cache[CAP][VAL] = {{0}};
_net_ _at_("s1") bool Valid[CAP] = {false};

_net_ _out_ void query(uint64_t key, char *val, bool update) {
    if (window.from != SERVER && update) {
        if (auto *idx = Idx[key]) Valid[*idx] = false;
    } else if (window.from != SERVER) {
        if (auto *idx = Idx[key]) {
            if (Valid[*idx]) {
                memcpy(val, Cache[*idx], VAL); _reflect(); } }
    } else if (update) {
        auto *idx = Idx[key]; memcpy(Cache[*idx], val, VAL);
        Valid[*idx] = true; _drop();
    } else { }
}

_net_ _in_ void reply(uint64_t key, char *val, bool update, _ext_ uint64_t *rkey, _ext_ char *rval) {
    *rkey = key;
    for (unsigned i = 0; i < window.len; ++i) rval[i] = val[i];
}
`
	const overlay = `
switch s1 id=1
host h0 role=0
host h15 role=1
link h0 s1
link s1 h15
`
	fat, err := and.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	art, err := Build(kvsSrc, overlay, BuildOptions{WindowLen: valBytes, ModuleName: "fatkvs"})
	if err != nil {
		t.Fatal(err)
	}
	dep, err := art.DeployOn(fat, PlacedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Stop()
	if traced {
		dep.EnableTelemetry(1)
	}

	client := dep.Hosts["h0"]
	server := dep.Hosts["h15"]

	// Warm key 1: Idx entry via the control plane, value via the server's
	// update path through the placed switch.
	if err := dep.Controller.MapInsert("s1", "Idx", 1, 0); err != nil {
		t.Fatal(err)
	}
	value := make([]uint64, valBytes)
	for i := range value {
		value[i] = uint64(10 + i)
	}
	if err := server.OutWindow(runtime.Invocation{Kernel: "query", Dest: "h0"},
		server.NewWid(), 0, [][]uint64{{1}, value, {1}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		v, err := dep.Controller.ReadRegister("s1", "Valid", 0)
		if err == nil && v == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cache warmup did not land on the placed switch")
		}
		time.Sleep(time.Millisecond)
	}

	// GET on the warm key: the placed switch reflects it back to h0.
	rkey := make([]uint64, 1)
	rval := make([]uint64, valBytes)
	if err := client.OutWindow(runtime.Invocation{Kernel: "query", Dest: "h15"},
		client.NewWid(), 0, [][]uint64{{1}, make([]uint64, valBytes), {0}}); err != nil {
		t.Fatal(err)
	}
	rw, err := client.In("reply", [][]uint64{rkey, rval}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rw.Header.Flags&0x1 == 0 {
		t.Error("warm-key GET was not reflected by the placed switch")
	}
	for i := range value {
		if rval[i] != value[i] {
			t.Fatalf("cache hit rval[%d] = %d, want %d", i, rval[i], value[i])
		}
	}

	// GET on a cold key: crosses the placed switch to the server.
	srvKey := make([]uint64, 1)
	srvVal := make([]uint64, valBytes)
	if err := client.OutWindow(runtime.Invocation{Kernel: "query", Dest: "h15"},
		client.NewWid(), 0, [][]uint64{{7}, make([]uint64, valBytes), {0}}); err != nil {
		t.Fatal(err)
	}
	if _, err := server.In("reply", [][]uint64{srvKey, srvVal}, 10*time.Second); err != nil {
		t.Fatalf("miss never reached the server: %v", err)
	}
	if srvKey[0] != 7 {
		t.Errorf("server saw key %d, want 7", srvKey[0])
	}
	// Warm-up, hit and miss each executed exactly once, on the placed switch.
	phys := dep.Controller.Placement().Assign["s1"]
	if n := dep.Switches[phys].KernelWindows.Load(); n != 3 {
		t.Errorf("placed switch %s executed %d windows, want the 3 sent", phys, n)
	}
}

// TestDeployOnFatTreeHostToHostAllReduce: two workers in different pods
// address their contributions to each other, so the windows reach the
// placed aggregation switch only by their Via waypoint. Every window sent
// must execute there — untraced, and with every window traced (see
// TestDeployOnFatTreeKVS for what tracing used to break).
func TestDeployOnFatTreeHostToHostAllReduce(t *testing.T) {
	for _, traced := range []bool{false, true} {
		t.Run(fmt.Sprintf("traced=%v", traced), func(t *testing.T) {
			const (
				W       = 8
				dataLen = 64
				windows = dataLen / W
			)
			workers := []string{"h0", "h15"}
			fat, err := and.FatTree(4)
			if err != nil {
				t.Fatal(err)
			}
			art, err := Build(lossyAllreduceNCL, starOverlaySrc(workers),
				BuildOptions{WindowLen: W, SendWorkers: 1, ModuleName: "h2har"})
			if err != nil {
				t.Fatal(err)
			}
			dep, err := art.DeployOn(fat, PlacedOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer dep.Stop()
			if traced {
				dep.EnableTelemetry(1)
			}
			if err := dep.Controller.CtrlWrite("nworkers", 0, uint64(len(workers))); err != nil {
				t.Fatal(err)
			}
			for w, label := range workers {
				grad := make([]uint64, dataLen)
				for i := range grad {
					grad[i] = uint64((w + 1) * (i + 1))
				}
				peer := workers[1-w]
				if err := dep.Hosts[label].Out(runtime.Invocation{Kernel: "allreduce", Dest: peer}, [][]uint64{grad}); err != nil {
					t.Fatal(err)
				}
			}
			for _, label := range workers {
				sum := make([]uint64, dataLen)
				for n := 0; n < windows; n++ {
					if _, err := dep.Hosts[label].In("result", [][]uint64{sum}, 10*time.Second); err != nil {
						t.Fatalf("%s: result %d of %d: %v", label, n, windows, err)
					}
				}
				for i, v := range sum {
					if want := uint64(3 * (i + 1)); v != want {
						t.Fatalf("%s: sum[%d] = %d, want %d", label, i, v, want)
					}
				}
			}
			phys := dep.Controller.Placement().Assign["s1"]
			if n := dep.Switches[phys].KernelWindows.Load(); n != uint64(len(workers)*windows) {
				t.Errorf("placed switch %s executed %d windows, want the %d sent", phys, n, len(workers)*windows)
			}
		})
	}
}

// TestFailSwitchReplacesAndRecovers kills the placed aggregation switch
// mid-deployment: the controller re-places s1 on a live switch, replays
// the shadowed nworkers control write, reroutes hosts around the dead
// node, and a fresh allreduce round completes on the new home.
func TestFailSwitchReplacesAndRecovers(t *testing.T) {
	const (
		W       = 8
		dataLen = 64
	)
	workers := []string{"h0", "h1", "h8", "h9"}
	fat, err := and.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	art, err := Build(lossyAllreduceNCL, starOverlaySrc(workers),
		BuildOptions{WindowLen: W, ModuleName: "failover"})
	if err != nil {
		t.Fatal(err)
	}
	dep, err := art.DeployOn(fat, PlacedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Stop()
	if err := dep.Controller.CtrlWrite("nworkers", 0, uint64(len(workers))); err != nil {
		t.Fatal(err)
	}

	round := func(label string) error {
		opts := runtime.ReliableOptions{Timeout: 10 * time.Millisecond, Retries: 20, Window: 16}
		var wg sync.WaitGroup
		errs := make([]error, len(workers))
		for w := range workers {
			grad := make([]uint64, dataLen)
			for i := range grad {
				grad[i] = uint64(w + i + 1)
			}
			wg.Add(1)
			go func(w int, grad []uint64) {
				defer wg.Done()
				errs[w] = dep.Hosts[workers[w]].OutReliable(
					runtime.Invocation{Kernel: "allreduce", Dest: "s1"}, [][]uint64{grad}, opts)
			}(w, grad)
		}
		wg.Wait()
		for w, err := range errs {
			if err != nil {
				return fmt.Errorf("%s round, worker %s: %w", label, workers[w], err)
			}
		}
		return nil
	}

	if err := round("pre-failure"); err != nil {
		t.Fatal(err)
	}
	home := dep.Controller.Placement().Assign["s1"]
	if err := dep.FailSwitch(home); err != nil {
		t.Fatal(err)
	}
	moved := dep.Controller.Placement().Assign["s1"]
	if moved == home {
		t.Fatalf("s1 still assigned to failed switch %s", home)
	}
	// The shadowed control write survived the move.
	v, err := dep.Controller.ReadRegister("s1", "nworkers", 0)
	if err != nil || v != uint64(len(workers)) {
		t.Fatalf("nworkers on new home = %d (%v), want %d", v, err, len(workers))
	}
	if err := round("post-failure"); err != nil {
		t.Fatal(err)
	}
	// The round really ran on the new home (the dead switch is dark).
	if n := dep.Switches[moved].KernelWindows.Load(); n == 0 {
		t.Errorf("new home %s executed no windows after failover", moved)
	}
}

// TestDeployCleanupOnError is the leak regression: a deployment that
// fails mid-way (here: a location with no compiled program, so InstallAll
// fails after every node is attached and, over UDP, every socket bound)
// must tear down what it already brought up, and one that came up must be
// gone after Stop — whose second call is a no-op. Run with -race; the
// goroutine and open-descriptor counts must return to their pre-deploy
// levels on every backend.
func TestDeployCleanupOnError(t *testing.T) {
	art, err := Build(passThroughNCL, pairAND,
		BuildOptions{WindowLen: 4, ModuleName: "leakchk"})
	if err != nil {
		t.Fatal(err)
	}
	s1 := art.Programs["s1"]
	for name, deploy := range map[string]func() (*Deployment, error){
		"fabric": func() (*Deployment, error) { return art.Deploy(netsim.Faults{}) },
		"udp":    art.DeployUDP,
	} {
		t.Run(name, func(t *testing.T) {
			dep, err := deploy()
			if err != nil {
				t.Skipf("cannot deploy here: %v", err)
			}
			dep.Stop() // the netpoller's own descriptors exist from here on
			before, fdsBefore := gort.NumGoroutine(), openFDs()
			settled := func(what string) {
				t.Helper()
				deadline := time.Now().Add(5 * time.Second)
				for gort.NumGoroutine() > before && time.Now().Before(deadline) {
					time.Sleep(5 * time.Millisecond)
				}
				if n := gort.NumGoroutine(); n > before {
					t.Fatalf("%s leaked %d goroutines (%d -> %d)", what, n-before, before, n)
				}
				if n := openFDs(); n > fdsBefore {
					t.Fatalf("%s left %d descriptors open (%d -> %d)", what, n-fdsBefore, fdsBefore, n)
				}
			}

			delete(art.Programs, "s1")
			dep, err = deploy()
			art.Programs["s1"] = s1
			if err == nil {
				dep.Stop()
				t.Fatal("a deployment with a missing program must fail")
			}
			settled("failed deployment")

			if dep, err = deploy(); err != nil {
				t.Fatal(err)
			}
			dep.Stop()
			dep.Stop()
			settled("stopped deployment")
		})
	}
}

// openFDs counts this process's open file descriptors (0 where /proc
// does not say, which disables the check).
func openFDs() int {
	fds, _ := os.ReadDir("/proc/self/fd")
	return len(fds)
}

// TestDeployOnK32GoroutineBudget pins lazy host attachment: deploying a
// 4-worker overlay on a k=32 fat-tree (8192 hosts, 1280 switches) must
// spawn goroutines proportional to switches plus overlay nodes — the
// 8188 unused hosts attach as inert sinks with no drain goroutine. The
// pre-lazy fabric spawned one goroutine per physical host, so the old
// behavior fails this by thousands.
func TestDeployOnK32GoroutineBudget(t *testing.T) {
	fat, err := and.FatTree(32)
	if err != nil {
		t.Fatal(err)
	}
	workers := []string{"h0", "h1", "h4096", "h4097"}
	art, err := Build(lossyAllreduceNCL, starOverlaySrc(workers),
		BuildOptions{WindowLen: 4, ModuleName: "scale32"})
	if err != nil {
		t.Fatal(err)
	}
	before := gort.NumGoroutine()
	dep, err := art.DeployOn(fat, PlacedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	delta := gort.NumGoroutine() - before
	// One fabric drain goroutine per switch and per overlay host, plus a
	// small constant of runtime/host helpers. Measured: 1284.
	budget := len(fat.Switches()) + len(workers)*4 + 64
	dep.Stop()
	if delta > budget {
		t.Fatalf("k=32 deploy spawned %d goroutines (budget %d; one per 8192 hosts would be the old behavior)", delta, budget)
	}
	deadline := time.Now().Add(5 * time.Second)
	for gort.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := gort.NumGoroutine(); n > before {
		t.Fatalf("k=32 deploy leaked %d goroutines (%d -> %d)", n-before, before, n)
	}
}
