package bench

import (
	"fmt"
	"sync"
	"time"

	"ncl/internal/and"
	"ncl/internal/core"
	"ncl/internal/runtime"
)

// PlacedRun is one measured allreduce round on a placed deployment.
type PlacedRun struct {
	Assign     string // physical switch s1 landed on
	CostHops   int    // placement objective: sum of hops over overlay links
	Wall       time.Duration
	MakespanUs float64
	SwitchWins uint64
}

// fatTreeStarOverlay is the E16 overlay: one aggregation switch with
// pod-local workers, labeled by fat-tree host names so the overlay can be
// placed on the physical topology.
func fatTreeStarOverlay(workers []string) string {
	src := "switch s1 id=1\n"
	for _, w := range workers {
		src += fmt.Sprintf("host %s role=0\nlink %s s1\n", w, w)
	}
	return src
}

// runPlacedAllReduce deploys the star overlay onto the fat-tree with the
// given placement pins (nil: the engine chooses) and runs `rounds`
// verified allreduce rounds on the warm deployment.
func runPlacedAllReduce(art *core.Artifact, fat *and.Network, workers []string, dataLen, rounds int, pin map[string]string) (PlacedRun, error) {
	var run PlacedRun
	w := art.WindowLen
	dep, err := art.DeployOn(fat, core.PlacedOptions{Pin: pin})
	if err != nil {
		return run, err
	}
	defer dep.Stop()
	pl := dep.Controller.Placement()
	run.Assign = pl.Assign["s1"]
	run.CostHops = pl.CostHops
	if err := dep.Controller.CtrlWrite("nworkers", 0, uint64(len(workers))); err != nil {
		return run, err
	}

	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, len(workers))
	for wi := range workers {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			host := dep.Hosts[workers[wi]]
			data := make([]uint64, dataLen)
			for i := range data {
				data[i] = uint64(int64((wi + 1) * (i + 1)))
			}
			hdata := make([]uint64, dataLen)
			done := make([]uint64, 1)
			for r := 0; r < rounds; r++ {
				if err := host.Out(runtime.Invocation{Kernel: "allreduce", Dest: "s1"}, [][]uint64{data}); err != nil {
					errs[wi] = err
					return
				}
				for n := 0; n < dataLen/w; n++ {
					if _, err := host.In("result", [][]uint64{hdata, done}, 30*time.Second); err != nil {
						errs[wi] = err
						return
					}
				}
			}
			// accum keeps growing across rounds; the final broadcast
			// carries rounds x the single-round sum.
			want := int64(0)
			for ww := range workers {
				want += int64((ww + 1) * dataLen)
			}
			want *= int64(rounds)
			if int64(hdata[dataLen-1]) != want {
				errs[wi] = fmt.Errorf("bench: worker %s got %d, want %d", workers[wi], int64(hdata[dataLen-1]), want)
			}
		}(wi)
	}
	wg.Wait()
	run.Wall = time.Since(start)
	for _, err := range errs {
		if err != nil {
			return run, err
		}
	}
	run.MakespanUs = dep.Fabric.MakespanUs()
	run.SwitchWins = dep.Switches[run.Assign].KernelWindows.Load()
	return run, nil
}

// e16Placement measures what placement buys on a k=4 fat-tree: the same
// pod-local aggregation overlay deployed twice — once with the engine
// choosing s1's switch (it lands inside the workers' pod) and once with
// s1 pinned to a core switch (the naive "aggregate at the top" choice).
// The engine's placement must strictly reduce the total hop count, and
// the simulated completion time follows.
func e16Placement(_ bool) (*Table, error) {
	const (
		k       = 4
		dataLen = 256
		w       = 8
		rounds  = 16
	)
	workers := []string{"h0", "h1", "h2", "h3"} // all of pod 0
	fat, err := and.FatTree(k)
	if err != nil {
		return nil, err
	}
	art, err := core.Build(AllReduceNCL(dataLen), fatTreeStarOverlay(workers),
		core.BuildOptions{WindowLen: w, ModuleName: "placed-allreduce"})
	if err != nil {
		return nil, fmt.Errorf("E16: %w", err)
	}

	t := &Table{
		Title:  fmt.Sprintf("E16: placement — pod-local aggregation on a k=%d fat-tree (engine vs pinned core)", k),
		Header: []string{"placement", "switch", "cost-hops", "sim-us", "wall", "windows-per-sec"},
	}
	variants := []struct {
		name string
		pin  map[string]string
	}{
		{"engine", nil},
		{"core-pinned", map[string]string{"s1": "core0"}},
	}
	runs := map[string]PlacedRun{}
	for _, v := range variants {
		run, err := runPlacedAllReduce(art, fat, workers, dataLen, rounds, v.pin)
		if err != nil {
			return nil, fmt.Errorf("E16 %s: %w", v.name, err)
		}
		runs[v.name] = run
		wps := float64(run.SwitchWins) / run.Wall.Seconds()
		t.AddRow(v.name, run.Assign, fmt.Sprint(run.CostHops),
			fmt.Sprintf("%.1f", run.MakespanUs),
			run.Wall.Round(time.Microsecond).String(),
			fmt.Sprintf("%.0f", wps))
	}
	// The acceptance claim: engine placement strictly beats naive core
	// placement on the objective it optimizes.
	if eng, core := runs["engine"], runs["core-pinned"]; eng.CostHops >= core.CostHops {
		return nil, fmt.Errorf("E16: engine placement cost %d hops is not below pinned-core cost %d",
			eng.CostHops, core.CostHops)
	}
	return t, nil
}
