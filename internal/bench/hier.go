package bench

import (
	"fmt"
	"sync"
	"time"

	"ncl/internal/core"
	"ncl/internal/netsim"
	"ncl/internal/runtime"
)

// HierRun is one measured hierarchical AllReduce.
type HierRun struct {
	Workers     int
	DataLen     int
	CoreUpBytes uint64 // bytes crossing rack→core uplinks
	TotalBytes  uint64
	MakespanUs  float64
	Wall        time.Duration
}

// RunHierAllReduce performs one AllReduce over the two-rack tree with
// workersPerRack workers each and returns the measured traffic. Results
// are verified against the expected sums.
func RunHierAllReduce(workersPerRack, dataLen, w int) (HierRun, error) {
	workers := 2 * workersPerRack
	run := HierRun{Workers: workers, DataLen: dataLen}
	art, err := core.Build(HierNCL(dataLen), HierAND(workersPerRack),
		core.BuildOptions{WindowLen: w, ModuleName: "hier"})
	if err != nil {
		return run, err
	}
	dep, err := art.Deploy(netsim.Faults{})
	if err != nil {
		return run, err
	}
	defer dep.Stop()
	for name, v := range map[string]uint64{
		"fanin1": uint64(workersPerRack), "fanin2": uint64(workersPerRack), "fanin3": 2,
	} {
		if err := dep.Controller.CtrlWrite(name, 0, v); err != nil {
			return run, err
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			host := dep.Hosts[fmt.Sprintf("w%d", wi)]
			data := make([]uint64, dataLen)
			for i := range data {
				data[i] = uint64(int64((wi + 1) * (i + 1)))
			}
			down := make([]uint64, dataLen/w)
			if err := host.Out(runtime.Invocation{Kernel: "haggr", Dest: "c"},
				[][]uint64{data, down}); err != nil {
				errs[wi] = err
				return
			}
			hdata := make([]uint64, dataLen)
			done := make([]uint64, 1)
			for n := 0; n < dataLen/w; n++ {
				if _, err := host.In("result", [][]uint64{hdata, done}, 30*time.Second); err != nil {
					errs[wi] = err
					return
				}
			}
			want := int64(0)
			for ww := 0; ww < workers; ww++ {
				want += int64((ww + 1) * dataLen)
			}
			if int64(hdata[dataLen-1]) != want {
				errs[wi] = fmt.Errorf("bench: hier worker %d got %d, want %d", wi, int64(hdata[dataLen-1]), want)
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
	run.CoreUpBytes = dep.Fabric.Stats("r1", "c").Bytes.Load() + dep.Fabric.Stats("r2", "c").Bytes.Load()
	run.TotalBytes = dep.Fabric.TotalBytes()
	run.MakespanUs = dep.Fabric.MakespanUs()
	return run, nil
}

// e9Hierarchy compares flat single-switch aggregation against the
// two-level tree: the tree keeps the core-layer traffic constant in the
// per-rack worker count, which is how in-network aggregation scales past
// one ToR (the multi-switch deployment the AND enables, Fig. 3c).
func e9Hierarchy(_ bool) (*Table, error) {
	const dataLen = 256
	const w = 8
	t := &Table{
		Title:  "E9: hierarchical aggregation — flat star vs two-level tree (array 256 x int32)",
		Header: []string{"workers", "flat-switch-B", "tree-coreup-B", "tree-total-B", "tree-sim-us"},
	}
	for _, perRack := range []int{2, 4, 8} {
		workers := 2 * perRack
		art, err := BuildAllReduce(workers, dataLen, w)
		if err != nil {
			return nil, err
		}
		flat, err := RunINCAllReduce(art, workers, dataLen)
		if err != nil {
			return nil, fmt.Errorf("E9 flat N=%d: %w", workers, err)
		}
		tree, err := RunHierAllReduce(perRack, dataLen, w)
		if err != nil {
			return nil, fmt.Errorf("E9 tree N=%d: %w", workers, err)
		}
		// Flat "switch layer" traffic = everything (all worker links hang
		// off one switch); the tree's core layer carries only rack sums.
		t.AddRow(fmt.Sprint(workers),
			fmt.Sprint(flat.TotalBytes),
			fmt.Sprint(tree.CoreUpBytes),
			fmt.Sprint(tree.TotalBytes),
			fmt.Sprintf("%.1f", tree.MakespanUs))
	}
	return t, nil
}
