package bench

import (
	"fmt"
	"os"
	gort "runtime"
	"sync"
	"time"

	"ncl/internal/and"
	"ncl/internal/core"
	"ncl/internal/netsim"
	"ncl/internal/runtime"
)

// scaleWorkers picks the E17 overlay's eight workers: the first two
// hosts of each of four pods, so placement and routing cross pod and
// core boundaries at every k.
func scaleWorkers(k int) []string {
	perPod := k * k / 4
	var workers []string
	for p := 0; p < 4; p++ {
		workers = append(workers,
			fmt.Sprintf("h%d", p*perPod),
			fmt.Sprintf("h%d", p*perPod+1))
	}
	return workers
}

// e17Scale measures the control plane and fabric at data-center
// arities — ROADMAP item 2's "does it survive at scale" column for the
// placement story E16 established at k=4:
//
//   - route-ref/route-new: the all-pairs ECMP table built by the retired
//     string-keyed BFS vs the interned flat-array implementation (both
//     measured fresh, so the speedup column is honest); k=16 must hold
//     >= 5x. The k=32 row skips these — a 9.5k-node all-pairs table is
//     ~90M map entries and nothing on the deploy path needs it (placed
//     routing computes per-overlay-node columns only).
//   - deploy: DeployOn wall time — placement, routing push, lazy host
//     attachment (8188 of 8192 k=32 hosts attach as goroutine-free
//     sinks).
//   - replace: FailSwitch wall time on the aggregation switch — re-place,
//     shadow replay, routing re-convergence, host route refresh.
//
// Between deploy and replace, a reliable (switch-acked, 2% loss)
// allreduce runs on the placed deployment as the row's correctness gate:
// the switch accumulator must hold every round's sum. It is not timed;
// 512 windows read 4x apart across cold runs, and the placed data path's
// steady number is the benchmark's fattree_transit workload.
//
// The k=32 row (8192 hosts) runs only with NCL_SCALE_XL=1 — the nightly
// chaos job — so PR CI stays fast. A quick run is the k=8 row alone.
func e17Scale(quick bool) (*Table, error) {
	const (
		dataLen = 64
		w       = 8
		rounds  = 8
	)
	type cfg struct {
		k          int
		measureRef bool
	}
	cfgs := []cfg{{8, true}, {16, true}}
	if os.Getenv("NCL_SCALE_XL") == "1" {
		cfgs = append(cfgs, cfg{32, false})
	}
	if quick {
		cfgs = cfgs[:1]
	}
	t := &Table{
		Title:  "E17: scale — route build, deploy, failover on k-ary fat-trees",
		Header: []string{"k", "hosts", "route-ref", "route-new", "speedup", "deploy", "replace"},
	}
	for _, c := range cfgs {
		fat, err := and.FatTree(c.k)
		if err != nil {
			return nil, fmt.Errorf("E17: %w", err)
		}
		routeRef, routeNew, speedup := "-", "-", "-"
		if c.measureRef {
			t0 := time.Now()
			refTable := fat.NextHopsAllReference()
			dRef := time.Since(t0)
			refLen := len(refTable)
			// Release the reference table and collect its garbage before
			// timing the new path: the speedup column compares the two
			// builds, not the second build dragging the first one's ~2M
			// live map entries through every GC cycle.
			refTable = nil
			_ = refTable
			gort.GC()
			t0 = time.Now()
			newTable := fat.NextHopsAll()
			dNew := time.Since(t0)
			if len(newTable) != refLen {
				return nil, fmt.Errorf("E17: k=%d route tables disagree: %d vs %d sources", c.k, len(newTable), refLen)
			}
			sp := dRef.Seconds() / dNew.Seconds()
			routeRef = dRef.Round(time.Millisecond).String()
			routeNew = dNew.Round(time.Millisecond).String()
			speedup = fmt.Sprintf("%.1fx", sp)
			if c.k == 16 && sp < 5 {
				return nil, fmt.Errorf("E17: k=16 route build speedup %.1fx is below the 5x floor (ref %v, new %v)", sp, dRef, dNew)
			}
		}

		workers := scaleWorkers(c.k)
		art, err := core.Build(AllReduceNCL(dataLen), fatTreeStarOverlay(workers),
			core.BuildOptions{WindowLen: w, ModuleName: fmt.Sprintf("scale-k%d", c.k)})
		if err != nil {
			return nil, fmt.Errorf("E17: %w", err)
		}
		t0 := time.Now()
		dep, err := art.DeployOn(fat, core.PlacedOptions{
			Faults: netsim.Faults{DropProb: 0.02, Seed: 11},
		})
		if err != nil {
			return nil, fmt.Errorf("E17: k=%d deploy: %w", c.k, err)
		}
		dDeploy := time.Since(t0)
		if err := dep.Controller.CtrlWrite("nworkers", 0, uint64(len(workers))); err != nil {
			dep.Stop()
			return nil, fmt.Errorf("E17: %w", err)
		}

		// Reliable allreduce: every worker pushes its gradient with
		// switch-acked windows over the 2%-loss fabric; OutReliable
		// returning means the placed switch folded every contribution in
		// exactly once.
		ropts := runtime.ReliableOptions{Timeout: 10 * time.Millisecond, Retries: 20, Window: 16}
		var wg sync.WaitGroup
		errs := make([]error, len(workers))
		for wi := range workers {
			wg.Add(1)
			go func(wi int) {
				defer wg.Done()
				host := dep.Hosts[workers[wi]]
				grad := make([]uint64, dataLen)
				for i := range grad {
					grad[i] = uint64(int64((wi + 1) * (i%9 + 1)))
				}
				for r := 0; r < rounds; r++ {
					if err := host.OutReliable(
						runtime.Invocation{Kernel: "allreduce", Dest: "s1"},
						[][]uint64{grad}, ropts); err != nil {
						errs[wi] = err
						return
					}
				}
			}(wi)
		}
		wg.Wait()
		for wi, err := range errs {
			if err != nil {
				dep.Stop()
				return nil, fmt.Errorf("E17: k=%d worker %s: %w", c.k, workers[wi], err)
			}
		}
		// Ground truth: the switch accumulator holds rounds x the summed
		// gradients (index dataLen-1 has i%9 == 0, so each worker adds w+1).
		i := dataLen - 1
		v, err := dep.Controller.ReadRegister("s1", fmt.Sprintf("accum$%d", i%w), i/w)
		if err != nil {
			dep.Stop()
			return nil, fmt.Errorf("E17: %w", err)
		}
		want := int64(0)
		for wi := range workers {
			want += int64((wi + 1) * (i%9 + 1))
		}
		want *= rounds
		if int64(int32(v)) != want {
			dep.Stop()
			return nil, fmt.Errorf("E17: k=%d accum[%d] = %d, want %d", c.k, i, int64(int32(v)), want)
		}

		// Failover: lose the aggregation switch mid-life and time the full
		// recovery — re-placement, shadow replay, routing, host refresh.
		assign := dep.Controller.Placement().Assign["s1"]
		t0 = time.Now()
		err = dep.FailSwitch(assign)
		dReplace := time.Since(t0)
		if err != nil {
			dep.Stop()
			return nil, fmt.Errorf("E17: k=%d FailSwitch(%s): %w", c.k, assign, err)
		}
		if moved := dep.Controller.Placement().Assign["s1"]; moved == assign {
			dep.Stop()
			return nil, fmt.Errorf("E17: k=%d s1 did not move off failed %s", c.k, assign)
		}
		dep.Stop()

		t.AddRow(fmt.Sprintf("k=%d", c.k), fmt.Sprint(len(fat.Hosts())),
			routeRef, routeNew, speedup,
			dDeploy.Round(time.Millisecond).String(),
			dReplace.Round(time.Millisecond).String())
	}
	return t, nil
}
