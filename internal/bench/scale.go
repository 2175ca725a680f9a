package bench

import (
	"fmt"
	"os"
	gort "runtime"
	"slices"
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
// Both are the median (min–max) of scaleTrials fresh deployments.
//
// Between deploy and replace, a reliable (switch-acked, 2% loss)
// allreduce runs on every placed deployment as the row's correctness gate:
// the switch accumulator must hold every round's sum. It is not timed;
// 512 windows read 4x apart across cold runs, and the placed data path's
// steady number is the benchmark's fattree_transit workload.
//
// The k=32 row (8192 hosts) runs only with NCL_SCALE_XL=1 — the nightly
// chaos job — so PR CI stays fast. A quick run is the k=8 row alone.
func e17Scale(quick bool) (*Table, error) {
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

		art, err := core.Build(AllReduceNCL(scaleDataLen), fatTreeStarOverlay(scaleWorkers(c.k)),
			core.BuildOptions{WindowLen: scaleW, ModuleName: fmt.Sprintf("scale-k%d", c.k)})
		if err != nil {
			return nil, fmt.Errorf("E17: %w", err)
		}
		var deploys, replaces []time.Duration
		for trial := 0; trial < scaleTrials; trial++ {
			dDeploy, dReplace, err := e17Trial(art, fat, c.k)
			if err != nil {
				return nil, fmt.Errorf("E17: k=%d trial %d: %w", c.k, trial, err)
			}
			deploys, replaces = append(deploys, dDeploy), append(replaces, dReplace)
		}
		t.AddRow(fmt.Sprintf("k=%d", c.k), fmt.Sprint(len(fat.Hosts())),
			routeRef, routeNew, speedup, medianRange(deploys), medianRange(replaces))
	}
	return t, nil
}

// The E17 workload, 64-element gradients in 8-element windows, 8 rounds
// per worker, is deployed fresh scaleTrials times per k: one deployment's
// wall time read 22–52 ms at k=16 across runs of one tree.
const (
	scaleDataLen = 64
	scaleW       = 8
	scaleRounds  = 8
	scaleTrials  = 3
)

// medianRange prints the median of ds with its min–max, to the ms.
func medianRange(ds []time.Duration) string {
	slices.Sort(ds)
	ms := func(d time.Duration) string { return d.Round(time.Millisecond).String() }
	return fmt.Sprintf("%s (%s–%s)", ms(ds[len(ds)/2]), ms(ds[0]), ms(ds[len(ds)-1]))
}

// e17Trial deploys art fresh on fat, runs the reliable allreduce
// correctness gate and fails the aggregation switch over, returning the
// deploy and replace wall times.
func e17Trial(art *core.Artifact, fat *and.Network, k int) (dDeploy, dReplace time.Duration, err error) {
	workers := scaleWorkers(k)
	t0 := time.Now()
	dep, err := art.DeployOn(fat, core.PlacedOptions{
		Faults: netsim.Faults{DropProb: 0.02, Seed: 11},
	})
	if err != nil {
		return 0, 0, fmt.Errorf("deploy: %w", err)
	}
	dDeploy = time.Since(t0)
	defer dep.Stop()
	if err := dep.Controller.CtrlWrite("nworkers", 0, uint64(len(workers))); err != nil {
		return 0, 0, err
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
			grad := make([]uint64, scaleDataLen)
			for i := range grad {
				grad[i] = uint64(int64((wi + 1) * (i%9 + 1)))
			}
			for r := 0; r < scaleRounds; r++ {
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
			return 0, 0, fmt.Errorf("worker %s: %w", workers[wi], err)
		}
	}
	// Ground truth: the switch accumulator holds scaleRounds x the summed
	// gradients (index scaleDataLen-1 has i%9 == 0, so each worker adds w+1).
	i := scaleDataLen - 1
	v, err := dep.Controller.ReadRegister("s1", fmt.Sprintf("accum$%d", i%scaleW), i/scaleW)
	if err != nil {
		return 0, 0, err
	}
	want := int64(0)
	for wi := range workers {
		want += int64((wi + 1) * (i%9 + 1))
	}
	want *= scaleRounds
	if int64(int32(v)) != want {
		return 0, 0, fmt.Errorf("accum[%d] = %d, want %d", i, int64(int32(v)), want)
	}

	// Failover: lose the aggregation switch mid-life and time the full
	// recovery — re-placement, shadow replay, routing, host refresh.
	assign := dep.Controller.Placement().Assign["s1"]
	t0 = time.Now()
	err = dep.FailSwitch(assign)
	dReplace = time.Since(t0)
	if err != nil {
		return 0, 0, fmt.Errorf("FailSwitch(%s): %w", assign, err)
	}
	if moved := dep.Controller.Placement().Assign["s1"]; moved == assign {
		return 0, 0, fmt.Errorf("s1 did not move off failed %s", assign)
	}
	return dDeploy, dReplace, nil
}
