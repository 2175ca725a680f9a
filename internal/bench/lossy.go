package bench

import (
	"fmt"
	"sync"
	"time"

	"ncl/internal/core"
	"ncl/internal/netsim"
	"ncl/internal/runtime"
)

// e13LossyReliable sweeps fabric fault intensity under the exactly-once
// reliable transport (DESIGN.md §5.4): N workers run reliable AllReduce
// while the fabric drops, duplicates, and reorders, and the switch's
// shadow state must keep the aggregated registers bit-exact. Reports the
// recovery cost (retransmits, suppressed duplicates, switch acks) and
// the wall-clock penalty versus the clean fabric.
func e13LossyReliable(_ bool) (*Table, error) {
	const (
		workers = 4
		dataLen = 128
		w       = 8
		rounds  = 2
	)
	t := &Table{
		Title:  fmt.Sprintf("E13: lossy reliable AllReduce — exactly-once under faults (%d workers, %d x int32, %d rounds)", workers, dataLen, rounds),
		Header: []string{"drop/dup", "wall-ms", "windows", "retransmits", "dup-suppressed", "switch-acks", "bit-exact"},
	}
	art, err := BuildAllReduce(workers, dataLen, w)
	if err != nil {
		return nil, fmt.Errorf("E13: %w", err)
	}
	for _, p := range []float64{0, 0.05, 0.10, 0.20} {
		faults := netsim.Faults{DropProb: p, DupProb: p, ReorderProb: p / 2, ReorderHold: 4, Seed: 13}
		wall, stats, err := runAllReduceRounds(art, workers, dataLen, rounds, faults, true)
		if err != nil {
			return nil, fmt.Errorf("E13 p=%.2f: %w", p, err)
		}
		t.AddRow(fmt.Sprintf("%.0f%%", 100*p),
			fmt.Sprintf("%.1f", float64(wall)/float64(time.Millisecond)),
			fmt.Sprint(rounds*workers*dataLen/w),
			fmt.Sprint(stats.retransmits),
			fmt.Sprint(stats.dupSuppressed),
			fmt.Sprint(stats.acks),
			"yes")
	}
	return t, nil
}

// e13ReliableGoodput is ROADMAP item 2's row pair: what the reliability
// layer costs an application, as the goodput of OutReliable rounds at 0%
// and 2% loss over the goodput of the same rounds through plain Out on
// the same two-worker star (512 windows per worker and round). On the
// clean fabric a round ends when the worker has run the incoming kernel
// on all 512 result windows; on the lossy one, where result broadcasts
// are not retransmitted, when OutReliable returns and both workers have
// met. The registers are read back bit-exact in every row.
func e13ReliableGoodput(quick bool) (*Table, error) {
	const (
		workers = 2
		dataLen = 4096
		w       = 8
	)
	rounds := 100
	if quick {
		rounds = 2
	}
	t := &Table{
		Title:  fmt.Sprintf("E13: reliable goodput as a fraction of unreliable Out (%d workers, %d x int32, %d rounds)", workers, dataLen, rounds),
		Header: []string{"transport", "drop/dup", "windows-per-sec", "vs-out", "retransmits-per-window"},
	}
	art, err := BuildAllReduce(workers, dataLen, w)
	if err != nil {
		return nil, fmt.Errorf("E13: %w", err)
	}
	windows := float64(rounds * workers * dataLen / w)
	var outWps float64
	for _, c := range []struct {
		name     string
		reliable bool
		p        float64
	}{{"Out", false, 0}, {"OutReliable", true, 0}, {"OutReliable", true, 0.02}} {
		faults := netsim.Faults{DropProb: c.p, DupProb: c.p, Seed: 13}
		wall, stats, err := runAllReduceRounds(art, workers, dataLen, rounds, faults, c.reliable)
		if err != nil {
			return nil, fmt.Errorf("E13 %s p=%.2f: %w", c.name, c.p, err)
		}
		wps := windows / wall.Seconds()
		if !c.reliable {
			outWps = wps
		}
		t.AddRow(c.name, fmt.Sprintf("%.0f%%", 100*c.p),
			fmt.Sprintf("%.0f", wps),
			fmt.Sprintf("%.0f%%", 100*wps/outWps),
			fmt.Sprintf("%.3f", float64(stats.retransmits)/windows))
	}
	return t, nil
}

type lossyStats struct {
	retransmits   uint64
	dupSuppressed uint64
	acks          uint64
}

// runAllReduceRounds drives allreduce rounds — every worker pushes its
// gradient through OutReliable (RTO adapted by the runtime) or plain Out,
// then on a clean fabric runs the incoming kernel on every result window,
// on a faulty one drains what arrived — and verifies the switch registers
// bit-exactly against the locally computed running totals (control-plane
// readback is lossless, unlike the result broadcasts). Any inexact
// element is an error: it means a retransmitted window was double-applied
// or a contribution acknowledged without being applied.
func runAllReduceRounds(art *core.Artifact, workers, dataLen, rounds int, faults netsim.Faults, reliable bool) (time.Duration, lossyStats, error) {
	var st lossyStats
	dep, err := art.Deploy(faults)
	if err != nil {
		return 0, st, err
	}
	defer dep.Stop()
	if err := dep.Controller.CtrlWrite("nworkers", 0, uint64(workers)); err != nil {
		return 0, st, err
	}
	w := art.WindowLen
	clean := faults.DropProb == 0 && faults.DupProb == 0 && faults.ReorderProb == 0
	if !reliable && !clean {
		return 0, st, fmt.Errorf("bench: unreliable rounds need a clean fabric")
	}
	opts := runtime.ReliableOptions{Retries: 20}
	inv := runtime.Invocation{Kernel: "allreduce", Dest: "s1"}
	expected := make([]int64, dataLen)
	ext := make([][][]uint64, workers)
	for wi := range ext {
		ext[wi] = [][]uint64{make([]uint64, dataLen), make([]uint64, 1)}
	}
	start := time.Now()
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for wi := 0; wi < workers; wi++ {
			grad := make([]uint64, dataLen)
			for i := range grad {
				v := int64((wi + 1) + i%5 + round)
				grad[i] = uint64(v)
				expected[i] += v
			}
			wg.Add(1)
			go func(wi int, grad []uint64) {
				defer wg.Done()
				host := dep.Hosts[fmt.Sprintf("worker%d", wi)]
				var err error
				if reliable {
					err = host.OutReliable(inv, [][]uint64{grad}, opts)
				} else {
					err = host.Out(inv, [][]uint64{grad})
				}
				if clean {
					for n := 0; n < dataLen/w && err == nil; n++ {
						_, err = host.In("result", ext[wi], 30*time.Second)
					}
				} else {
					for host.Pending() > 0 && err == nil {
						_, err = host.Recv(time.Second)
					}
				}
				errs[wi] = err
			}(wi, grad)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return 0, st, err
			}
		}
	}
	wall := time.Since(start)
	// Codegen shards the source array per window lane: accum$<lane>[seq].
	for i := 0; i < dataLen; i++ {
		v, err := dep.Controller.ReadRegister("s1", fmt.Sprintf("accum$%d", i%w), i/w)
		if err != nil {
			return 0, st, err
		}
		if int64(int32(v)) != expected[i] {
			return 0, st, fmt.Errorf("accum[%d] = %d, want %d: aggregation not exactly-once", i, int64(int32(v)), expected[i])
		}
	}
	for wi := 0; wi < workers; wi++ {
		st.retransmits += dep.Obs.Counter(fmt.Sprintf("host.worker%d.retransmits", wi)).Load()
	}
	st.dupSuppressed = dep.Switches["s1"].DupSuppressed.Load()
	st.acks = dep.Switches["s1"].AcksSent.Load()
	return wall, st, nil
}
