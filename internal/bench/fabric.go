package bench

import (
	"fmt"
	gort "runtime"
	"sync/atomic"
	"time"

	"ncl/internal/and"
	"ncl/internal/ncp"
	"ncl/internal/netsim"
	"ncl/internal/pisa"
)

// E15Fabric measures what the batched ring-buffer fabric buys over the
// old one-packet-per-wakeup delivery (DESIGN.md §5.10), at three layers:
//
//   - transport: raw fabric throughput host→host, per-packet Send against
//     drain-batch=1 vs SendBatch against the default drain batch — the
//     ring amortizes the wakeup, the virtual-clock stamp, the link
//     counters, and the inbox lock over whole bursts;
//   - exec: the PISA device alone, ExecWindowBatch with batches of 1 vs
//     64 — the plan load, the pooled scratch and the kernel's whole
//     register/table lock set are paid once per batch;
//   - switch e2e: NCP windows host→switch→host through the full decode →
//     exec → repack → forward pipeline, as bursts of 1 vs drained bursts.
//
// Speedups are per layer (each batched row against its per-packet row).
func E15Fabric() (*Table, error) {
	const (
		W         = 8
		chunk     = 64
		transport = 200_000
		execWins  = 100_000
		e2e       = 50_000
	)
	t := &Table{
		Title: fmt.Sprintf("E15: batched fabric — ring drain + vectorized exec vs per-packet (%d/%d/%d windows, GOMAXPROCS=%d)",
			transport, execWins, e2e, gort.GOMAXPROCS(0)),
		Header: []string{"path", "wall-ms", "windows-per-sec", "speedup", "allocs-per-window"},
	}
	addRow := func(name string, windows int, wall, base time.Duration, allocs float64) {
		t.AddRow(name,
			fmt.Sprintf("%.1f", float64(wall)/float64(time.Millisecond)),
			fmt.Sprintf("%.0f", float64(windows)/wall.Seconds()),
			fmt.Sprintf("%.2fx", float64(base)/float64(wall)),
			fmt.Sprintf("%.2f", allocs))
	}
	// bestOf re-runs a row and keeps the fastest wall time: the benchmark
	// shares its one box with the rest of the system, and the minimum is
	// the least-interfered estimate — what the CI regression gate needs to
	// stay stable.
	bestOf := func(attempts int, run func() (time.Duration, float64, error)) (time.Duration, float64, error) {
		var bestWall time.Duration
		var bestAllocs float64
		for a := 0; a < attempts; a++ {
			wall, allocs, err := run()
			if err != nil {
				return 0, 0, err
			}
			if a == 0 || wall < bestWall {
				bestWall, bestAllocs = wall, allocs
			}
		}
		return bestWall, bestAllocs, nil
	}

	art, err := BuildAllReduce(2, 256, W)
	if err != nil {
		return nil, err
	}
	prog := art.Programs["s1"]
	kern := prog.KernelByName("allreduce")
	payload, err := ncp.EncodePayload([][]uint64{make([]uint64, W)},
		[]ncp.ParamSpec{{Elems: W, Bytes: 4, Signed: true}})
	if err != nil {
		return nil, err
	}
	pktBytes, err := ncp.Marshal(&ncp.Header{
		KernelID: kern.ID, WindowLen: W, Sender: 1, FragCount: 1,
	}, nil, payload)
	if err != nil {
		return nil, err
	}

	// --- Transport: host→host over the fabric, counting sink.
	runTransport := func(drain, windows int, batched bool) (time.Duration, float64, error) {
		net, err := and.Parse("host a\nhost b\nlink a b")
		if err != nil {
			return 0, 0, err
		}
		fab := netsim.New(net, netsim.Faults{})
		fab.SetInboxCap(windows + chunk)
		fab.SetDrainBatch(drain)
		sink := &countNode{label: "b"}
		if err := fab.Attach(&countNode{label: "a"}); err != nil {
			return 0, 0, err
		}
		if err := fab.Attach(sink); err != nil {
			return 0, 0, err
		}
		if err := fab.Start(); err != nil {
			return 0, 0, err
		}
		defer fab.Stop()
		tos := make([]string, chunk)
		for i := range tos {
			tos[i] = "b"
		}
		pkts := make([]*netsim.Packet, chunk)
		var before, after gort.MemStats
		gort.ReadMemStats(&before)
		start := time.Now()
		if batched {
			for sent := 0; sent < windows; sent += chunk {
				for i := range pkts {
					pkts[i] = &netsim.Packet{Src: "a", Dst: "b", Data: pktBytes}
				}
				if err := fab.SendBatch("a", tos, pkts); err != nil {
					return 0, 0, err
				}
			}
		} else {
			for i := 0; i < windows; i++ {
				if err := fab.Send("a", "b", &netsim.Packet{Src: "a", Dst: "b", Data: pktBytes}); err != nil {
					return 0, 0, err
				}
			}
		}
		if err := sink.wait(uint64(windows)); err != nil {
			return 0, 0, err
		}
		wall := time.Since(start)
		gort.ReadMemStats(&after)
		return wall, float64(after.Mallocs-before.Mallocs) / float64(windows), nil
	}
	ppWall, ppAllocs, err := bestOf(3, func() (time.Duration, float64, error) {
		return runTransport(1, transport, false)
	})
	if err != nil {
		return nil, fmt.Errorf("E15 transport per-packet: %w", err)
	}
	addRow("transport per-packet (drain=1)", transport, ppWall, ppWall, ppAllocs)
	bWall, bAllocs, err := bestOf(3, func() (time.Duration, float64, error) {
		return runTransport(netsim.DefaultDrainBatch, transport, true)
	})
	if err != nil {
		return nil, fmt.Errorf("E15 transport batched: %w", err)
	}
	addRow(fmt.Sprintf("transport batched (drain=%d)", netsim.DefaultDrainBatch), transport, bWall, ppWall, bAllocs)

	// --- Exec: the device alone, one lock set per window vs one per batch
	// (E12's batch-of-1 row is the same code as the first row here).
	sw := pisa.NewSwitch(art.Target)
	if err := sw.Load(prog); err != nil {
		return nil, err
	}
	if err := sw.WriteRegister("nworkers", 0, 1); err != nil {
		return nil, err
	}
	measure := func(windows int, exec func(i int) error) (time.Duration, float64, error) {
		for i := 0; i < chunk; i++ { // warm pools
			if err := exec(i); err != nil {
				return 0, 0, err
			}
		}
		var before, after gort.MemStats
		gort.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < windows; i++ {
			if err := exec(i); err != nil {
				return 0, 0, err
			}
		}
		wall := time.Since(start)
		gort.ReadMemStats(&after)
		return wall, float64(after.Mallocs-before.Mallocs) / float64(windows), nil
	}
	job := [1]pisa.BatchJob{{Data: [][]uint64{make([]uint64, W)}}}
	oneWall, oneAllocs, err := bestOf(3, func() (time.Duration, float64, error) {
		return measure(execWins, func(int) error {
			return execBatchOfOne(sw, kern.ID, &job, prog.LocID)
		})
	})
	if err != nil {
		return nil, fmt.Errorf("E15 exec batch of 1: %w", err)
	}
	addRow("exec batch of 1", execWins, oneWall, oneWall, oneAllocs)
	jobs := make([]pisa.BatchJob, chunk)
	for i := range jobs {
		jobs[i] = pisa.BatchJob{Data: [][]uint64{make([]uint64, W)}}
	}
	batchWall, batchAllocs, err := bestOf(3, func() (time.Duration, float64, error) {
		return measure(execWins/chunk, func(int) error {
			if err := sw.ExecWindowBatch(kern.ID, jobs, prog.LocID); err != nil {
				return err
			}
			for i := range jobs {
				if jobs[i].Err != nil {
					return jobs[i].Err
				}
			}
			return nil
		})
	})
	if err != nil {
		return nil, fmt.Errorf("E15 exec batch: %w", err)
	}
	batchAllocs /= chunk
	addRow(fmt.Sprintf("exec batched (x%d)", chunk), execWins, batchWall, oneWall, batchAllocs)

	// --- Switch end to end: NCP windows through decode → exec → repack →
	// forward, in segments of one vs drained segments.
	runE2E := func(drain, windows int, batched bool) (time.Duration, float64, error) {
		net, err := and.Parse("switch s1 id=1\nhost a role=0\nhost b role=1\nlink a s1\nlink s1 b")
		if err != nil {
			return 0, 0, err
		}
		fab := netsim.New(net, netsim.Faults{})
		fab.SetInboxCap(2*windows + chunk)
		fab.SetDrainBatch(drain)
		sn := netsim.NewSwitchNode("s1", art.Target)
		if err := sn.Install(prog, prog.LocID); err != nil {
			return 0, 0, err
		}
		sn.SetRoutes(net.NextHops()["s1"])
		sn.SetHosts(map[uint32]string{1: "a", 2: "b"})
		if err := sn.Device().WriteRegister("nworkers", 0, 1); err != nil {
			return 0, 0, err
		}
		sink := &countNode{label: "b"}
		for _, n := range []netsim.Node{sn, &countNode{label: "a"}, sink} {
			if err := fab.Attach(n); err != nil {
				return 0, 0, err
			}
		}
		if err := fab.Start(); err != nil {
			return 0, 0, err
		}
		defer fab.Stop()
		tos := make([]string, chunk)
		for i := range tos {
			tos[i] = "s1"
		}
		pkts := make([]*netsim.Packet, chunk)
		var before, after gort.MemStats
		gort.ReadMemStats(&before)
		start := time.Now()
		if batched {
			for sent := 0; sent < windows; sent += chunk {
				for i := range pkts {
					pkts[i] = &netsim.Packet{Src: "a", Dst: "b", Data: pktBytes}
				}
				if err := fab.SendBatch("a", tos, pkts); err != nil {
					return 0, 0, err
				}
			}
		} else {
			for i := 0; i < windows; i++ {
				if err := fab.Send("a", "s1", &netsim.Packet{Src: "a", Dst: "b", Data: pktBytes}); err != nil {
					return 0, 0, err
				}
			}
		}
		if err := sink.wait(uint64(windows)); err != nil {
			return 0, 0, err
		}
		wall := time.Since(start)
		gort.ReadMemStats(&after)
		return wall, float64(after.Mallocs-before.Mallocs) / float64(windows), nil
	}
	eppWall, eppAllocs, err := bestOf(3, func() (time.Duration, float64, error) {
		return runE2E(1, e2e, false)
	})
	if err != nil {
		return nil, fmt.Errorf("E15 e2e per-packet: %w", err)
	}
	addRow("switch e2e per-packet (drain=1)", e2e, eppWall, eppWall, eppAllocs)
	ebWall, ebAllocs, err := bestOf(3, func() (time.Duration, float64, error) {
		return runE2E(netsim.DefaultDrainBatch, e2e, true)
	})
	if err != nil {
		return nil, fmt.Errorf("E15 e2e batched: %w", err)
	}
	addRow(fmt.Sprintf("switch e2e batched (drain=%d)", netsim.DefaultDrainBatch), e2e, ebWall, eppWall, ebAllocs)
	return t, nil
}

// countNode counts received packets; wait spins until the target arrives
// (the producer never blocks, so arrival is the run's completion signal).
type countNode struct {
	label string
	n     atomic.Uint64
}

func (c *countNode) Label() string                                       { return c.label }
func (c *countNode) Receive(_ netsim.Sender, _ *netsim.Packet, _ string) { c.n.Add(1) }
func (c *countNode) wait(want uint64) error {
	deadline := time.Now().Add(30 * time.Second)
	for c.n.Load() < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: sink %s got %d of %d packets", c.label, c.n.Load(), want)
		}
		gort.Gosched()
	}
	return nil
}
