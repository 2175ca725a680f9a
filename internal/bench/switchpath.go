package bench

import (
	"fmt"
	gort "runtime"
	"time"

	"ncl/internal/and"
	"ncl/internal/ncl/interp"
	"ncl/internal/ncp"
	"ncl/internal/netsim"
	"ncl/internal/pisa"
)

// execBatchOfOne runs a batch of one through the device — what a switch does
// with a single-packet burst.
func execBatchOfOne(sw *pisa.Switch, kernel uint32, job *[1]pisa.BatchJob, loc uint32) error {
	if err := sw.ExecWindowBatch(kernel, job[:], loc); err != nil {
		return err
	}
	return job[0].Err
}

// E12SwitchPath measures the compile-at-load switch data plane
// (DESIGN.md §5.9): the tree-walking Reference engine vs the precompiled
// plan through its ExecWindow adapter and as a batch of one (the
// degenerate case of the one entry point the SwitchNode uses), and the
// whole switch node. Speedups are against the Reference row; the allocs
// column shows what the pooled scratch buys (the plan paths stay flat,
// the Reference allocates per window).
func E12SwitchPath() (*Table, error) {
	const (
		W       = 8
		windows = 50_000
	)
	art, err := BuildAllReduce(2, 256, W)
	if err != nil {
		return nil, err
	}
	prog := art.Programs["s1"]
	kern := prog.KernelByName("allreduce")
	t := &Table{
		Title: fmt.Sprintf("E12: switch data plane — reference vs compiled plan (%d windows x %d x int32, GOMAXPROCS=%d)",
			windows, W, gort.GOMAXPROCS(0)),
		Header: []string{"engine", "wall-ms", "windows-per-sec", "speedup", "allocs-per-window"},
	}

	measure := func(exec func(i int) error) (time.Duration, float64, error) {
		// Warm pools before measuring.
		for i := 0; i < 64; i++ {
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
		return wall, float64(after.Mallocs-before.Mallocs) / windows, nil
	}
	addRow := func(name string, wall time.Duration, refWall time.Duration, allocs float64) {
		t.AddRow(name,
			fmt.Sprintf("%.1f", float64(wall)/float64(time.Millisecond)),
			fmt.Sprintf("%.0f", windows/wall.Seconds()),
			fmt.Sprintf("%.2fx", float64(refWall)/float64(wall)),
			fmt.Sprintf("%.2f", allocs))
	}

	// Baseline: the pre-compilation tree-walking engine.
	ref := pisa.NewReference(art.Target)
	if err := ref.Load(prog); err != nil {
		return nil, err
	}
	if err := ref.WriteRegister("nworkers", 0, 1); err != nil {
		return nil, err
	}
	refWin := &interp.Window{Data: [][]uint64{make([]uint64, W)}, Meta: map[string]uint64{"seq": 0}}
	refWall, refAllocs, err := measure(func(int) error {
		_, err := ref.ExecWindow(kern.ID, refWin)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("E12 reference: %w", err)
	}
	addRow("reference (tree-walk)", refWall, refWall, refAllocs)

	// Compiled plan through the interp.Window adapter.
	sw := pisa.NewSwitch(art.Target)
	if err := sw.Load(prog); err != nil {
		return nil, err
	}
	if err := sw.WriteRegister("nworkers", 0, 1); err != nil {
		return nil, err
	}
	swWin := &interp.Window{Data: [][]uint64{make([]uint64, W)}, Meta: map[string]uint64{"seq": 0}}
	wall, allocs, err := measure(func(int) error {
		_, err := sw.ExecWindow(kern.ID, swWin)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("E12 compiled: %w", err)
	}
	addRow("compiled plan (ExecWindow)", wall, refWall, allocs)

	// Compiled plan, the data-plane entry point with a batch of one.
	job := [1]pisa.BatchJob{{Data: [][]uint64{make([]uint64, W)}}}
	wall, allocs, err = measure(func(int) error {
		return execBatchOfOne(sw, kern.ID, &job, prog.LocID)
	})
	if err != nil {
		return nil, fmt.Errorf("E12 batch of 1: %w", err)
	}
	addRow("compiled plan (batch of 1)", wall, refWall, allocs)

	// Whole-device pipeline: NCP decode -> plan -> repack -> forward.
	net, err := and.Parse("switch s1 id=1\nhost a role=0\nhost b role=1\nlink a s1\nlink s1 b")
	if err != nil {
		return nil, err
	}
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
	sn := netsim.NewSwitchNode("s1", art.Target)
	if err := sn.Install(prog, prog.LocID); err != nil {
		return nil, err
	}
	sn.SetRoutes(net.NextHops()["s1"])
	sn.SetHosts(map[uint32]string{1: "a", 2: "b"})
	if err := sn.Device().WriteRegister("nworkers", 0, 1); err != nil {
		return nil, err
	}
	sink := &discardSender{net: net}
	wall, allocs, err = measure(func(int) error {
		sn.Receive(sink, &netsim.Packet{Src: "a", Dst: "b", Data: pktBytes}, "a")
		return nil
	})
	if err != nil {
		return nil, err
	}
	addRow("switch-node", wall, refWall, allocs)
	return t, nil
}
