package bench

import (
	"fmt"
	gort "runtime"
	"time"

	"ncl/internal/and"
	"ncl/internal/ncp"
	"ncl/internal/netsim"
	"ncl/internal/obs"
	"ncl/internal/runtime"
	"ncl/internal/telemetry"
)

// discardSender drops every packet: E14 measures the host send path and
// the switch receive path alone, not a transport.
type discardSender struct{ net *and.Network }

func (d *discardSender) Network() *and.Network                              { return d.net }
func (d *discardSender) SendBatch(string, []string, []*netsim.Packet) error { return nil }

// e14Telemetry measures what INT sampling costs the two hot paths the
// telemetry plane touches (the host send path and the switch-node
// receive path) across the sampling ladder: tracing off, 1-in-64, 1-in-8,
// and every window. The off rows are the paths' baselines; the overhead
// column is wall-time against them, a ratio taken within one run. The
// acceptance bound is <5% at 1/64 sampling with the untraced switch
// path still allocation-flat.
func e14Telemetry(quick bool) (*Table, error) {
	const W = 8
	samplings := []int{0, 64, 8, 1}
	t := &Table{
		Title: fmt.Sprintf("E14: INT sampling overhead — host send + switch receive paths (W=%d, GOMAXPROCS=%d)",
			W, gort.GOMAXPROCS(0)),
		Header: []string{"path / trace-every", "wall-ms", "windows-per-sec", "overhead", "allocs-per-window"},
	}

	// --- Host send path: Out into a discard transport with trace
	// sampling dialed per row. A collector is attached the way a live
	// deployment would, though nothing returns to the host here.
	hostWindows, reps, swWindows := 4096, 8, 50_000
	if quick {
		hostWindows, reps, swWindows = 256, 1, 1_000
	}
	hostNet, err := and.Parse("host a\nhost b\nlink a b")
	if err != nil {
		return nil, err
	}
	data := make([]uint64, hostWindows*W)
	for i := range data {
		data[i] = uint64(i)
	}
	inv := runtime.Invocation{Kernel: "k", Dest: "b"}
	var hostBase time.Duration
	for _, every := range samplings {
		reg := obs.NewRegistry()
		cfg := runtime.AppConfig{
			KernelIDs:  map[string]uint32{"k": 1},
			OutSpecs:   map[string][]ncp.ParamSpec{"k": {{Elems: W, Bytes: 4, Signed: true}}},
			WindowLen:  W,
			TraceEvery: every,
			Obs:        reg,
		}
		h := runtime.NewHost("a", 1, 0, cfg, &discardSender{net: hostNet}, map[string]string{"b": "b"})
		col := telemetry.NewCollector(reg, 0)
		h.SetTraceSink(col.Ingest)
		if err := h.Out(inv, [][]uint64{data}); err != nil { // warm pools
			return nil, fmt.Errorf("E14 host every=%d: %w", every, err)
		}
		var wall time.Duration
		var allocs float64
		for rep := 0; rep < 3; rep++ { // best-of-3 against timer noise
			var before, after gort.MemStats
			gort.ReadMemStats(&before)
			start := time.Now()
			for r := 0; r < reps; r++ {
				if err := h.Out(inv, [][]uint64{data}); err != nil {
					return nil, fmt.Errorf("E14 host every=%d: %w", every, err)
				}
			}
			w := time.Since(start)
			gort.ReadMemStats(&after)
			if rep == 0 || w < wall {
				wall = w
				allocs = float64(after.Mallocs-before.Mallocs) / float64(reps*hostWindows)
			}
		}
		if every == 0 {
			hostBase = wall
		}
		addE14Row(t, "host-out", every, wall, hostBase, allocs, reps*hostWindows)
	}

	// --- Switch receive path: pre-marshaled packets through the serial
	// node; a 1-in-N mix interleaves one traced packet per N-1 untraced,
	// matching what host-side sampling puts on the wire.
	art, err := BuildAllReduce(2, 256, W)
	if err != nil {
		return nil, err
	}
	prog := art.Programs["s1"]
	kern := prog.KernelByName("allreduce")
	swNet, err := and.Parse("switch s1 id=1\nhost a role=0\nhost b role=1\nlink a s1\nlink s1 b")
	if err != nil {
		return nil, err
	}
	payload, err := ncp.EncodePayload([][]uint64{make([]uint64, W)},
		[]ncp.ParamSpec{{Elems: W, Bytes: 4, Signed: true}})
	if err != nil {
		return nil, err
	}
	plain, err := ncp.Marshal(&ncp.Header{
		KernelID: kern.ID, WindowLen: W, Sender: 1, FragCount: 1,
	}, nil, payload)
	if err != nil {
		return nil, err
	}
	traced, err := ncp.MarshalHops(&ncp.Header{
		KernelID: kern.ID, WindowLen: W, Sender: 1, FragCount: 1,
	}, nil, []ncp.Hop{{Loc: 1, Kind: ncp.HopHost, Event: ncp.EventSend, KernelID: kern.ID}}, payload)
	if err != nil {
		return nil, err
	}
	var swBase time.Duration
	for _, every := range samplings {
		sn := netsim.NewSwitchNode("s1", art.Target)
		if err := sn.Install(prog, prog.LocID); err != nil {
			return nil, err
		}
		sn.SetRouting(netsim.SinglePath(swNet.NextHops()["s1"], map[uint32]string{1: "a", 2: "b"}))
		sn.SetDepthSource(func() int { return 0 })
		if err := sn.Device().WriteRegister("nworkers", 0, 1); err != nil {
			return nil, err
		}
		sink := &discardSender{net: swNet}
		pktFor := func(i int) []byte {
			if every > 0 && i%every == 0 {
				return traced
			}
			return plain
		}
		for i := 0; i < 64; i++ { // warm pools
			sn.Receive(sink, &netsim.Packet{Src: "a", Dst: "b", Data: pktFor(i)}, "a")
		}
		// Best-of-3: single 80ms runs swing several percent with GC and
		// scheduler noise, which would drown the 1/64 overhead signal.
		var wall time.Duration
		var allocs float64
		for rep := 0; rep < 3; rep++ {
			var before, after gort.MemStats
			gort.ReadMemStats(&before)
			start := time.Now()
			for i := 0; i < swWindows; i++ {
				sn.Receive(sink, &netsim.Packet{Src: "a", Dst: "b", Data: pktFor(i)}, "a")
			}
			w := time.Since(start)
			gort.ReadMemStats(&after)
			if rep == 0 || w < wall {
				wall = w
				allocs = float64(after.Mallocs-before.Mallocs) / float64(swWindows)
			}
		}
		if every == 0 {
			swBase = wall
		}
		addE14Row(t, "switch-recv", every, wall, swBase, allocs, swWindows)
	}
	return t, nil
}

func addE14Row(t *Table, path string, every int, wall, base time.Duration, allocs float64, windows int) {
	label := fmt.Sprintf("%s off", path)
	if every > 0 {
		label = fmt.Sprintf("%s 1/%d", path, every)
	}
	overhead := "baseline"
	if wall != base {
		overhead = fmt.Sprintf("%+.1f%%", (float64(wall)/float64(base)-1)*100)
	}
	t.AddRow(label,
		fmt.Sprintf("%.1f", float64(wall)/float64(time.Millisecond)),
		fmt.Sprintf("%.0f", float64(windows)/wall.Seconds()),
		overhead,
		fmt.Sprintf("%.2f", allocs))
}
