package bench

import (
	"fmt"
	"time"

	"ncl/internal/baseline"
	"ncl/internal/core"
	"ncl/internal/model"
	"ncl/internal/ncp"
)

// An Experiment is one result table of EXPERIMENTS.md: a claim of the
// paper demonstrated, or a ratio measured within one run and held to a
// floor. What a stage costs is not here: benchmark/ times the stages.
type Experiment struct {
	ID string
	// run builds the table; quick asks for the fewest repetitions that
	// still fill every row, which is what the package test can afford
	// under the race detector. The tables EXPERIMENTS.md records are
	// run(false).
	run func(quick bool) (*Table, error)
}

// Run produces the table at the size EXPERIMENTS.md records.
func (e Experiment) Run() (*Table, error) { return e.run(false) }

// Experiments is the evaluation in the order ncl-bench prints it and
// DESIGN.md §4 indexes it. E10 (reliable transport) is a Go benchmark
// (BenchmarkReliableLossy); E11, E12 and E15 were stage timings and are
// probes of benchmark/ (EXPERIMENTS.md, "Retired rows").
var Experiments = []Experiment{
	{"E1", e1Complexity},
	{"E2", e2AllReduce},
	{"E3", e3KVS},
	{"E4", e4WindowSweep},
	{"E5", e5NCP},
	{"E6", e6Compile},
	{"E7", e7Backends},
	{"E8", e8Recirc},
	{"E9", e9Hierarchy},
	{"E13", e13LossyReliable},
	{"E13", e13ReliableGoodput},
	{"E14", e14Telemetry},
	{"E16", e16Placement},
	{"E17", e17Scale},
	{"E18", e18Tenancy},
}

// e1Complexity reproduces the paper's central programmability claim
// (§2, Fig. 1b): the NCL source is an order of magnitude smaller than the
// P4-level artifact the compiler generates in its place.
func e1Complexity(_ bool) (*Table, error) {
	t := &Table{
		Title:  "E1: programming complexity — NCL source vs generated P4-level artifact",
		Header: []string{"app", "ncl-lines", "p4-lines", "tables", "actions", "stateful", "stages", "passes"},
	}
	apps := []struct {
		name string
		ncl  string
		and  string
		w    int
	}{
		{"allreduce", AllReduceNCL(256), AllReduceAND(4), 8},
		{"kvcache", KVSNCL(64, 16), KVSAND, 16},
	}
	for _, app := range apps {
		art, err := core.Build(app.ncl, app.and, core.BuildOptions{WindowLen: app.w, ModuleName: app.name})
		if err != nil {
			return nil, fmt.Errorf("E1 %s: %w", app.name, err)
		}
		st := art.P4Stats["s1"]
		t.AddRow(app.name,
			fmt.Sprint(art.SourceLines), fmt.Sprint(st.Lines),
			fmt.Sprint(st.Tables), fmt.Sprint(st.Actions), fmt.Sprint(st.StatefulActions),
			fmt.Sprint(st.Stages), fmt.Sprint(st.Passes))
	}
	return t, nil
}

// e2AllReduce sweeps the worker count: measured fabric traffic for the
// in-network AllReduce vs the parameter-server baseline, plus the
// analytic completion-time model at 100 Gb/s. The paper-shape claims:
// the PS bottleneck grows linearly with N while INC stays flat.
func e2AllReduce(_ bool) (*Table, error) {
	const dataLen = 256
	const w = 8
	t := &Table{
		Title:  "E2: AllReduce — in-network aggregation vs parameter server (array 256 x int32)",
		Header: []string{"workers", "inc-host-B", "ps-host-B", "inc-bottleneck-B", "ps-bottleneck-B", "sim-inc-us", "sim-ps-us", "model-inc-us", "model-ps-us", "model-ring-us"},
	}
	for _, workers := range []int{2, 4, 8, 16} {
		art, err := BuildAllReduce(workers, dataLen, w)
		if err != nil {
			return nil, fmt.Errorf("E2 N=%d: %w", workers, err)
		}
		inc, err := RunINCAllReduce(art, workers, dataLen)
		if err != nil {
			return nil, fmt.Errorf("E2 N=%d: %w", workers, err)
		}
		ps, err := baseline.RunPSAllReduce(workers, dataLen, w)
		if err != nil {
			return nil, fmt.Errorf("E2 N=%d baseline: %w", workers, err)
		}
		// Bottleneck link: for INC the busiest worker link carries ~its own
		// share; for PS everything funnels into the server link.
		incBottleneck := inc.HostBytes / uint64(workers)
		cfg := model.AllReduceConfig{Workers: workers, DataBytes: dataLen * 4, Link: model.DefaultLink}
		t.AddRow(fmt.Sprint(workers),
			fmt.Sprint(inc.HostBytes), fmt.Sprint(ps.HostBytes),
			fmt.Sprint(incBottleneck), fmt.Sprint(ps.ServerBytes),
			fmt.Sprintf("%.1f", inc.MakespanUs),
			fmt.Sprintf("%.1f", ps.MakespanUs),
			fmt.Sprintf("%.1f", model.INCAllReduceUs(cfg)),
			fmt.Sprintf("%.1f", model.PSAllReduceUs(cfg)),
			fmt.Sprintf("%.1f", model.RingAllReduceUs(cfg)))
	}
	return t, nil
}

// e3KVS sweeps workload skew: switch hit rate, storage-server load, and
// the modeled system throughput (NetCache shape: a tiny cache of hot keys
// multiplies throughput under skew).
func e3KVS(_ bool) (*Table, error) {
	const (
		keys     = 4096
		cacheCap = 64
		valBytes = 16
		requests = 400
	)
	t := &Table{
		Title:  "E3: KVS — in-network cache under zipf skew (4096 keys, 64-entry cache)",
		Header: []string{"skew", "hit-rate", "server-load", "server-B", "model-hit", "model-qps(x-server)"},
	}
	for _, s := range []float64{0, 0.9, 0.99, 1.2} {
		run, err := RunINCKVS(keys, cacheCap, valBytes, requests, s, 42)
		if err != nil {
			return nil, fmt.Errorf("E3 s=%.2f: %w", s, err)
		}
		mh := model.ZipfHitRate(keys, cacheCap, s)
		q := model.KVSThroughputQPS(model.KVSConfig{ServerQPS: 1, SwitchQPS: 1e6, HitRate: mh})
		t.AddRow(fmt.Sprintf("%.2f", s),
			fmt.Sprintf("%.1f%%", 100*float64(run.Hits)/float64(requests)),
			fmt.Sprintf("%.1f%%", 100*float64(run.ServerHandled)/float64(requests)),
			fmt.Sprint(run.ServerBytes),
			fmt.Sprintf("%.1f%%", 100*mh),
			fmt.Sprintf("%.1fx", q))
	}
	return t, nil
}

// e4WindowSweep measures the window abstraction's cost/benefit (§4.2):
// per-window NCP overhead amortizes as W grows, while switch work per
// byte falls.
func e4WindowSweep(_ bool) (*Table, error) {
	const dataLen = 256
	const workers = 2
	t := &Table{
		Title:  "E4: window length sweep — AllReduce, 256 x int32, 2 workers",
		Header: []string{"W", "windows", "wire-bytes", "goodput-frac", "switch-windows"},
	}
	for _, w := range []int{1, 2, 4, 8, 16, 32, 64} {
		art, err := BuildAllReduce(workers, dataLen, w)
		if err != nil {
			return nil, fmt.Errorf("E4 W=%d: %w", w, err)
		}
		run, err := RunINCAllReduce(art, workers, dataLen)
		if err != nil {
			return nil, fmt.Errorf("E4 W=%d: %w", w, err)
		}
		good := float64(workers*2*dataLen*4) / float64(run.TotalBytes)
		t.AddRow(fmt.Sprint(w), fmt.Sprint(dataLen/w), fmt.Sprint(run.TotalBytes),
			fmt.Sprintf("%.2f", good), fmt.Sprint(run.SwitchWins))
	}
	// Multi-window packets (§4.2): batching amortizes the header at a
	// fixed window length instead of growing W (and its PHV footprint).
	for _, batch := range []int{2, 4, 8} {
		art, err := core.Build(AllReduceNCL(dataLen), AllReduceAND(workers),
			core.BuildOptions{WindowLen: 8, ModuleName: "allreduce", Batch: batch})
		if err != nil {
			return nil, fmt.Errorf("E4 batch=%d: %w", batch, err)
		}
		run, err := RunINCAllReduce(art, workers, dataLen)
		if err != nil {
			return nil, fmt.Errorf("E4 batch=%d: %w", batch, err)
		}
		good := float64(workers*2*dataLen*4) / float64(run.TotalBytes)
		t.AddRow(fmt.Sprintf("8 (batch %d)", batch), fmt.Sprint(dataLen/8), fmt.Sprint(run.TotalBytes),
			fmt.Sprintf("%.2f", good), fmt.Sprint(run.SwitchWins))
	}
	return t, nil
}

// e5NCP quantifies protocol overhead: header bytes relative to payload
// across window shapes.
func e5NCP(_ bool) (*Table, error) {
	t := &Table{
		Title:  "E5: NCP overhead — header+user bytes vs payload",
		Header: []string{"window", "payload-B", "packet-B", "overhead"},
	}
	shapes := []struct {
		name  string
		specs []ncp.ParamSpec
	}{
		{"1 x int32", []ncp.ParamSpec{{Elems: 1, Bytes: 4, Signed: true}}},
		{"8 x int32", []ncp.ParamSpec{{Elems: 8, Bytes: 4, Signed: true}}},
		{"64 x int32", []ncp.ParamSpec{{Elems: 64, Bytes: 4, Signed: true}}},
		{"kvs (8B key + 128B val + flag)", []ncp.ParamSpec{{Elems: 1, Bytes: 8}, {Elems: 128, Bytes: 1}, {Elems: 1, Bytes: 1}}},
	}
	for _, sh := range shapes {
		data := make([][]uint64, len(sh.specs))
		for i, sp := range sh.specs {
			data[i] = make([]uint64, sp.Elems)
		}
		payload, err := ncp.EncodePayload(data, sh.specs)
		if err != nil {
			return nil, err
		}
		pkt, err := ncp.Marshal(&ncp.Header{KernelID: 1, FragCount: 1}, nil, payload)
		if err != nil {
			return nil, err
		}
		over := float64(len(pkt)-len(payload)) / float64(len(pkt))
		t.AddRow(sh.name, fmt.Sprint(len(payload)), fmt.Sprint(len(pkt)), fmt.Sprintf("%.1f%%", 100*over))
	}
	return t, nil
}

// e6Compile reports the compiler's own behavior: stage timings and
// generated resource usage per application (Fig. 6 feasibility).
func e6Compile(_ bool) (*Table, error) {
	t := &Table{
		Title:  "E6: nclc pipeline — compile stages and generated resources",
		Header: []string{"app", "stage", "time"},
	}
	apps := []struct {
		name string
		ncl  string
		and  string
		w    int
	}{
		{"allreduce", AllReduceNCL(256), AllReduceAND(4), 8},
		{"kvcache", KVSNCL(64, 16), KVSAND, 16},
	}
	for _, app := range apps {
		art, err := core.Build(app.ncl, app.and, core.BuildOptions{WindowLen: app.w, ModuleName: app.name})
		if err != nil {
			return nil, fmt.Errorf("E6 %s: %w", app.name, err)
		}
		total := time.Duration(0)
		for _, st := range art.Stages {
			t.AddRow(app.name, st.Name, st.Duration.Round(time.Microsecond).String())
			total += st.Duration
		}
		t.AddRow(app.name, "TOTAL", total.Round(time.Microsecond).String())
	}
	return t, nil
}

// e7Backends runs the identical AllReduce over the in-memory fabric and
// over real loopback UDP sockets: NCP's backend portability (§3.2).
func e7Backends(_ bool) (*Table, error) {
	const (
		workers = 2
		dataLen = 128
		w       = 8
	)
	t := &Table{
		Title:  "E7: transport backends — same application, same results",
		Header: []string{"backend", "wall", "verified"},
	}
	art, err := BuildAllReduce(workers, dataLen, w)
	if err != nil {
		return nil, err
	}

	chanRun, err := RunINCAllReduce(art, workers, dataLen)
	if err != nil {
		return nil, fmt.Errorf("E7 chan: %w", err)
	}
	t.AddRow("in-memory", chanRun.Wall.Round(time.Microsecond).String(), "yes")

	udp, err := art.DeployUDP()
	if err != nil {
		t.AddRow("udp", "unavailable: "+err.Error(), "-")
		return t, nil
	}
	defer udp.Stop()
	udpRun, err := RunAllReduceRound(udp, workers, dataLen)
	if err != nil {
		return nil, fmt.Errorf("E7 udp: %w", err)
	}
	t.AddRow("udp-loopback", udpRun.Wall.Round(time.Microsecond).String(), "yes")
	return t, nil
}

// e8Recirc is the recirculation ablation: kernels with k unrelated
// stateful accesses to one array need k pipeline passes — the §5/§6
// pressure valve, with its cost made visible.
func e8Recirc(_ bool) (*Table, error) {
	t := &Table{
		Title:  "E8: recirculation — unrelated same-array accesses vs pipeline passes",
		Header: []string{"accesses", "passes", "status"},
	}
	for _, k := range []int{1, 2, 3, 4, 5} {
		art, err := core.Build(RecircNCL(k), RecircAND, core.BuildOptions{WindowLen: k, ModuleName: "recirc"})
		if err != nil {
			t.AddRow(fmt.Sprint(k), "-", "rejected: exceeds recirculation budget")
			continue
		}
		kern := art.Programs["s1"].KernelByName("touch")
		t.AddRow(fmt.Sprint(k), fmt.Sprint(len(kern.Passes)), "accepted")
	}
	return t, nil
}
