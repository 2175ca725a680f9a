package ncl_test

// One benchmark per experiment of DESIGN.md §4 (E1-E8), plus micro
// benchmarks of the core engines. `go test -bench=. -benchmem` regenerates
// the numbers recorded in EXPERIMENTS.md; `go run ./cmd/ncl-bench` prints
// them as tables.

import (
	"fmt"
	"testing"
	"time"

	"ncl"
	"ncl/internal/and"
	"ncl/internal/baseline"
	"ncl/internal/bench"
	"ncl/internal/core"
	"ncl/internal/ncl/hostgen"
	"ncl/internal/ncl/interp"
	"ncl/internal/ncp"
	"ncl/internal/netsim"
	"ncl/internal/pisa"
	"ncl/internal/runtime"
)

// sinkSender drops every packet: the pipeline benchmarks measure the
// switch receive path alone, not a transport.
type sinkSender struct{ net *and.Network }

func (d *sinkSender) Network() *and.Network                    { return d.net }
func (d *sinkSender) Send(_, _ string, _ *netsim.Packet) error { return nil }

// --- E1: compile both example apps, report complexity metrics ---

func BenchmarkE1Complexity(b *testing.B) {
	apps := []struct {
		name string
		ncl  string
		and  string
		w    int
	}{
		{"allreduce", bench.AllReduceNCL(256), bench.AllReduceAND(4), 8},
		{"kvcache", bench.KVSNCL(64, 16), bench.KVSAND, 16},
	}
	for _, app := range apps {
		b.Run(app.name, func(b *testing.B) {
			var art *core.Artifact
			var err error
			for i := 0; i < b.N; i++ {
				art, err = core.Build(app.ncl, app.and, core.BuildOptions{WindowLen: app.w, ModuleName: app.name})
				if err != nil {
					b.Fatal(err)
				}
			}
			st := art.P4Stats["s1"]
			b.ReportMetric(float64(art.SourceLines), "ncl-lines")
			b.ReportMetric(float64(st.Lines), "p4-lines")
			b.ReportMetric(float64(st.Lines)/float64(art.SourceLines), "expansion-x")
		})
	}
}

// --- E2: AllReduce round, INC vs parameter-server baseline ---

func BenchmarkE2AllReduceINC(b *testing.B) {
	const dataLen = 256
	for _, workers := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			art, err := bench.BuildAllReduce(workers, dataLen, 8)
			if err != nil {
				b.Fatal(err)
			}
			var last bench.AllReduceRun
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				last, err = bench.RunINCAllReduce(art, workers, dataLen)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(last.HostBytes), "host-bytes")
			b.ReportMetric(float64(last.HostBytes)/float64(workers), "bottleneck-bytes")
		})
	}
}

func BenchmarkE2AllReducePSBaseline(b *testing.B) {
	const dataLen = 256
	for _, workers := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var last baseline.AllReduceStats
			var err error
			for i := 0; i < b.N; i++ {
				last, err = baseline.RunPSAllReduce(workers, dataLen, 8)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(last.HostBytes), "host-bytes")
			b.ReportMetric(float64(last.ServerBytes), "bottleneck-bytes")
		})
	}
}

// --- E3: KVS cache under skew ---

func BenchmarkE3KVS(b *testing.B) {
	for _, skew := range []float64{0, 0.9, 0.99, 1.2} {
		b.Run(fmt.Sprintf("zipf=%.2f", skew), func(b *testing.B) {
			var last bench.KVSRun
			var err error
			for i := 0; i < b.N; i++ {
				last, err = bench.RunINCKVS(4096, 64, 16, 200, skew, 42)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*float64(last.Hits)/float64(last.Requests), "hit-%")
			b.ReportMetric(float64(last.ServerHandled), "server-load")
		})
	}
}

func BenchmarkE3KVSNoCacheBaseline(b *testing.B) {
	z := bench.NewZipf(4096, 0.99, 42)
	keys := z.Sample(200)
	var last baseline.KVStats
	var err error
	for i := 0; i < b.N; i++ {
		last, err = baseline.RunKVS(keys, 16)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(last.ServerHandled), "server-load")
}

// --- E4: window length sweep ---

func BenchmarkE4WindowSweep(b *testing.B) {
	const dataLen = 256
	for _, w := range []int{1, 4, 8, 16, 64} {
		b.Run(fmt.Sprintf("W=%d", w), func(b *testing.B) {
			art, err := bench.BuildAllReduce(2, dataLen, w)
			if err != nil {
				b.Fatal(err)
			}
			var last bench.AllReduceRun
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				last, err = bench.RunINCAllReduce(art, 2, dataLen)
				if err != nil {
					b.Fatal(err)
				}
			}
			good := float64(2*2*dataLen*4) / float64(last.TotalBytes)
			b.ReportMetric(good, "goodput-frac")
			b.ReportMetric(float64(last.TotalBytes), "wire-bytes")
		})
	}
}

// --- E5: NCP marshal/decode microbenchmarks ---

func BenchmarkE5NCPMarshal(b *testing.B) {
	h := &ncp.Header{KernelID: 1, WindowSeq: 7, WindowLen: 8, Sender: 3, FragCount: 1}
	payload := make([]byte, 256)
	user := []uint64{42}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ncp.Marshal(h, user, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE5NCPDecode(b *testing.B) {
	h := &ncp.Header{KernelID: 1, WindowSeq: 7, WindowLen: 8, Sender: 3, FragCount: 1}
	pkt, err := ncp.Marshal(h, []uint64{42}, make([]byte, 256))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := ncp.Decode(pkt); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E6: compiler pipeline ---

func BenchmarkE6CompileAllReduce(b *testing.B) {
	src, andSrc := bench.AllReduceNCL(256), bench.AllReduceAND(4)
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(src, andSrc, core.BuildOptions{WindowLen: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE6CompileKVS(b *testing.B) {
	src := bench.KVSNCL(64, 16)
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(src, bench.KVSAND, core.BuildOptions{WindowLen: 16}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E7: backends ---

func BenchmarkE7InMemoryBackend(b *testing.B) {
	art, err := bench.BuildAllReduce(2, 128, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunINCAllReduce(art, 2, 128); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE7UDPBackend(b *testing.B) {
	art, err := bench.BuildAllReduce(2, 128, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dep, err := art.DeployUDP()
		if err != nil {
			b.Skipf("UDP unavailable: %v", err)
		}
		_, err = bench.RunAllReduceRound(dep, 2, 128)
		dep.Stop()
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- E8: recirculation cost ---

func BenchmarkE8Recirculation(b *testing.B) {
	for _, k := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("passes=%d", k), func(b *testing.B) {
			art, err := core.Build(bench.RecircNCL(k), bench.RecircAND,
				core.BuildOptions{WindowLen: k, ModuleName: "recirc"})
			if err != nil {
				b.Fatal(err)
			}
			prog := art.Programs["s1"]
			sw := pisa.NewSwitch(art.Target)
			if err := sw.Load(prog); err != nil {
				b.Fatal(err)
			}
			kern := prog.KernelByName("touch")
			win := &interp.Window{Meta: map[string]uint64{}}
			win.Data = append(win.Data, make([]uint64, k))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sw.ExecWindow(kern.ID, win); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(kern.Passes)), "passes")
		})
	}
}

// --- Reliable transport: pipelined vs stop-and-wait over a lossy fabric ---

const reliableBenchNCL = `
_net_ _at_("s1") unsigned seen;

_net_ _out_ void forward(int *data) {
    seen += 1;
}

_net_ _in_ void sink(int *data, _ext_ int *out) {
    out[0] = data[0];
}
`

const reliableBenchAND = "switch s1 id=1\nhost a role=0\nhost b role=1\nlink a s1\nlink s1 b"

// BenchmarkReliableLossy sends a 64-window reliable invocation across a
// 10%-lossy fabric with the stop-and-wait degenerate case (Window=1)
// against the pipelined sliding window (Window=32). Serial mode pays
// each loss's retransmit timeout sequentially; the sliding window
// overlaps them, which is the whole point of the transport.
func BenchmarkReliableLossy(b *testing.B) {
	const (
		W       = 8
		windows = 64
	)
	art, err := core.Build(reliableBenchNCL, reliableBenchAND,
		core.BuildOptions{WindowLen: W, ModuleName: "rel"})
	if err != nil {
		b.Fatal(err)
	}
	data := make([]uint64, windows*W)
	for i := range data {
		data[i] = uint64(i)
	}
	for _, bc := range []struct {
		name string
		wnd  int
	}{{"serial", 1}, {"pipelined-32", 32}} {
		b.Run(bc.name, func(b *testing.B) {
			var retx uint64
			for i := 0; i < b.N; i++ {
				dep, err := art.Deploy(ncl.Faults{DropProb: 0.1, Seed: int64(i + 1)})
				if err != nil {
					b.Fatal(err)
				}
				if err := dep.Hosts["a"].OutReliable(
					runtime.Invocation{Kernel: "forward", Dest: "b"}, [][]uint64{data},
					runtime.ReliableOptions{Timeout: 2 * time.Millisecond, Retries: 20, Window: bc.wnd},
				); err != nil {
					dep.Stop()
					b.Fatal(err)
				}
				retx += dep.Obs.Snapshot().Counters["host.a.retransmits"]
				dep.Stop()
			}
			b.ReportMetric(float64(retx)/float64(b.N), "retransmits")
		})
	}
}

// --- core engine microbenchmarks ---

// BenchmarkPisaPipeline measures raw simulated-switch throughput on the
// Fig. 4 kernel (windows/second the simulator can sustain).
func BenchmarkPisaPipeline(b *testing.B) {
	art, err := bench.BuildAllReduce(2, 256, 8)
	if err != nil {
		b.Fatal(err)
	}
	prog := art.Programs["s1"]
	sw := pisa.NewSwitch(art.Target)
	if err := sw.Load(prog); err != nil {
		b.Fatal(err)
	}
	if err := sw.WriteRegister("nworkers", 0, 1); err != nil {
		b.Fatal(err)
	}
	kern := prog.KernelByName("allreduce")
	win := &interp.Window{Meta: map[string]uint64{"seq": 0}}
	win.Data = append(win.Data, make([]uint64, 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sw.ExecWindow(kern.ID, win); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSwitchExec compares the pre-compilation tree-walking engine
// (pisa.Reference) against the compiled execution plan on the Fig. 4
// kernel — the E12 speedup claim as a Go benchmark. The batch-of-1
// variant is the entry point the SwitchNode data plane uses, in its
// degenerate case; -benchmem shows the pooled scratch keeping the plan
// paths allocation-flat.
func BenchmarkSwitchExec(b *testing.B) {
	art, err := bench.BuildAllReduce(2, 256, 8)
	if err != nil {
		b.Fatal(err)
	}
	prog := art.Programs["s1"]
	kern := prog.KernelByName("allreduce")

	b.Run("reference", func(b *testing.B) {
		ref := pisa.NewReference(art.Target)
		if err := ref.Load(prog); err != nil {
			b.Fatal(err)
		}
		if err := ref.WriteRegister("nworkers", 0, 1); err != nil {
			b.Fatal(err)
		}
		win := &interp.Window{Data: [][]uint64{make([]uint64, 8)}, Meta: map[string]uint64{"seq": 0}}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ref.ExecWindow(kern.ID, win); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compiled", func(b *testing.B) {
		sw := pisa.NewSwitch(art.Target)
		if err := sw.Load(prog); err != nil {
			b.Fatal(err)
		}
		if err := sw.WriteRegister("nworkers", 0, 1); err != nil {
			b.Fatal(err)
		}
		win := &interp.Window{Data: [][]uint64{make([]uint64, 8)}, Meta: map[string]uint64{"seq": 0}}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sw.ExecWindow(kern.ID, win); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compiled-batch1", func(b *testing.B) {
		sw := pisa.NewSwitch(art.Target)
		if err := sw.Load(prog); err != nil {
			b.Fatal(err)
		}
		if err := sw.WriteRegister("nworkers", 0, 1); err != nil {
			b.Fatal(err)
		}
		job := [1]pisa.BatchJob{{Data: [][]uint64{make([]uint64, 8)}}}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sw.ExecWindowBatch(kern.ID, job[:], prog.LocID); err != nil {
				b.Fatal(err)
			}
			if job[0].Err != nil {
				b.Fatal(job[0].Err)
			}
		}
	})
}

// BenchmarkSwitchPipeline measures the whole device receive path — NCP
// decode, plan execution, repack, forward — one burst of one per window.
func BenchmarkSwitchPipeline(b *testing.B) {
	art, err := bench.BuildAllReduce(2, 256, 8)
	if err != nil {
		b.Fatal(err)
	}
	prog := art.Programs["s1"]
	kern := prog.KernelByName("allreduce")
	net := art.Net
	payload, err := ncp.EncodePayload([][]uint64{make([]uint64, 8)},
		[]ncp.ParamSpec{{Elems: 8, Bytes: 4, Signed: true}})
	if err != nil {
		b.Fatal(err)
	}
	pktBytes, err := ncp.Marshal(&ncp.Header{
		KernelID: kern.ID, WindowLen: 8, Sender: 1, FragCount: 1,
	}, nil, payload)
	if err != nil {
		b.Fatal(err)
	}
	sn := netsim.NewSwitchNode("s1", art.Target)
	if err := sn.Install(prog, prog.LocID); err != nil {
		b.Fatal(err)
	}
	sn.SetRoutes(net.NextHops()["s1"])
	sn.SetHosts(map[uint32]string{1: "worker0", 2: "worker1"})
	if err := sn.Device().WriteRegister("nworkers", 0, 1); err != nil {
		b.Fatal(err)
	}
	sink := &sinkSender{net: net}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sn.Receive(sink, &netsim.Packet{Src: "worker0", Dst: "worker1", Data: pktBytes}, "worker0")
	}
}

// BenchmarkHostInKernel measures the host half on Fig. 4's result window
// (W=8): the compiled plan Host.In runs, and beside it the path it
// replaced and is tested against — payload decode, metadata map, tree-walk
// of the same IR. The pair shares window, host buffers and process, so
// its ratio holds where a single ns figure wanders with the machine.
func BenchmarkHostInKernel(b *testing.B) {
	art, err := bench.BuildAllReduce(2, 256, 8)
	if err != nil {
		b.Fatal(err)
	}
	f := art.Host.FuncByName("result")
	specs := []ncp.ParamSpec{{Elems: 8, Bytes: 4, Signed: true}}
	raw, err := ncp.EncodePayload([][]uint64{{1, 2, 3, 4, 5, 6, 7, 8}}, specs)
	if err != nil {
		b.Fatal(err)
	}
	ext := [][]uint64{make([]uint64, 256), make([]uint64, 1)}

	b.Run("plan", func(b *testing.B) {
		plan := hostgen.Lower(f, nil)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w := hostgen.Window{Raw: raw, Seq: uint64(i % 32), Len: 8, Sender: 1, Wid: 1, Ext: ext}
			if err := plan.Run(&w); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("interp", func(b *testing.B) {
		st := interp.NewState(art.Host)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			data, err := ncp.DecodePayload(raw, specs)
			if err != nil {
				b.Fatal(err)
			}
			win := &interp.Window{Data: data, Ext: ext, Meta: map[string]uint64{
				"seq": uint64(i % 32), "len": 8, "from": 0, "sender": 1, "wid": 1}}
			if _, err := interp.Exec(f, st, win); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEndToEndWindow measures one window's full journey: host encode
// -> fabric -> switch pipeline -> decision.
func BenchmarkEndToEndWindow(b *testing.B) {
	art, err := ncl.Build(bench.AllReduceNCL(256), bench.AllReduceAND(2),
		ncl.BuildOptions{WindowLen: 8})
	if err != nil {
		b.Fatal(err)
	}
	dep, err := art.Deploy(ncl.Faults{})
	if err != nil {
		b.Fatal(err)
	}
	defer dep.Stop()
	if err := dep.Controller.CtrlWrite("nworkers", 0, 2); err != nil {
		b.Fatal(err)
	}
	host := dep.Hosts["worker0"]
	data := make([]uint64, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := host.OutWindow(ncl.Invocation{Kernel: "allreduce", Dest: "s1"},
			host.NewWid(), uint32(i%32), [][]uint64{data}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E9: hierarchical aggregation ---

func BenchmarkE9Hierarchy(b *testing.B) {
	for _, perRack := range []int{2, 4} {
		b.Run(fmt.Sprintf("workersPerRack=%d", perRack), func(b *testing.B) {
			var last bench.HierRun
			var err error
			for i := 0; i < b.N; i++ {
				last, err = bench.RunHierAllReduce(perRack, 256, 8)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(last.CoreUpBytes), "coreup-bytes")
		})
	}
}
