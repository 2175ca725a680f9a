package ncl_test

// One Go micro-benchmark per stage of a window's life, for paired
// benchstat comparisons of two builds (`go test -c` both, alternate them):
// NCP encode/decode, switch exec (reference vs plan), the whole switch
// hop, the host incoming kernel, one window end to end, a recirculating
// kernel per pass count, and the reliable transport under loss (E10). The
// send path's SendWorkers sweep is BenchmarkOutParallel in
// internal/runtime. The result tables are `go run ./cmd/ncl-bench`; the
// numbers a change is judged on are `go run ./benchmark`.

import (
	"fmt"
	"testing"
	"time"

	"ncl"
	"ncl/internal/and"
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

func (d *sinkSender) Network() *and.Network                              { return d.net }
func (d *sinkSender) SendBatch(string, []string, []*netsim.Packet) error { return nil }

// --- NCP marshal/decode ---

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

// --- recirculation cost (E8's pass counts, timed) ---

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
// overlaps them and detects most losses from the acks of later windows,
// which is the whole point of the transport.
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
			var retx, fast uint64
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
				snap := dep.Obs.Snapshot()
				retx += snap.Counters["host.a.retransmits"]
				fast += snap.Counters["host.a.fast_retransmits"]
				dep.Stop()
			}
			b.ReportMetric(float64(retx)/float64(b.N), "retransmits")
			b.ReportMetric(float64(fast)/float64(b.N), "fast-retransmits")
		})
	}
}

// --- core engine microbenchmarks ---

// BenchmarkSwitchExec compares the pre-compilation tree-walking engine
// (pisa.Reference) against the compiled execution plan on the Fig. 4
// kernel (the plan's ≥2x claim, DESIGN.md §5.9). The batch-of-1
// variant is the entry point the SwitchNode data plane uses, in its
// degenerate case, which takes the device lock once per window; batch64
// takes it once per 64 windows, what the benchmark's
// pisa.exec_ns_per_window probe times. -benchmem shows the kernel's one
// scratch keeping the plan paths allocation-flat. ns/op is per window in every row.
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
	b.Run("compiled-batch64", func(b *testing.B) {
		sw := pisa.NewSwitch(art.Target)
		if err := sw.Load(prog); err != nil {
			b.Fatal(err)
		}
		if err := sw.WriteRegister("nworkers", 0, 1); err != nil {
			b.Fatal(err)
		}
		jobs := make([]pisa.BatchJob, 64)
		for j := range jobs {
			jobs[j].Data = [][]uint64{make([]uint64, 8)}
		}
		execBatches(b, sw, kern.ID, jobs, prog.LocID)
	})
	// raw-batch64 is the switch data path's form of the same batch: each
	// job carries the window's payload bytes, parsed and deparsed in place,
	// where compiled-batch64 pays the Data adapter's encode and decode.
	b.Run("raw-batch64", func(b *testing.B) {
		sw := pisa.NewSwitch(art.Target)
		if err := sw.Load(prog); err != nil {
			b.Fatal(err)
		}
		if err := sw.WriteRegister("nworkers", 0, 1); err != nil {
			b.Fatal(err)
		}
		jobs := make([]pisa.BatchJob, 64)
		for j := range jobs {
			jobs[j].Raw = make([]byte, kern.PayloadBytes())
		}
		execBatches(b, sw, kern.ID, jobs, prog.LocID)
	})
}

// execBatches runs b.N windows through ExecWindowBatch, len(jobs) at a time.
func execBatches(b *testing.B, sw *pisa.Switch, kernel uint32, jobs []pisa.BatchJob, loc uint32) {
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += len(jobs) {
		batch := jobs[:min(len(jobs), b.N-done)]
		if err := sw.ExecWindowBatch(kernel, batch, loc); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for j := range jobs {
		if jobs[j].Err != nil {
			b.Fatal(jobs[j].Err)
		}
	}
}

// BenchmarkSwitchExecKVS is the same pair on the Fig. 5 cache's GET-hit
// path (a table lookup, a predicated SALU read per value byte and a
// reflect), warmed through the kernel's own update path: the oracle one
// window per call, the plan in 64-window batches as the benchmark's
// pisa.kvs_hit_ns_per_window probe runs it. ns/op is per window.
func BenchmarkSwitchExecKVS(b *testing.B) {
	const cached, valBytes, server, client = 64, 16, 1, 2
	art, err := core.Build(bench.KVSNCL(cached, valBytes), bench.KVSAND,
		core.BuildOptions{WindowLen: valBytes, ModuleName: "kvs"})
	if err != nil {
		b.Fatal(err)
	}
	prog := art.Programs["s1"]
	kid := prog.KernelByName("query").ID
	warm := func(b *testing.B, dev interface {
		Load(*pisa.Program) error
		InstallEntry(string, uint64, uint64) error
		ExecWindow(uint32, *interp.Window) (interp.Decision, error)
	}) {
		if err := dev.Load(prog); err != nil {
			b.Fatal(err)
		}
		for k := uint64(0); k < cached; k++ {
			if err := dev.InstallEntry("Idx", k, k); err != nil {
				b.Fatal(err)
			}
			val := make([]uint64, valBytes)
			for i := range val {
				val[i] = (k + uint64(i)) & 0x7F
			}
			update := &interp.Window{Data: [][]uint64{{k}, val, {1}}, Meta: map[string]uint64{"from": server, "len": valBytes}}
			if _, err := dev.ExecWindow(kid, update); err != nil {
				b.Fatal(err)
			}
		}
	}
	hit := func(b *testing.B, key uint64, dec interp.Decision, val []uint64) {
		if dec.Kind != interp.Reflect || val[1] != (key+1)&0x7F {
			b.Fatalf("GET of cached key %d did not hit: %+v %v", key, dec, val)
		}
	}
	b.Run("reference", func(b *testing.B) {
		ref := pisa.NewReference(art.Target)
		warm(b, ref)
		win := &interp.Window{Data: [][]uint64{{0}, make([]uint64, valBytes), {0}}, Meta: map[string]uint64{"from": client, "len": valBytes}}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			win.Data[0][0] = uint64(i % cached)
			dec, err := ref.ExecWindow(kid, win)
			if err != nil {
				b.Fatal(err)
			}
			hit(b, win.Data[0][0], dec, win.Data[1])
		}
	})
	b.Run("compiled", func(b *testing.B) {
		sw := pisa.NewSwitch(art.Target)
		warm(b, sw)
		jobs := make([]pisa.BatchJob, 64)
		for j := range jobs {
			jobs[j].Data = [][]uint64{{uint64(j % cached)}, make([]uint64, valBytes), {0}}
			jobs[j].Meta = pisa.WindowMeta{Len: valBytes, From: client}
		}
		execBatches(b, sw, kid, jobs, prog.LocID)
		for j := range jobs[:min(len(jobs), b.N)] {
			hit(b, uint64(j%cached), jobs[j].Dec, jobs[j].Data[1])
		}
	})
}

// BenchmarkSwitchPipeline measures the whole device receive path — NCP
// decode, plan execution on the payload bytes, in-place edit, forward —
// one burst of one per window, W=8: Fig. 4's allreduce with one worker,
// so every window completes and broadcasts to both worker hosts (bcast),
// and a counting kernel that passes every window on (pass). The switch
// edits the replayed bytes in place; each replay is still a valid window.
func BenchmarkSwitchPipeline(b *testing.B) {
	allreduce, err := bench.BuildAllReduce(2, 256, 8)
	if err != nil {
		b.Fatal(err)
	}
	counter, err := core.Build(reliableBenchNCL, reliableBenchAND, core.BuildOptions{WindowLen: 8, ModuleName: "rel"})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name, kernel, src, dst string
		art                    *core.Artifact
	}{
		{"bcast", "allreduce", "worker0", "worker1", allreduce},
		{"pass", "forward", "a", "b", counter},
	} {
		b.Run(bc.name, func(b *testing.B) {
			prog := bc.art.Programs["s1"]
			payload, err := ncp.EncodePayload([][]uint64{make([]uint64, 8)},
				[]ncp.ParamSpec{{Elems: 8, Bytes: 4, Signed: true}})
			if err != nil {
				b.Fatal(err)
			}
			pktBytes, err := ncp.Marshal(&ncp.Header{
				KernelID: prog.KernelByName(bc.kernel).ID, WindowLen: 8, Sender: 1, FragCount: 1,
			}, nil, payload)
			if err != nil {
				b.Fatal(err)
			}
			sn := netsim.NewSwitchNode("s1", bc.art.Target)
			if err := sn.Install(prog, prog.LocID); err != nil {
				b.Fatal(err)
			}
			sn.SetRouting(netsim.SinglePath(bc.art.Net.NextHops()["s1"], map[uint32]string{1: bc.src, 2: bc.dst}))
			if bc.kernel == "allreduce" {
				if err := sn.Device().WriteRegister("nworkers", 0, 1); err != nil {
					b.Fatal(err)
				}
			}
			sink := &sinkSender{net: bc.art.Net}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sn.Receive(sink, &netsim.Packet{Src: bc.src, Dst: bc.dst, Data: pktBytes}, bc.src)
			}
			b.StopTimer()
			if n := sn.Errors.Load(); n != 0 {
				b.Fatalf("switch counted %d errors", n)
			}
		})
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
