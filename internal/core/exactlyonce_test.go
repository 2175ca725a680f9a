package core

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"ncl/internal/ncp"
	"ncl/internal/netsim"
	"ncl/internal/runtime"
)

// lossyAllreduceNCL is the allreduce example's kernel at test scale:
// non-idempotent switch-side aggregation (accum/count mutate), the exact
// workload DESIGN §5.4's retransmission hole double-counts without the
// exactly-once shadow layer.
const lossyAllreduceNCL = `
#define DATA_LEN 64

_net_ _at_("s1") int accum[DATA_LEN] = {0};
_net_ _at_("s1") unsigned count[DATA_LEN] = {0};
_net_ _at_("s1") _ctrl_ unsigned nworkers;

_net_ _out_ void allreduce(int *data) {
    unsigned base = window.seq * window.len;
    for (unsigned i = 0; i < window.len; ++i)
        accum[base + i] += data[i];
    if (++count[window.seq] == nworkers) {
        memcpy(data, &accum[base], window.len * 4);
        count[window.seq] = 0; _bcast();
    } else { _drop(); }
}

_net_ _in_ void result(int *data, _ext_ int *hdata) {
    for (unsigned i = 0; i < window.len; ++i)
        hdata[window.seq * window.len + i] = data[i];
}
`

// soakRounds reads the chaos-job iteration override (the nightly CI run
// sets NCL_SOAK_ROUNDS much higher than the PR gate's default).
func soakRounds(def int) int {
	if s := os.Getenv("NCL_SOAK_ROUNDS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// TestExactlyOnceLossyAllreduce is the tentpole soak test: N workers run
// reliable in-network allreduce over a fabric injecting >10% loss plus
// duplication and reordering, and the switch's register state must be
// bit-exact — every contribution applied exactly once — with every
// count slot recycled back to zero. Runs under -race in CI.
func TestExactlyOnceLossyAllreduce(t *testing.T) {
	const (
		W       = 8
		dataLen = 64
		workers = 4
		windows = dataLen / W
	)
	rounds := soakRounds(3)

	overlay := fmt.Sprintf("switch s1 id=1\nhost worker count=%d role=0\nlink worker s1\n", workers)
	art, err := Build(lossyAllreduceNCL, overlay, BuildOptions{WindowLen: W, ModuleName: "lossyar"})
	if err != nil {
		t.Fatal(err)
	}
	// The compiled allreduce kernel mutates register state, so the
	// runtime must negotiate exactly-once on its own.
	cfg := art.AppConfig()
	if !cfg.NonIdempotent["allreduce"] {
		t.Fatal("allreduce not derived as non-idempotent")
	}

	dep, err := art.Deploy(netsim.Faults{
		DropProb: 0.12, DupProb: 0.12, ReorderProb: 0.05, ReorderHold: 4, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Stop()
	if err := dep.Controller.CtrlWrite("nworkers", 0, workers); err != nil {
		t.Fatal(err)
	}

	opts := runtime.ReliableOptions{Timeout: 8 * time.Millisecond, Retries: 12, Window: 16}
	allreduceRounds(t, dep, W, dataLen, workers, rounds, opts)

	sw := dep.Switches["s1"]
	// Consumed-on-path contributions are switch-acked (that's why none of
	// the OutReliable calls above timed out).
	if sw.AcksSent.Load() == 0 {
		t.Error("switch emitted no acks for consumed exactly-once windows")
	}
	// With 12% duplication plus retransmits over this many windows, the
	// shadow layer must have suppressed real duplicates.
	if sw.DupSuppressed.Load() == 0 {
		t.Error("no duplicates suppressed despite injected duplication")
	}
	if dep.Obs.Gauge("pisa.s1.shadow_slots").Load() == 0 {
		t.Error("shadow_slots gauge never populated")
	}
	t.Logf("rounds=%d windows=%d dup_suppressed=%d acks_sent=%d retransmits≈%v",
		rounds, rounds*workers*windows, sw.DupSuppressed.Load(), sw.AcksSent.Load(),
		dep.Obs.Counter("host.worker0.retransmits").Load())
}

// allreduceRounds runs rounds of exactly-once allreduce on a deployment of
// lossyAllreduceNCL, every worker one OutReliable call per round, and
// checks the switch registers: every contribution applied exactly once,
// every count slot recycled to zero.
func allreduceRounds(t *testing.T, dep *Deployment, W, dataLen, workers, rounds int, opts runtime.ReliableOptions) {
	t.Helper()
	expected := make([]int64, dataLen)
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for w := 0; w < workers; w++ {
			grad := make([]uint64, dataLen)
			for i := range grad {
				v := int64((w + 1) + i%7 + round)
				grad[i] = uint64(v)
				expected[i] += v
			}
			wg.Add(1)
			go func(w int, grad []uint64) {
				defer wg.Done()
				host := dep.Hosts[fmt.Sprintf("worker%d", w)]
				errs[w] = host.OutReliable(runtime.Invocation{Kernel: "allreduce", Dest: "s1"}, [][]uint64{grad}, opts)
			}(w, grad)
		}
		wg.Wait()
		for w, err := range errs {
			if err != nil {
				t.Fatalf("round %d worker %d: %v", round, w, err)
			}
		}
	}

	// Every OutReliable returned: every contribution is acknowledged,
	// i.e. applied at the switch. The registers are the ground truth —
	// immune to result broadcasts lost to the same faulty fabric.
	// Codegen shards accum per window lane: accum$<lane>[seq].
	for i := 0; i < dataLen; i++ {
		v, err := dep.Controller.ReadRegister("s1", fmt.Sprintf("accum$%d", i%W), i/W)
		if err != nil {
			t.Fatal(err)
		}
		if int64(int32(v)) != expected[i] {
			t.Fatalf("accum[%d] = %d, want %d (duplicate applied or contribution lost)", i, int64(int32(v)), expected[i])
		}
	}
	// Completed rounds recycle their slots: count must be back to zero.
	for s := 0; s < dataLen/W; s++ {
		v, err := dep.Controller.ReadRegister("s1", "count", s)
		if err != nil {
			t.Fatal(err)
		}
		if v != 0 {
			t.Fatalf("count[%d] = %d, want 0 (round did not complete cleanly)", s, v)
		}
	}
}

// TestFastRetransmitOverFabric guards ack-driven loss detection on the
// real fabric, where switch range acks report the windows that arrived:
// it never fires without loss, fires under loss, and the exactly-once
// registers stay bit-exact either way.
func TestFastRetransmitOverFabric(t *testing.T) {
	const (
		W       = 8
		dataLen = 64
		workers = 4
		rounds  = 20
	)
	overlay := fmt.Sprintf("switch s1 id=1\nhost worker count=%d role=0\nlink worker s1\n", workers)
	art, err := Build(lossyAllreduceNCL, overlay, BuildOptions{WindowLen: W, ModuleName: "fastrtx"})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		drop float64
	}{{"no loss", 0}, {"5% drop", 0.05}} {
		t.Run(tc.name, func(t *testing.T) {
			dep, err := art.Deploy(netsim.Faults{DropProb: tc.drop, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			defer dep.Stop()
			if err := dep.Controller.CtrlWrite("nworkers", 0, workers); err != nil {
				t.Fatal(err)
			}
			allreduceRounds(t, dep, W, dataLen, workers, rounds, runtime.ReliableOptions{Window: 16})
			var retx, fast uint64
			for w := 0; w < workers; w++ {
				retx += dep.Obs.Counter(fmt.Sprintf("host.worker%d.retransmits", w)).Load()
				fast += dep.Obs.Counter(fmt.Sprintf("host.worker%d.fast_retransmits", w)).Load()
			}
			t.Logf("retransmits=%d fast_retransmits=%d", retx, fast)
			if tc.drop == 0 && fast != 0 {
				t.Errorf("fast_retransmits = %d without loss, want 0", fast)
			}
			if tc.drop > 0 && fast == 0 {
				t.Error("no ack-driven retransmit at 5% drop")
			}
		})
	}
}

// TestExactlyOnceFlagOnWire: OutReliable marks windows for the derived
// non-idempotent kernel with FlagExactlyOnce, and the stateless
// blackhole keeps plain (detection-only) reliable semantics — its drop
// is never switch-acked.
func TestExactlyOnceNotNegotiatedForStatelessKernels(t *testing.T) {
	src := `
_net_ _out_ void blackhole(int *data) { _drop(); }
_net_ _in_ void sink(int *data, _ext_ int *out) { out[0] = data[0]; }
`
	art, err := Build(src, pairAND, BuildOptions{WindowLen: 2, ModuleName: "bh2"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg := art.AppConfig(); cfg.NonIdempotent["blackhole"] {
		t.Fatal("stateless kernel derived as non-idempotent")
	}
	dep, err := art.Deploy(netsim.Faults{})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Stop()
	err = dep.Hosts["a"].OutReliable(runtime.Invocation{Kernel: "blackhole", Dest: "b"},
		[][]uint64{{1, 2}}, runtime.ReliableOptions{Timeout: 5 * time.Millisecond, Retries: 1})
	if err == nil {
		t.Fatal("stateless consumed-on-path window must still time out")
	}
	if n := dep.Switches["s1"].AcksSent.Load(); n != 0 {
		t.Fatalf("switch acked %d plain reliable windows", n)
	}
}

// TestHeldResultsOutliveRecycledPackets: the switch sends its broadcast
// copies and acks in the packets of the contributions it consumed. Every
// worker holds every result window of every round while the later rounds
// run, and each still reads its round's sums at the end: no recycled
// packet aliases bytes a host reads. Meant for -race.
func TestHeldResultsOutliveRecycledPackets(t *testing.T) {
	const (
		W       = 8
		dataLen = 64
		workers = 4
		windows = dataLen / W
		rounds  = 12
	)
	overlay := fmt.Sprintf("switch s1 id=1\nhost worker count=%d role=0\nlink worker s1\n", workers)
	art, err := Build(lossyAllreduceNCL, overlay, BuildOptions{WindowLen: W, ModuleName: "heldar"})
	if err != nil {
		t.Fatal(err)
	}
	dep, err := art.Deploy(netsim.Faults{})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Stop()
	if err := dep.Controller.CtrlWrite("nworkers", 0, workers); err != nil {
		t.Fatal(err)
	}
	type held struct {
		rw   *runtime.RecvWindow
		want []int64 // the window's sums
	}
	var all []held
	sums := make([]int64, dataLen)
	for round := 0; round < rounds; round++ {
		for i := range sums {
			for w := 0; w < workers; w++ {
				sums[i] += int64(w + i + round)
			}
		}
		all = append(all, make([]held, workers*windows)...)
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for w := 0; w < workers; w++ {
			grad := make([]uint64, dataLen)
			for i := range grad {
				grad[i] = uint64(w + i + round)
			}
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				host := dep.Hosts[fmt.Sprintf("worker%d", w)]
				errs[w] = host.OutReliable(runtime.Invocation{Kernel: "allreduce", Dest: "s1"}, [][]uint64{grad}, runtime.ReliableOptions{})
				for n := 0; n < windows && errs[w] == nil; n++ {
					var rw *runtime.RecvWindow
					if rw, errs[w] = host.Recv(10 * time.Second); errs[w] == nil {
						seq := int(rw.Header.WindowSeq)
						all[(round*workers+w)*windows+n] = held{rw, append([]int64(nil), sums[seq*W:(seq+1)*W]...)}
					}
				}
			}(w)
		}
		wg.Wait()
		for w, err := range errs {
			if err != nil {
				t.Fatalf("round %d worker %d: %v", round, w, err)
			}
		}
	}
	spec := []ncp.ParamSpec{{Elems: W, Bytes: 4, Signed: true}}
	for i, h := range all {
		vals, err := ncp.DecodePayload(h.rw.Raw, spec)
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range vals[0] {
			if int64(int32(v)) != h.want[j] {
				t.Fatalf("round %d worker %d window %d element %d reads %d after %d later rounds, want %d",
					i/(workers*windows), i/windows%workers, h.rw.Header.WindowSeq, j, int64(int32(v)), rounds-1-i/(workers*windows), h.want[j])
			}
		}
	}
}
