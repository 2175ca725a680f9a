package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"ncl/internal/ncp"
	"ncl/internal/netsim"
	"ncl/internal/runtime"
)

const traceNCL = `
_net_ _at_("s1") _ctrl_ int ceiling;

_net_ _out_ void clamp(int *data) {
    for (unsigned i = 0; i < window.len; ++i)
        if (data[i] > ceiling) data[i] = ceiling;
}

_net_ _in_ void deliver(int *data, _ext_ int *out) {
    for (unsigned i = 0; i < window.len; ++i)
        out[i] = data[i];
}
`

const traceAND = `
switch s1 id=1
host sender role=0
host receiver role=1
link sender s1
link s1 receiver
`

// TestTracedWindowEndToEnd sends a traced window through the quickstart
// topology and checks the reassembled hop timeline: at least the sender's
// send record, the switch's exec record, and the receiver's deliver
// record, with monotonically non-decreasing virtual times.
func TestTracedWindowEndToEnd(t *testing.T) {
	const w = 8
	art, err := Build(traceNCL, traceAND, BuildOptions{WindowLen: w, ModuleName: "trace"})
	if err != nil {
		t.Fatal(err)
	}
	dep, err := art.Deploy(netsim.Faults{})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Stop()
	if err := dep.Controller.CtrlWrite("ceiling", 0, 100); err != nil {
		t.Fatal(err)
	}

	sender := dep.Hosts["sender"]
	sender.SetTraceEvery(1)
	data := make([]uint64, w)
	for i := range data {
		data[i] = uint64(i * 30)
	}
	if err := sender.Out(runtime.Invocation{Kernel: "clamp", Dest: "receiver"}, [][]uint64{data}); err != nil {
		t.Fatal(err)
	}

	out := make([]uint64, w)
	rw, err := dep.Hosts["receiver"].In("deliver", [][]uint64{out}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rw.Header.Flags&ncp.FlagTrace == 0 {
		t.Error("delivered window should carry FlagTrace")
	}
	if len(rw.Trace) < 3 {
		t.Fatalf("trace has %d hops, want >= 3 (send, exec, deliver): %+v", len(rw.Trace), rw.Trace)
	}

	// The path must start at the sender, pass the switch kernel, and end
	// with this receiver's deliver record.
	first, last := rw.Trace[0], rw.Trace[len(rw.Trace)-1]
	if first.Kind != ncp.HopHost || first.Event != ncp.EventSend {
		t.Errorf("first hop should be the host send record: %+v", first)
	}
	if last.Kind != ncp.HopHost || last.Event != ncp.EventDeliver {
		t.Errorf("last hop should be the host deliver record: %+v", last)
	}
	sawExec := false
	for _, h := range rw.Trace {
		if h.Kind == ncp.HopSwitch && h.Event == ncp.EventExec {
			sawExec = true
		}
	}
	if !sawExec {
		t.Errorf("no switch exec hop in trace: %+v", rw.Trace)
	}

	// Virtual times are monotone non-decreasing along the path.
	for i := 1; i < len(rw.Trace); i++ {
		if rw.Trace[i].TimeNs < rw.Trace[i-1].TimeNs {
			t.Errorf("hop %d time %d precedes hop %d time %d",
				i, rw.Trace[i].TimeNs, i-1, rw.Trace[i-1].TimeNs)
		}
	}

	// The deployment registry agrees that one window was traced end to end.
	snap := dep.Obs.Snapshot()
	if got := snap.Counters["host.sender.traced_windows"]; got != 1 {
		t.Errorf("host.sender.traced_windows = %d, want 1", got)
	}
	if got := snap.Counters["switch.s1.kernel_windows"]; got != 1 {
		t.Errorf("switch.s1.kernel_windows = %d, want 1", got)
	}
	if got := snap.Counters["host.receiver.windows_received"]; got != 1 {
		t.Errorf("host.receiver.windows_received = %d, want 1", got)
	}
}

// TestINTFieldsEndToEnd checks the INT extension of the hop records on
// the quickstart topology: the exec hop carries the kernel id, the
// modeled pipeline latency, and a queue-depth sample; the deliver hop
// carries the receiver's inbox depth and kernel id.
func TestINTFieldsEndToEnd(t *testing.T) {
	const w = 8
	art, err := Build(traceNCL, traceAND, BuildOptions{WindowLen: w, ModuleName: "trace"})
	if err != nil {
		t.Fatal(err)
	}
	dep, err := art.Deploy(netsim.Faults{})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Stop()
	if err := dep.Controller.CtrlWrite("ceiling", 0, 100); err != nil {
		t.Fatal(err)
	}
	kid := art.KernelIDs["clamp"]
	if kid == 0 {
		t.Fatal("clamp has no kernel id")
	}

	sender := dep.Hosts["sender"]
	sender.SetTraceEvery(1)
	data := make([]uint64, w)
	if err := sender.Out(runtime.Invocation{Kernel: "clamp", Dest: "receiver"}, [][]uint64{data}); err != nil {
		t.Fatal(err)
	}
	out := make([]uint64, w)
	rw, err := dep.Hosts["receiver"].In("deliver", [][]uint64{out}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	if first := rw.Trace[0]; first.Event != ncp.EventSend || first.KernelID != kid {
		t.Errorf("send hop should stamp the invoked kernel: %+v (want kernel %d)", first, kid)
	}
	sawExec := false
	for _, h := range rw.Trace {
		if h.Kind != ncp.HopSwitch || h.Event != ncp.EventExec {
			continue
		}
		sawExec = true
		if h.KernelID != kid {
			t.Errorf("exec hop kernel = %d, want %d", h.KernelID, kid)
		}
		// The simulated fabric carries virtual time, so the hop latency
		// is the modeled pipeline delay.
		if want := uint32(netsim.SwitchDelayUs * 1000); h.LatencyNs != want {
			t.Errorf("exec hop latency = %dns, want modeled %dns", h.LatencyNs, want)
		}
	}
	if !sawExec {
		t.Fatalf("no exec hop: %+v", rw.Trace)
	}
	last := rw.Trace[len(rw.Trace)-1]
	if last.Event != ncp.EventDeliver || last.KernelID != kid {
		t.Errorf("deliver hop should stamp the kernel: %+v", last)
	}
	// The traced window also landed in the switch's exec-time histogram.
	snap := dep.Obs.Snapshot()
	if hs, ok := snap.Histograms["switch.s1.exec_ns"]; !ok || hs.Count != 1 {
		t.Errorf("switch.s1.exec_ns = %+v, want 1 observation", hs)
	}
}

// TestEnableTelemetryCollects wires the collector through
// Deployment.EnableTelemetry and checks the ingest side: path
// histograms appear in the deployment registry and the flight recorder
// holds the span.
func TestEnableTelemetryCollects(t *testing.T) {
	const w = 8
	art, err := Build(traceNCL, traceAND, BuildOptions{WindowLen: w, ModuleName: "trace"})
	if err != nil {
		t.Fatal(err)
	}
	dep, err := art.Deploy(netsim.Faults{})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Stop()
	if err := dep.Controller.CtrlWrite("ceiling", 0, 100); err != nil {
		t.Fatal(err)
	}
	col := dep.EnableTelemetry(1)

	sender := dep.Hosts["sender"]
	data := make([]uint64, w)
	const windows = 5
	for i := 0; i < windows; i++ {
		if err := sender.Out(runtime.Invocation{Kernel: "clamp", Dest: "receiver"}, [][]uint64{data}); err != nil {
			t.Fatal(err)
		}
		out := make([]uint64, w)
		if _, err := dep.Hosts["receiver"].In("deliver", [][]uint64{out}, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}

	// The collector is fed from the fabric's delivery goroutine once the
	// inbox has accepted a window, so the last In can return before the
	// last ingest; Stop waits for that goroutine.
	dep.Stop()
	snap := dep.Obs.Snapshot()
	if got := snap.Counters["telemetry.windows"]; got != windows {
		t.Errorf("telemetry.windows = %d, want %d", got, windows)
	}
	kid := art.KernelIDs["clamp"]
	e2eName := fmt.Sprintf("telemetry.sender.%d.kernel.%d.e2e_ns", dep.Hosts["sender"].ID(), kid)
	e2e, ok := snap.Histograms[e2eName]
	if !ok || e2e.Count != windows {
		t.Errorf("%s = %+v, want %d observations", e2eName, e2e, windows)
	}
	if e2e.Sum <= 0 {
		t.Errorf("e2e latency sum = %v, want > 0 (virtual clock)", e2e.Sum)
	}
	spans := col.Recorder().Spans()
	if len(spans) != windows {
		t.Fatalf("recorder spans = %d, want %d", len(spans), windows)
	}
	if hops := spans[0].Hops; len(hops) < 3 || hops[len(hops)-1].Event != "deliver" {
		t.Errorf("span hops = %+v", spans[0].Hops)
	}
}

// TestDeepPathHopSaturation drives a traced window through a switch
// chain longer than MaxHops and checks the trace saturates by shedding
// the oldest records: exactly MaxHops survive and the deliver hop is
// still last (the E9-style deep-path behavior at wire scale).
func TestDeepPathHopSaturation(t *testing.T) {
	const chain = ncp.MaxHops + 3
	var and strings.Builder
	for i := 1; i <= chain; i++ {
		fmt.Fprintf(&and, "switch s%d id=%d\n", i, i)
	}
	and.WriteString("host sender role=0\nhost receiver role=1\n")
	and.WriteString("link sender s1\n")
	for i := 1; i < chain; i++ {
		fmt.Fprintf(&and, "link s%d s%d\n", i, i+1)
	}
	fmt.Fprintf(&and, "link s%d receiver\n", chain)

	// A stateless relay kernel: _ctrl_ state would pin placement to one
	// switch, but the deep chain installs the kernel everywhere.
	const deepNCL = `
_net_ _out_ void relay(int *data) {
    for (unsigned i = 0; i < window.len; ++i) data[i] = data[i];
}

_net_ _in_ void deliver(int *data, _ext_ int *out) {
    for (unsigned i = 0; i < window.len; ++i) out[i] = data[i];
}
`
	const w = 4
	art, err := Build(deepNCL, and.String(), BuildOptions{WindowLen: w, ModuleName: "deep"})
	if err != nil {
		t.Fatal(err)
	}
	dep, err := art.Deploy(netsim.Faults{})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Stop()

	sender := dep.Hosts["sender"]
	sender.SetTraceEvery(1)
	data := make([]uint64, w)
	if err := sender.Out(runtime.Invocation{Kernel: "relay", Dest: "receiver"}, [][]uint64{data}); err != nil {
		t.Fatal(err)
	}
	out := make([]uint64, w)
	rw, err := dep.Hosts["receiver"].In("deliver", [][]uint64{out}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// The wire saturates at MaxHops (oldest shed first); the receiving
	// runtime then appends its local deliver record, so the delivered
	// trace is MaxHops+1.
	if len(rw.Trace) != ncp.MaxHops+1 {
		t.Fatalf("deep path trace = %d hops, want saturated %d+deliver", len(rw.Trace), ncp.MaxHops)
	}
	last := rw.Trace[len(rw.Trace)-1]
	if last.Event != ncp.EventDeliver {
		t.Errorf("saturated trace must keep the most recent records; last = %+v", last)
	}
	// The shed records are the oldest: the send hop is gone.
	if rw.Trace[0].Event == ncp.EventSend {
		t.Error("send hop survived saturation; oldest records should shed first")
	}
	// Times stay monotone across the surviving window.
	for i := 1; i < len(rw.Trace); i++ {
		if rw.Trace[i].TimeNs < rw.Trace[i-1].TimeNs {
			t.Errorf("hop %d time %d precedes hop %d", i, rw.Trace[i].TimeNs, i-1)
		}
	}
}
