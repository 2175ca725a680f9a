package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"ncl"
)

// Spans are recorded from the generator's side only: one around every
// facade call, one around every op (a round or a GET). Nothing inside the
// program is timed. A receive call is classified by whether a window was
// already queued when it was made: a ready In is decode + the interpreted
// incoming kernel, a waiting In is time the caller spent blocked on the
// fabric, the switch and the device.

type spanKind uint8

const (
	spanOp spanKind = iota
	spanOut
	spanOutReliable
	spanOutWindow
	spanInReady
	spanInWait
	spanRecvReady
	spanRecvWait
	spanVerify
	spanMeet
	numSpanKinds
)

var spanInfo = [numSpanKinds]struct{ name, layer string }{
	spanOp:          {"op", "benchmark"},
	spanOut:         {"Host.Out", "runtime"},
	spanOutReliable: {"Host.OutReliable", "runtime"},
	spanOutWindow:   {"Host.OutWindow", "runtime"},
	spanInReady:     {"Host.In(ready)", "runtime+ncl/interp"},
	spanInWait:      {"Host.In(wait)", "netsim+pisa"},
	spanRecvReady:   {"Host.Recv(ready)", "runtime"},
	spanRecvWait:    {"Host.Recv(wait)", "netsim+pisa"},
	spanVerify:      {"verify", "benchmark"},
	spanMeet:        {"rendezvous", "benchmark"},
}

// traceEvery is both the in-band hop sampling (Host.SetTraceEvery) and
// the share of ops whose spans are kept for the trace file; self times
// are accumulated over every op.
const traceEvery = 64

type span struct {
	kind       spanKind
	op         int64 // trace id: the round or GET index
	start, end time.Time
	root       bool
}

// spanLog is one generator goroutine's recorder. A nil *spanLog records
// nothing and reads no clock, so the untraced run pays a nil check per
// facade call.
type spanLog struct {
	worker   int
	self     [numSpanKinds]time.Duration
	calls    [numSpanKinds]uint64
	spans    []span
	hops     []hopRecord // of kept ops
	depths   []float64   // switch queue depth of every hop record seen
	op       int64
	on, keep bool
	children time.Duration
}

// hopSwitch is ncl.Hop.Kind for a record stamped by a switch.
const hopSwitch = 1

type hopRecord struct {
	op  int64
	hop ncl.Hop
}

func (l *spanLog) start() time.Time {
	if l == nil {
		return time.Time{}
	}
	return time.Now()
}

func (l *spanLog) done(k spanKind, t0 time.Time) {
	if l == nil || !l.on {
		return
	}
	end := time.Now()
	d := end.Sub(t0)
	l.self[k] += d
	l.calls[k]++
	l.children += d
	if l.keep {
		l.spans = append(l.spans, span{kind: k, op: l.op, start: t0, end: end})
	}
}

// recvKind classifies the receive call about to be made on h.
func (l *spanLog) recvKind(h *ncl.Host, ready, wait spanKind) spanKind {
	if l == nil || h.Pending() > 0 {
		return ready
	}
	return wait
}

// sawWindow keeps the in-band hop records of a traced window.
func (l *spanLog) sawWindow(rw *ncl.RecvWindow) {
	if l == nil || !l.on {
		return
	}
	for _, h := range rw.Trace {
		if h.Kind == hopSwitch {
			l.depths = append(l.depths, float64(h.QueueDepth))
		}
		if l.keep {
			l.hops = append(l.hops, hopRecord{l.op, h})
		}
	}
}

func (l *spanLog) beginOp(op int64, measuring bool) {
	if l == nil {
		return
	}
	l.op, l.on, l.keep, l.children = op, measuring, measuring && op%traceEvery == 0, 0
}

func (l *spanLog) endOp(t0, t1 time.Time) {
	if l == nil || !l.on {
		return
	}
	l.self[spanOp] += t1.Sub(t0) - l.children
	l.calls[spanOp]++
	if l.keep {
		l.spans = append(l.spans, span{kind: spanOp, op: l.op, start: t0, end: t1, root: true})
	}
	l.on = false
}

// stackLine is one row of the per-layer stack.
type stackLine struct {
	Name        string  `json:"name"`
	Layer       string  `json:"layer"`
	Calls       uint64  `json:"calls"`
	NsPerWindow float64 `json:"self_ns_per_window"`
}

// stack sums self time per span kind over the generators and divides by
// the windows they delivered. Each generator is busy for the whole
// measured wall, so the rows add up to wall × generators ÷ windows less
// the loop overhead between ops — the residual.
func stack(logs []*spanLog, windows uint64, wall time.Duration) (lines []stackLine, sum, measured float64) {
	for k := spanKind(0); k < numSpanKinds; k++ {
		var self time.Duration
		var calls uint64
		for _, l := range logs {
			self += l.self[k]
			calls += l.calls[k]
		}
		if calls == 0 {
			continue
		}
		ns := float64(self) / float64(windows)
		lines = append(lines, stackLine{spanInfo[k].name, spanInfo[k].layer, calls, ns})
		sum += ns
	}
	return lines, sum, float64(wall) * float64(len(logs)) / float64(windows)
}

func printStack(w io.Writer, workload string, lines []stackLine, sum, measured float64) {
	fmt.Fprintf(w, "  per-layer stack, %s (self ns per window, per generator):\n", workload)
	for _, l := range lines {
		fmt.Fprintf(w, "    %-20s %-20s %10.1f  (%d calls)\n", l.Name, l.Layer, l.NsPerWindow, l.Calls)
	}
	fmt.Fprintf(w, "    %-41s %10.1f\n", "sum", sum)
	fmt.Fprintf(w, "    %-41s %10.1f  (residual %.2f%%)\n", "measured wall x generators / windows", measured, 100*(measured-sum)/measured)
}

// writeTrace writes the kept spans, the hop records, the goroutine
// samples and the counter snapshots of one traced trial as JSON lines.
func writeTrace(dir, workload string, tr *trialResult) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	type spanLine struct {
		Type    string `json:"type"`
		ID      int    `json:"id"`
		Parent  int    `json:"parent"`
		TraceID int64  `json:"trace_id"`
		Worker  int    `json:"worker"`
		Name    string `json:"name"`
		Layer   string `json:"layer"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
	}
	// Encode errors are the buffered writer's, which Flush reports.
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	base := tr.measureStart
	id := 0
	for _, l := range tr.logs {
		// An op's root span is appended after its children: walk backwards
		// so every child can name its parent's id.
		ids := make([]int, len(l.spans))
		for i := range l.spans {
			ids[i] = id
			id++
		}
		parent := -1
		out := make([]spanLine, len(l.spans))
		for i := len(l.spans) - 1; i >= 0; i-- {
			s := l.spans[i]
			p := parent
			if s.root {
				parent, p = ids[i], -1
			}
			out[i] = spanLine{"span", ids[i], p, s.op, l.worker, spanInfo[s.kind].name, spanInfo[s.kind].layer,
				s.start.Sub(base).Nanoseconds(), s.end.Sub(base).Nanoseconds()}
		}
		for i := range out {
			_ = enc.Encode(out[i])
		}
		for _, h := range l.hops {
			_ = enc.Encode(map[string]any{
				"type": "hop", "trace_id": h.op, "worker": l.worker, "loc": h.hop.Loc, "kind": h.hop.Kind,
				"event": h.hop.EventName(), "vtime_ns": h.hop.TimeNs, "latency_ns": h.hop.LatencyNs,
				"queue_depth": h.hop.QueueDepth, "kernel_id": h.hop.KernelID,
			})
		}
	}
	for _, g := range tr.goroutines {
		_ = enc.Encode(map[string]any{"type": "goroutines", "at_ns": g.at.Sub(base).Nanoseconds(), "count": g.n})
	}
	_ = enc.Encode(map[string]any{"type": "counters", "when": "before", "counters": tr.before.Counters})
	_ = enc.Encode(map[string]any{"type": "counters", "when": "after", "counters": tr.after.Counters, "histograms": tr.after.Histograms})
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
