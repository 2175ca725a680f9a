package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ncl"
)

// trialResult is one fresh Build+Deploy of a workload, warmed up and then
// measured between two quiescent points.
type trialResult struct {
	setup        time.Duration
	wall         time.Duration // measured phase
	measureStart time.Time
	windows      uint64 // verified windows (GETs on kvs_get)
	ops          uint64 // ops attempted in the measured phase
	failed       uint64 // of which timed out or errored
	mallocs      uint64
	timeline     [][]opRecord // every generator's measured ops, in order
	failure      error        // the first failed op, if any

	// Traced trials only.
	logs           []*spanLog
	goroutines     []goroutineSample
	goroutinesPeak int
	before, after  *ncl.MetricsSnapshot
}

type goroutineSample struct {
	at time.Time
	n  int
}

// pacer keeps the generators on the same op index and decides, from the
// leader's clock, at which index measurement starts and ends. The leader
// (generator 0) publishes a boundary two ops ahead (start) or one op
// ahead (end) of the op it just finished; the other generator cannot get
// that far before seeing it, because it cannot complete an op the leader
// has not started.
type pacer struct {
	from, last atomic.Int64 // first measured op, last op
	start      time.Time    // of the measured phase; set before release is closed
	arrived    chan struct{}
	release    chan struct{}
	abort      chan struct{}
	abortOnce  sync.Once
}

// opRecord is one measured op on its generator's clock. A generator's
// ops follow each other without a gap, so together they tile its share of
// the measured phase.
type opRecord struct {
	start, end time.Duration // since the start of the measured phase
	windows    int32
}

type generatorResult struct {
	windows, ops uint64
	timeline     []opRecord
	err          error
}

func (p *pacer) giveUp() { p.abortOnce.Do(func() { close(p.abort) }) }

func (p *pacer) generate(inst *instance, w int, warm, measure time.Duration, sl *spanLog) (r generatorResult) {
	warmEnd := time.Now().Add(warm)
	var measuring bool
	var measureStart time.Time
	for i := int64(0); i <= p.last.Load(); i++ {
		if i == p.from.Load() {
			p.arrived <- struct{}{}
			select {
			case <-p.release:
			case <-p.abort:
				return r
			}
			measuring, measureStart = true, time.Now()
		}
		sl.beginOp(i, measuring)
		t0 := time.Now()
		n, err := inst.op(w, i, sl)
		t1 := time.Now()
		sl.endOp(t0, t1)
		select {
		case <-p.abort:
			return r
		default:
		}
		if measuring {
			r.ops++
			r.windows += uint64(n)
		}
		if err != nil {
			r.err = fmt.Errorf("generator %d op %d: %w", w, i, err)
			p.giveUp()
			return r
		}
		if measuring {
			r.timeline = append(r.timeline, opRecord{t0.Sub(p.start), t1.Sub(p.start), int32(n)})
		}
		if w != 0 {
			continue
		}
		switch {
		case p.from.Load() == math.MaxInt64 && !t1.Before(warmEnd):
			p.from.Store(i + 2)
		case measuring && p.last.Load() == math.MaxInt64 && t1.Sub(measureStart) >= measure:
			p.last.Store(i + 1)
		}
	}
	return r
}

// runTrial sets a workload up from scratch and measures it. warm is
// discarded; measure is the least the measured phase lasts (it ends with
// the op after the one that crosses it).
func runTrial(wl *workload, seed int64, warm, measure time.Duration, traced bool) (*trialResult, error) {
	defer wl.useProcs()()
	runtime.GC() // every set-up starts from the same heap state
	tr := &trialResult{}
	start := time.Now()
	inst, err := wl.setup(seed)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", wl.name, err)
	}
	tr.setup = time.Since(start)
	defer inst.stop()

	p := &pacer{arrived: make(chan struct{}, inst.workers), release: make(chan struct{}), abort: inst.abort}
	p.from.Store(math.MaxInt64)
	p.last.Store(math.MaxInt64)

	stopSampler := func() {}
	if traced {
		for _, h := range inst.dep.Hosts {
			h.SetTraceEvery(traceEvery)
		}
		tr.logs = make([]*spanLog, inst.workers)
		for w := range tr.logs {
			tr.logs[w] = &spanLog{worker: w}
		}
		tr.before = inst.dep.Obs.Snapshot()
		stopSampler = tr.sampleGoroutines()
	}

	results := make([]generatorResult, inst.workers)
	var wg sync.WaitGroup
	for w := 0; w < inst.workers; w++ {
		var sl *spanLog
		if traced {
			sl = tr.logs[w]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[w] = p.generate(inst, w, warm, measure, sl)
		}()
	}

	// Both clocks and both Mallocs readings are taken while every
	// generator is parked, so the delta holds whole ops only.
	var m0, m1 runtime.MemStats
arrivals:
	for n := 0; n < inst.workers; n++ {
		select {
		case <-p.arrived:
		case <-p.abort:
			break arrivals
		}
	}
	runtime.ReadMemStats(&m0)
	tr.measureStart = time.Now()
	p.start = tr.measureStart
	close(p.release)
	wg.Wait()
	tr.wall = time.Since(tr.measureStart)
	runtime.ReadMemStats(&m1)
	tr.mallocs = m1.Mallocs - m0.Mallocs
	stopSampler()
	if traced {
		tr.after = inst.dep.Obs.Snapshot()
	}

	for _, r := range results {
		tr.windows += r.windows
		tr.ops += r.ops
		tr.timeline = append(tr.timeline, r.timeline)
		if r.err != nil {
			if errors.Is(r.err, errWrong) {
				return nil, fmt.Errorf("%s: %w", wl.name, r.err)
			}
			tr.failed++
			if tr.failure == nil {
				tr.failure = r.err
			}
		}
	}
	if tr.failed == 0 && inst.check != nil {
		if err := inst.check(); err != nil {
			return nil, fmt.Errorf("%s: %w", wl.name, err)
		}
	}
	return tr, nil
}

// timeSetup times one more set-up of the workload, torn down unused.
func timeSetup(wl *workload, seed int64) (time.Duration, error) {
	defer wl.useProcs()()
	runtime.GC()
	start := time.Now()
	inst, err := wl.setup(seed)
	if err != nil {
		return 0, fmt.Errorf("%s: set-up: %w", wl.name, err)
	}
	d := time.Since(start)
	inst.stop()
	return d, nil
}

// sampleGoroutines records NumGoroutine every 10 ms until the returned
// stop function is called.
func (tr *trialResult) sampleGoroutines() (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case at := <-tick.C:
				n := runtime.NumGoroutine()
				tr.goroutines = append(tr.goroutines, goroutineSample{at, n})
				tr.goroutinesPeak = max(tr.goroutinesPeak, n)
			case <-quit:
				return
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// trialValues are the end-to-end metrics that are one number per trial.
func (tr *trialResult) trialValues() values {
	return values{
		"allocs_per_op": float64(tr.mallocs) / float64(tr.windows),
		"setup_s":       tr.setup.Seconds(),
	}
}

// sliceValues cuts the measured phase into whole slices of sliceLen (one
// slice when it is shorter than that; what is left after the last whole
// slice is not used) and returns the speed metrics of each. An op's
// windows are spread evenly over the time the op took, so a slice's goodput
// has no rounding to whole ops; an op's latency belongs to the slice the op
// ended in.
func (tr *trialResult) sliceValues() []values {
	n := max(1, int(tr.wall/sliceLen))
	length := min(sliceLen, tr.wall)
	windows := make([]float64, n)
	latencies := make([][]float64, n)
	for _, ops := range tr.timeline {
		for _, op := range ops {
			took := op.end - op.start
			if i := int(op.end / length); i < n {
				latencies[i] = append(latencies[i], float64(took)/float64(time.Microsecond))
			}
			for i := int(op.start / length); i < n && time.Duration(i)*length < op.end; i++ {
				from, to := max(op.start, time.Duration(i)*length), min(op.end, time.Duration(i+1)*length)
				windows[i] += float64(op.windows) * float64(to-from) / float64(took)
			}
		}
	}
	var out []values
	for i := range windows {
		if len(latencies[i]) == 0 { // no op ended in it: nothing to take a percentile of
			continue
		}
		out = append(out, values{
			"goodput_windows_per_s": windows[i] / length.Seconds(),
			"op_p50_us":             quantile(latencies[i], 0.50),
			"op_p99_us":             quantile(latencies[i], 0.99),
		})
	}
	return out
}
