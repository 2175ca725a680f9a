package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"ncl"
)

// Every workload is a closed loop driven through the root facade only: a
// generator goroutine issues its next op (one allreduce round, or one
// GET) when the previous one has completed and been checked. All run on
// the in-memory fabric; no packet crosses a real link or the loopback.

// errWrong marks a result that arrived but is not the right answer. It
// is never a failed_share: the run aborts with a non-zero exit.
var errWrong = errors.New("wrong result")

// opTimeout bounds every blocking receive; an op that hits it counts as
// failed.
const opTimeout = 5 * time.Second

type workload struct {
	name string
	why  string
	// procs is GOMAXPROCS while the workload is set up and run (less on a
	// smaller machine): as many as it has goroutines that can run at once.
	procs int
	// setup builds and deploys a fresh instance: Build, Deploy/DeployOn,
	// control writes and cache warm-up. Its duration is setup_s.
	setup func(seed int64) (*instance, error)
	// nonZero names counter-derived layer metrics the generator knows
	// cannot be zero on this workload (a zero prints null with a warning).
	nonZero []string
}

// instance is one deployed workload, as the generator sees it.
type instance struct {
	dep     *ncl.Deployment
	workers int // generator goroutines
	// op runs generator w's i-th op and returns the windows it verified.
	op func(w int, i int64, sl *spanLog) (int, error)
	// check is the end-of-trial verification (nil when each op verifies
	// itself).
	check func() error
	abort chan struct{} // closed when any generator gives up
	stop  func()
}

var workloads = []workload{
	{
		name:  "allreduce_stream",
		procs: 2,
		why:   "Fig. 4 allreduce through Out + In: host incoming-kernel interpretation does most of the work, switch exec second",
		setup: func(seed int64) (*instance, error) { return setupAllreduce(arStream, seed) },
	},
	{
		name:    "allreduce_reliable",
		procs:   2,
		why:     "the same round through OutReliable at 0% loss: adds one goroutine, timer and ack per window, nothing else",
		setup:   func(seed int64) (*instance, error) { return setupAllreduce(arReliable, seed) },
		nonZero: []string{"runtime.ack_rtt_p50_us", "netsim.switch_acks_per_window"},
	},
	{
		name:  "allreduce_reliable_lossy",
		procs: 2,
		why:   "push-only OutReliable at 2% drop + 2% dup: timer-bound and CPU-idle, exercises RTO, retransmit and dup suppression",
		setup: func(seed int64) (*instance, error) { return setupAllreduce(arLossy, seed) },
		nonZero: []string{"runtime.ack_rtt_p50_us", "netsim.switch_acks_per_window", "runtime.retransmits_per_window",
			"runtime.backoff_p50_us", "pisa.dup_suppressed_per_window"},
	},
	{
		name:  "fattree_transit",
		procs: 2,
		why:   "the star placed on FatTree(8) across pods, read with Recv: five switch hops each way, no incoming kernel, placement in setup",
		setup: func(seed int64) (*instance, error) { return setupAllreduce(arFatTree, seed) },
	},
	{
		name: "kvs_get",
		// One GET in flight: of client, switch, fabric and server only one
		// ever has work. A second processor adds no parallelism, only a
		// cross-vCPU wake-up per hop whose cost is the host's, not the
		// program's: on two it ran at 40k or at 57k GETs/s from one run to
		// the next, on one at 70k.
		procs:   1,
		why:     "Fig. 5 cache, one GET in flight, zipf 0.99: per-hop wake-up and un-batched per-packet cost, so batching for throughput pays here",
		setup:   setupKVS,
		nonZero: []string{"pisa.table_hit_share"},
	},
}

// ---------------------------------------------------------------------------
// Allreduce (workloads 1-4)

type arVariant int

const (
	arStream arVariant = iota
	arReliable
	arLossy
	arFatTree
)

// gradPatterns is how many distinct gradient arrays each worker cycles
// through: enough that consecutive rounds differ, few enough to build in
// set-up.
const gradPatterns = 4

// wrongSum is added to every expected sum. The smoke test sets it to
// prove that a wrong answer aborts the run.
var wrongSum int64

type allreduce struct {
	variant  arVariant
	hosts    [2]*ncl.Host
	arrays   [2][gradPatterns][][]uint64 // Out's argument, per worker and pattern
	delta    [gradPatterns][]int64       // both workers' contribution to a round
	expected [2][]int64                  // each worker's own running sum
	ext      [2][][]uint64               // In's _ext_ buffers: hdata, done
	reliable ncl.ReliableOptions         // OutReliable's options on the reliable variants
	meet     chan struct{}               // arLossy: the per-round rendezvous
	abort    chan struct{}
}

func setupAllreduce(v arVariant, seed int64) (*instance, error) {
	overlay, labels := starAND, [2]string{"worker0", "worker1"}
	if v == arFatTree {
		overlay, labels = fatTreeStarAND, [2]string{"h0", "h64"}
	}
	art, err := ncl.Build(allreduceNCL, overlay, ncl.BuildOptions{WindowLen: winLen, ModuleName: "allreduce", SendWorkers: 1})
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	var dep *ncl.Deployment
	switch v {
	case arFatTree:
		fat, ferr := ncl.FatTree(fatTreeArity)
		if ferr != nil {
			return nil, ferr
		}
		dep, err = art.DeployOn(fat, ncl.PlacedOptions{})
	case arLossy:
		dep, err = art.Deploy(ncl.Faults{DropProb: 0.02, DupProb: 0.02, Seed: seed})
	default:
		dep, err = art.Deploy(ncl.Faults{})
	}
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	if err := dep.Controller.CtrlWrite("nworkers", 0, 2); err != nil {
		dep.Stop()
		return nil, fmt.Errorf("ctrl write: %w", err)
	}
	a := &allreduce{variant: v, meet: make(chan struct{}), abort: make(chan struct{})}
	rng := rand.New(rand.NewSource(seed))
	for k := range a.delta {
		a.delta[k] = make([]int64, dataLen)
	}
	for w := range a.hosts {
		a.hosts[w] = dep.Hosts[labels[w]]
		a.expected[w] = make([]int64, dataLen)
		a.ext[w] = [][]uint64{make([]uint64, dataLen), make([]uint64, 1)}
		for k := range a.delta {
			grad := make([]uint64, dataLen)
			for i := range grad {
				g := int64(rng.Intn(2001) - 1000)
				grad[i] = uint64(g)
				a.delta[k][i] += g
			}
			a.arrays[w][k] = [][]uint64{grad}
		}
	}
	inst := &instance{dep: dep, workers: 2, op: a.round, abort: a.abort, stop: dep.Stop}
	if v == arLossy {
		// The default 5 retries were exhausted once in some 80 runs (about
		// 15M windows) at 2% loss; the repository's own lossy examples use
		// 20, and no workload may have a failing op.
		a.reliable.Retries = 20
		inst.check = func() error { return a.checkRegisters(dep) }
	}
	return inst, nil
}

// round is one worker's allreduce round: send 512 windows, then collect
// and check the 512 result windows (or, on the lossy fabric, where result
// broadcasts are not retransmitted, drain what arrived and meet the other
// worker so both stay on the same round).
func (a *allreduce) round(w int, i int64, sl *spanLog) (int, error) {
	k := int(i % gradPatterns)
	want := a.expected[w]
	for j, d := range a.delta[k] {
		want[j] += d
	}
	h := a.hosts[w]
	inv := ncl.Invocation{Kernel: "allreduce", Dest: "s1"}
	var err error
	t0 := sl.start()
	if a.variant == arReliable || a.variant == arLossy {
		err = h.OutReliable(inv, a.arrays[w][k], a.reliable)
		sl.done(spanOutReliable, t0)
	} else {
		err = h.Out(inv, a.arrays[w][k])
		sl.done(spanOut, t0)
	}
	if err != nil {
		return 0, err
	}

	switch a.variant {
	case arLossy:
		for h.Pending() > 0 {
			t0 = sl.start()
			_, err = h.Recv(opTimeout)
			sl.done(spanRecvReady, t0)
			if err != nil {
				return 0, err
			}
		}
		t0 = sl.start()
		if w == 0 {
			select {
			case a.meet <- struct{}{}:
			case <-a.abort:
			}
		} else {
			select {
			case <-a.meet:
			case <-a.abort:
			}
		}
		sl.done(spanMeet, t0)

	case arFatTree:
		for n := 0; n < windowsPerRound; n++ {
			kind := sl.recvKind(h, spanRecvReady, spanRecvWait)
			t0 = sl.start()
			rw, err := h.Recv(opTimeout)
			sl.done(kind, t0)
			if err != nil {
				return n, err
			}
			sl.sawWindow(rw)
			base := int(rw.Header.WindowSeq) * winLen
			if len(rw.Raw) != 4*winLen || base+winLen > dataLen {
				return n, fmt.Errorf("%w: round %d: window seq %d with %d payload bytes", errWrong, i, rw.Header.WindowSeq, len(rw.Raw))
			}
			for j := 0; j < winLen; j++ {
				got := int32(binary.BigEndian.Uint32(rw.Raw[4*j:]))
				if got != int32(want[base+j]+wrongSum) {
					return n, fmt.Errorf("%w: round %d element %d: got %d, want %d", errWrong, i, base+j, got, int32(want[base+j]+wrongSum))
				}
			}
		}

	default:
		ext := a.ext[w]
		for n := 0; n < windowsPerRound; n++ {
			kind := sl.recvKind(h, spanInReady, spanInWait)
			t0 = sl.start()
			rw, err := h.In("result", ext, opTimeout)
			sl.done(kind, t0)
			if err != nil {
				return n, err
			}
			sl.sawWindow(rw)
		}
		t0 = sl.start()
		for j, got := range ext[0] {
			if int32(got) != int32(want[j]+wrongSum) {
				return 0, fmt.Errorf("%w: round %d element %d: got %d, want %d", errWrong, i, j, int32(got), int32(want[j]+wrongSum))
			}
		}
		sl.done(spanVerify, t0)
	}
	return windowsPerRound, nil
}

// checkRegisters reads every accum register back through the control
// plane: after the same number of rounds from each worker it must hold
// exactly the running sum, or a retransmit was applied twice or an acked
// window lost. Codegen shards accum per window lane: accum[seq*W+lane] is
// accum$lane[seq].
func (a *allreduce) checkRegisters(dep *ncl.Deployment) error {
	want := a.expected[0]
	for i := 0; i < dataLen; i++ {
		v, err := dep.Controller.ReadRegister("s1", fmt.Sprintf("accum$%d", i%winLen), i/winLen)
		if err != nil {
			return fmt.Errorf("register readback: %w", err)
		}
		if int32(v) != int32(want[i]+wrongSum) {
			return fmt.Errorf("%w: accum[%d] = %d, want %d", errWrong, i, int32(v), int32(want[i]+wrongSum))
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// KVS (workload 5)

type kvs struct {
	client *ncl.Host
	keys   []uint64   // the zipf stream, cycled
	get    [][]uint64 // OutWindow's argument: key, value buffer, update=0
	ext    [][]uint64 // In's _ext_ buffers: rkey, rval
}

func kvsValue(key uint64, i int) uint64 { return (key + uint64(i)) & 0x7F }

func kvsValueOf(key uint64) []uint64 {
	v := make([]uint64, kvsValBytes)
	for i := range v {
		v[i] = kvsValue(key, i)
	}
	return v
}

func setupKVS(seed int64) (*instance, error) {
	art, err := ncl.Build(kvsNCL, kvsAND, ncl.BuildOptions{WindowLen: kvsValBytes, ModuleName: "kvs", SendWorkers: 1})
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	dep, err := art.Deploy(ncl.Faults{})
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	client, server := dep.Hosts["client"], dep.Hosts["server"]
	reply := ncl.Invocation{Kernel: "query", Dest: "client"}

	// Cache warm-up: the hottest keys' Idx entries through the control
	// plane, their values through the data-plane update path. The switch
	// handles windows in order, so the last entry turning valid ends it.
	warm := func() error {
		for k := uint64(0); k < kvsCached; k++ {
			if err := dep.Controller.MapInsert("s1", "Idx", k, k); err != nil {
				return err
			}
			if err := server.OutWindow(reply, server.NewWid(), 0, [][]uint64{{k}, kvsValueOf(k), {1}}); err != nil {
				return err
			}
		}
		for deadline := time.Now().Add(opTimeout); time.Now().Before(deadline); time.Sleep(50 * time.Microsecond) {
			if v, err := dep.Controller.ReadRegister("s1", "Valid", kvsCached-1); err == nil && v == 1 {
				return nil
			}
		}
		return errors.New("the switch never marked the last entry valid")
	}
	if err := warm(); err != nil {
		dep.Stop()
		return nil, fmt.Errorf("cache warm-up: %w", err)
	}

	// The storage server answers misses until its host is closed.
	served := make(chan struct{})
	go func() {
		defer close(served)
		ext := [][]uint64{make([]uint64, 1), make([]uint64, kvsValBytes)}
		for {
			if _, err := server.In("reply", ext, 0); err != nil {
				return
			}
			key := ext[0][0]
			if err := server.OutWindow(reply, server.NewWid(), 0, [][]uint64{{key}, kvsValueOf(key), {0}}); err != nil {
				return
			}
		}
	}()

	s := &kvs{
		client: client,
		keys:   zipfStream(kvsKeys, kvsZipf, seed, 1<<16),
		get:    [][]uint64{make([]uint64, 1), make([]uint64, kvsValBytes), {0}},
		ext:    [][]uint64{make([]uint64, 1), make([]uint64, kvsValBytes)},
	}
	return &instance{dep: dep, workers: 1, op: s.getOne, abort: make(chan struct{}), stop: func() {
		dep.Stop()
		<-served
	}}, nil
}

// getOne is one GET: a single window out, its reply in, key and value
// checked.
func (s *kvs) getOne(_ int, i int64, sl *spanLog) (int, error) {
	key := s.keys[int(i)%len(s.keys)]
	s.get[0][0] = key
	t0 := sl.start()
	err := s.client.OutWindow(ncl.Invocation{Kernel: "query", Dest: "server"}, s.client.NewWid(), 0, s.get)
	sl.done(spanOutWindow, t0)
	if err != nil {
		return 0, err
	}
	kind := sl.recvKind(s.client, spanInReady, spanInWait)
	t0 = sl.start()
	rw, err := s.client.In("reply", s.ext, opTimeout)
	sl.done(kind, t0)
	if err != nil {
		return 0, err
	}
	sl.sawWindow(rw)
	if s.ext[0][0] != key+uint64(wrongSum) {
		return 0, fmt.Errorf("%w: GET %d: reply for key %d, asked for %d", errWrong, i, s.ext[0][0], key)
	}
	for j, got := range s.ext[1] {
		if got != kvsValue(key, j) {
			return 0, fmt.Errorf("%w: GET %d key %d: value byte %d is %d, want %d", errWrong, i, key, j, got, kvsValue(key, j))
		}
	}
	return 1, nil
}

// gomaxprocs is the workload's GOMAXPROCS on this machine.
func (wl *workload) gomaxprocs() int { return min(runtime.NumCPU(), wl.procs) }

// useProcs sets GOMAXPROCS for the workload and returns the call that puts
// it back.
func (wl *workload) useProcs() (restore func()) {
	before := runtime.GOMAXPROCS(wl.gomaxprocs())
	return func() { runtime.GOMAXPROCS(before) }
}

// zipfStream draws n keys from [0, keys) with probability ∝ 1/rank^s
// (key 0 hottest; the standard library's sampler needs s > 1).
func zipfStream(keys int, s float64, seed int64, n int) []uint64 {
	cdf := make([]float64, keys)
	var sum float64
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(min(sort.SearchFloat64s(cdf, rng.Float64()*sum), keys-1))
	}
	return out
}
