package bench

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"ncl/internal/core"
	"ncl/internal/netsim"
	"ncl/internal/obs"
	"ncl/internal/runtime"
)

// AllReduceRun is one measured in-network AllReduce.
type AllReduceRun struct {
	Workers    int
	DataLen    int // elements per worker
	WindowLen  int
	Wall       time.Duration
	TotalBytes uint64
	HostBytes  uint64
	Packets    uint64
	SwitchWins uint64
	MakespanUs float64 // simulated completion time over the AND's links
	// Metrics is the deployment's full observability snapshot at the end
	// of the run (host/switch/pisa/fabric/controller counters).
	Metrics *obs.Snapshot
}

// BuildAllReduce compiles the Fig. 4 application for the given shape.
func BuildAllReduce(workers, dataLen, w int) (*core.Artifact, error) {
	return core.Build(AllReduceNCL(dataLen), AllReduceAND(workers),
		core.BuildOptions{WindowLen: w, ModuleName: "allreduce"})
}

// RunINCAllReduce deploys the artifact on a perfect in-memory fabric and
// performs one full in-network AllReduce round (RunAllReduceRound).
func RunINCAllReduce(art *core.Artifact, workers, dataLen int) (AllReduceRun, error) {
	dep, err := art.Deploy(netsim.Faults{})
	if err != nil {
		return AllReduceRun{}, err
	}
	defer dep.Stop()
	return RunAllReduceRound(dep, workers, dataLen)
}

// RunAllReduceRound performs one full in-network AllReduce round on a
// fresh deployment, whatever its transport, and returns its time and —
// where the transport is the fabric, which counts them — traffic
// measurements. Results are verified.
func RunAllReduceRound(dep *core.Deployment, workers, dataLen int) (AllReduceRun, error) {
	w := dep.Artifact.WindowLen
	run := AllReduceRun{Workers: workers, DataLen: dataLen, WindowLen: w}
	if err := dep.Controller.CtrlWrite("nworkers", 0, uint64(workers)); err != nil {
		return run, err
	}

	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			host := dep.Hosts[fmt.Sprintf("worker%d", wi)]
			data := make([]uint64, dataLen)
			for i := range data {
				data[i] = uint64(int64((wi + 1) * (i + 1)))
			}
			if err := host.Out(runtime.Invocation{Kernel: "allreduce", Dest: "s1"}, [][]uint64{data}); err != nil {
				errs[wi] = err
				return
			}
			hdata := make([]uint64, dataLen)
			done := make([]uint64, 1)
			for n := 0; n < dataLen/w; n++ {
				if _, err := host.In("result", [][]uint64{hdata, done}, 30*time.Second); err != nil {
					errs[wi] = err
					return
				}
			}
			// Verify one element per worker to keep the hot loop light.
			want := int64(0)
			for ww := 0; ww < workers; ww++ {
				want += int64((ww + 1) * dataLen)
			}
			if int64(hdata[dataLen-1]) != want {
				errs[wi] = fmt.Errorf("bench: worker %d got %d, want %d", wi, int64(hdata[dataLen-1]), want)
			}
		}(wi)
	}
	wg.Wait()
	run.Wall = time.Since(start)
	for _, err := range errs {
		if err != nil {
			return run, err
		}
	}
	if fab := dep.Fabric; fab != nil {
		run.TotalBytes = fab.TotalBytes()
		run.HostBytes = fab.HostBytes()
		run.Packets = fab.TotalPackets()
		run.MakespanUs = fab.MakespanUs()
	}
	run.SwitchWins = dep.Switches["s1"].KernelWindows.Load()
	run.Metrics = dep.Obs.Snapshot()
	return run, nil
}

// KVSRun is one measured cache experiment.
type KVSRun struct {
	Skew          float64
	Requests      int
	Hits          uint64 // answered by the switch (reflected)
	ServerHandled uint64 // misses that reached the storage server
	TotalBytes    uint64
	ServerBytes   uint64
	Wall          time.Duration
	// Metrics is the deployment's observability snapshot after the run.
	Metrics *obs.Snapshot
}

// RunINCKVS drives the Fig. 5 cache with a zipf(s) GET workload over
// `keys` keys. The server populates the cache for the `cacheCap` hottest
// keys through the data plane first (its update path), then the client
// issues `requests` GETs; misses are answered by the server.
func RunINCKVS(keys, cacheCap, valBytes, requests int, skew float64, seed int64) (KVSRun, error) {
	run := KVSRun{Skew: skew, Requests: requests}
	art, err := core.Build(KVSNCL(cacheCap, valBytes), KVSAND,
		core.BuildOptions{WindowLen: valBytes, ModuleName: "kvs"})
	if err != nil {
		return run, err
	}
	dep, err := art.Deploy(netsim.Faults{})
	if err != nil {
		return run, err
	}
	defer dep.Stop()

	client := dep.Hosts["client"]
	server := dep.Hosts["server"]

	// Warm the cache: hottest cacheCap keys, installed by the server
	// (Idx entry via the control plane + value via the update path).
	for k := 0; k < cacheCap && k < keys; k++ {
		if err := dep.Controller.MapInsert("s1", "Idx", uint64(k), uint64(k%cacheCap)); err != nil {
			return run, err
		}
		value := make([]uint64, valBytes)
		for i := range value {
			value[i] = uint64(k+i) & 0x7F
		}
		if err := server.OutWindow(runtime.Invocation{Kernel: "query", Dest: "client"},
			server.NewWid(), 0, [][]uint64{{uint64(k)}, value, {1}}); err != nil {
			return run, err
		}
	}
	// Wait for the installs to land (they drop at the switch).
	deadline := time.Now().Add(10 * time.Second)
	for {
		v, err := dep.Controller.ReadRegister("s1", "Valid", (cacheCap-1)%cacheCap)
		if err == nil && v == 1 {
			break
		}
		if time.Now().After(deadline) {
			return run, fmt.Errorf("bench: cache warmup did not complete")
		}
		time.Sleep(time.Millisecond)
	}
	dep.Fabric.ResetStats()

	// Server loop: answer every miss (the Fig. 5 GET-response path).
	serverDone := make(chan struct{})
	stop := make(chan struct{})
	go func() {
		defer close(serverDone)
		rkey := make([]uint64, 1)
		rval := make([]uint64, valBytes)
		for {
			select {
			case <-stop:
				return
			default:
			}
			rw, err := server.In("reply", [][]uint64{rkey, rval}, 50*time.Millisecond)
			if err != nil {
				continue
			}
			_ = rw
			value := make([]uint64, valBytes)
			for i := range value {
				value[i] = uint64(int(rkey[0])+i) & 0x7F
			}
			if err := server.OutWindow(runtime.Invocation{Kernel: "query", Dest: "client"},
				server.NewWid(), 0, [][]uint64{{rkey[0]}, value, {0}}); err != nil {
				return
			}
		}
	}()

	z := NewZipf(keys, skew, seed)
	start := time.Now()
	rkey := make([]uint64, 1)
	rval := make([]uint64, valBytes)
	var hits uint64
	for i := 0; i < requests; i++ {
		k := z.Next()
		if err := client.OutWindow(runtime.Invocation{Kernel: "query", Dest: "server"},
			client.NewWid(), 0, [][]uint64{{k}, make([]uint64, valBytes), {0}}); err != nil {
			return run, err
		}
		rw, err := client.In("reply", [][]uint64{rkey, rval}, 10*time.Second)
		if err != nil {
			return run, fmt.Errorf("bench: request %d (key %d): %w", i, k, err)
		}
		if rw.Header.Flags&0x1 != 0 { // ncp.FlagReflected
			hits++
		}
	}
	run.Wall = time.Since(start)
	close(stop)
	<-serverDone

	run.Hits = hits
	run.ServerHandled = uint64(requests) - hits
	run.TotalBytes = dep.Fabric.TotalBytes()
	if st := dep.Fabric.Stats("s1", "server"); st != nil {
		run.ServerBytes = st.Bytes.Load()
	}
	run.Metrics = dep.Obs.Snapshot()
	return run, nil
}

// Table renders fixed-width experiment tables.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render formats the table.
func (t *Table) Render() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}
