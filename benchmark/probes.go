package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"ncl"
	"ncl/internal/and"
	"ncl/internal/ncp"
	"ncl/internal/netsim"
	"ncl/internal/pisa"
	nclrt "ncl/internal/runtime"
)

// The probes time calls into each layer's exported functions from
// outside, on the packet shapes the workloads put on the wire (the W=8
// allreduce window unless the name says otherwise) and against objects
// taken from a real Deploy. They are independent of the workload being
// run. README.md lists the internal entry points they depend on.

// probeCalls is how many calls each per-window probe times.
const probeCalls = 200_000

// discard is a transport that drops everything: a probe of one node must
// not pay for the next one.
type discard struct{ net *ncl.Network }

func (d discard) Send(_, _ string, _ *netsim.Packet) error                 { return nil }
func (d discard) SendBatch(_ string, _ []string, _ []*netsim.Packet) error { return nil }
func (d discard) Network() *ncl.Network                                    { return d.net }

type countNode struct {
	label string
	n     atomic.Int64
}

func (c *countNode) Label() string                                 { return c.label }
func (c *countNode) Receive(netsim.Sender, *netsim.Packet, string) { c.n.Add(1) }

// cost is the total time and heap allocations of a number of calls.
type cost struct {
	d       time.Duration
	mallocs uint64
	calls   int
}

func (c cost) ns() float64     { return float64(c.d) / float64(c.calls) }
func (c cost) allocs() float64 { return float64(c.mallocs) / float64(c.calls) }

func (c cost) plus(o cost) cost { return cost{c.d + o.d, c.mallocs + o.mallocs, c.calls + o.calls} }

// timeCalls times n calls of f. Nothing else may run meanwhile: Mallocs
// is process-wide.
func timeCalls(n int, f func(i int)) cost {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	d := time.Since(start)
	runtime.ReadMemStats(&m1)
	return cost{d, m1.Mallocs - m0.Mallocs, n}
}

// medianMs times reps calls of f one by one and returns the median in ms.
func medianMs(reps int, f func() error) (float64, error) {
	ms := make([]float64, reps)
	for i := range ms {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ms[i] = float64(time.Since(start)) / float64(time.Millisecond)
	}
	return median(ms), nil
}

// allreducePackets marshals one contribution per worker and sequence
// number, and one broadcast result per sequence number, exactly as the
// runtime and the switch would.
func allreducePackets(dep *ncl.Deployment, senders [2]uint32) (contrib [2][][]byte, results [][]byte, specs []ncp.ParamSpec, err error) {
	art := dep.Artifact
	specs = art.AppConfig().OutSpecs["allreduce"]
	window := make([]uint64, winLen)
	for i := range window {
		window[i] = uint64(i + 1)
	}
	payload, err := ncp.EncodePayload([][]uint64{window}, specs)
	if err != nil {
		return contrib, nil, nil, err
	}
	marshal := func(flags uint8, sender, seq uint32) []byte {
		var pkt []byte
		if err == nil {
			pkt, err = ncp.Marshal(&ncp.Header{Flags: flags, KernelID: art.KernelIDs["allreduce"], WindowSeq: seq,
				WindowLen: winLen, Sender: sender, Wid: 1, FragCount: 1}, nil, payload)
		}
		return pkt
	}
	for seq := uint32(0); seq < windowsPerRound; seq++ {
		for w, id := range senders {
			contrib[w] = append(contrib[w], marshal(0, id, seq))
		}
		results = append(results, marshal(ncp.FlagBcast, senders[0], seq))
	}
	return contrib, results, specs, err
}

// runProbes measures every probe-backed layer metric. calls is the
// number of per-window calls timed (probeCalls outside the smoke test);
// reps the number of builds and deploys.
func runProbes(calls, reps int) (values, error) {
	v := values{}
	if err := probeStar(v, calls, reps); err != nil {
		return nil, fmt.Errorf("probes (star): %w", err)
	}
	if err := probeFatTree(v, calls, reps); err != nil {
		return nil, fmt.Errorf("probes (fat-tree): %w", err)
	}
	if err := probeKVS(v, calls); err != nil {
		return nil, fmt.Errorf("probes (kvs): %w", err)
	}
	if err := probeFabric(v, calls); err != nil {
		return nil, fmt.Errorf("probes (fabric): %w", err)
	}
	return v, nil
}

func probeStar(v values, calls, reps int) error {
	var art *ncl.Artifact
	var err error
	if v["ncl.build_ms"], err = medianMs(reps, func() error {
		art, err = ncl.Build(allreduceNCL, starAND, ncl.BuildOptions{WindowLen: winLen, ModuleName: "allreduce", SendWorkers: 1})
		return err
	}); err != nil {
		return err
	}
	var deps []*ncl.Deployment
	defer func() {
		for _, d := range deps {
			d.Stop()
		}
	}()
	if v["core.deploy_ms"], err = medianMs(reps, func() error {
		d, err := art.Deploy(ncl.Faults{})
		if err == nil {
			deps = append(deps, d)
		}
		return err
	}); err != nil {
		return err
	}
	dep := deps[0]
	if err := dep.Controller.CtrlWrite("nworkers", 0, 2); err != nil {
		return err
	}
	w0, w1 := dep.Hosts["worker0"], dep.Hosts["worker1"]
	contrib, results, specs, err := allreducePackets(dep, [2]uint32{w0.ID(), w1.ID()})
	if err != nil {
		return err
	}

	// ncp: encode = AppendPayload + Marshal, decode = DecodeFullInto +
	// DecodePayloadInto, both into reused scratch as the data path does.
	window := [][]uint64{make([]uint64, winLen)}
	hdr := ncp.Header{KernelID: art.KernelIDs["allreduce"], WindowLen: winLen, Sender: w0.ID(), Wid: 1, FragCount: 1}
	var payload, pkt []byte
	enc := timeCalls(calls, func(i int) {
		hdr.WindowSeq = uint32(i % windowsPerRound)
		payload, _ = ncp.AppendPayload(payload[:0], window, specs)
		pkt, err = ncp.Marshal(&hdr, nil, payload)
	})
	if err != nil {
		return err
	}
	var dec ncp.Decoded
	var data [][]uint64
	decode := timeCalls(calls, func(i int) {
		if derr := ncp.DecodeFullInto(contrib[0][i%windowsPerRound], &dec); derr != nil {
			err = derr
		}
		data, _ = ncp.DecodePayloadInto(data, dec.Payload, specs)
	})
	if err != nil {
		return err
	}
	v["ncp.encode_ns_per_window"] = enc.ns()
	v["ncp.decode_ns_per_window"] = decode.ns()
	v["ncp.decode_allocs_per_window"] = decode.allocs()
	v["ncp.wire_overhead_bytes"] = float64(len(pkt) - len(payload))

	// runtime receive side: fill worker0's inbox through Host.Receive,
	// then empty it once with In and once with Recv. The difference is the
	// interpreted incoming kernel (plus its payload decode).
	var recv, in, rcv cost
	ext := [][]uint64{make([]uint64, dataLen), make([]uint64, 1)}
	pkts := make([]netsim.Packet, min(calls, 32768)) // below the host inbox capacity
	for _, kernel := range []bool{true, false} {
		for done := 0; done < calls; done += len(pkts) {
			n := min(len(pkts), calls-done)
			fill := timeCalls(n, func(i int) {
				pkts[i] = netsim.Packet{Src: "s1", Dst: "worker0", Data: results[i%windowsPerRound]}
				w0.Receive(nil, &pkts[i], "s1")
			})
			if w0.Pending() != n {
				return fmt.Errorf("Host.Receive queued %d of %d windows", w0.Pending(), n)
			}
			if kernel {
				in = in.plus(timeCalls(n, func(int) { _, err = w0.In("result", ext, opTimeout) }))
			} else {
				recv = recv.plus(fill)
				rcv = rcv.plus(timeCalls(n, func(int) { _, err = w0.Recv(opTimeout) }))
			}
			if err != nil {
				return err
			}
		}
	}
	v["runtime.in_kernel_ns_per_window"] = in.ns() - rcv.ns()
	v["runtime.in_kernel_allocs_per_window"] = in.allocs() - rcv.allocs()
	v["runtime.host_receive_ns_per_window"] = recv.ns() + rcv.ns()
	v["runtime.host_receive_allocs_per_window"] = recv.allocs() + rcv.allocs()

	// runtime send side: Out on a host with the deployment's own
	// configuration but a discarding transport, so only encode, marshal and
	// packet hand-off are counted.
	sender := nclrt.NewHost("worker0", w0.ID(), 0, art.AppConfig(), discard{art.Net}, map[string]string{"s1": "s1"})
	arrays := [][]uint64{make([]uint64, dataLen)}
	rounds := max(1, calls/windowsPerRound)
	out := timeCalls(rounds, func(int) {
		if oerr := sender.Out(ncl.Invocation{Kernel: "allreduce", Dest: "s1"}, arrays); oerr != nil {
			err = oerr
		}
	})
	if err != nil {
		return err
	}
	v["runtime.out_allocs_per_window"] = out.allocs() / windowsPerRound

	// pisa: the device alone, 64 windows per ExecWindowBatch, the two
	// workers' contributions alternating as they do at the switch.
	dev := dep.Switches["s1"].Device()
	kid, loc := art.KernelIDs["allreduce"], art.Programs["s1"].LocID
	jobs := make([]pisa.BatchJob, 64)
	for j := range jobs {
		jobs[j].Data = [][]uint64{make([]uint64, winLen)}
	}
	execBatches := func(exactlyOnce bool) (cost, error) {
		var err error
		c := timeCalls(max(1, calls/len(jobs)), func(b int) {
			for j := range jobs {
				n := b*len(jobs) + j
				jobs[j].Meta = pisa.WindowMeta{Seq: uint64(n / 2 % windowsPerRound), Len: winLen, Sender: uint64(1 + n%2),
					Wid: uint64(b + 1), ExactlyOnce: exactlyOnce}
			}
			if berr := dev.ExecWindowBatch(kid, jobs, loc); berr != nil {
				err = berr
			}
		})
		for j := range jobs {
			if err == nil {
				err = jobs[j].Err
			}
		}
		c.calls *= len(jobs)
		return c, err
	}
	plain, err := execBatches(false)
	if err != nil {
		return err
	}
	once, err := execBatches(true)
	if err != nil {
		return err
	}
	v["pisa.exec_ns_per_window"] = plain.ns()
	v["pisa.exec_allocs_per_window"] = plain.allocs()
	v["pisa.exec_exactly_once_ns_per_window"] = once.ns()

	// netsim: the whole executing hop — decode, exec, and for every second
	// window repack and broadcast — into a discarding transport.
	sn, sink := dep.Switches["s1"], discard{dep.Fabric.Network()}
	from := [2]string{"worker0", "worker1"}
	var p netsim.Packet
	hop := timeCalls(calls, func(i int) {
		w := i % 2
		p = netsim.Packet{Src: from[w], Dst: "s1", Data: contrib[w][i/2%windowsPerRound]}
		sn.Receive(sink, &p, from[w])
	})
	if n := sn.Errors.Load(); n != 0 {
		return fmt.Errorf("switch counted %d errors on the exec hop", n)
	}
	v["netsim.switch_exec_hop_ns_per_window"] = hop.ns()
	v["netsim.switch_exec_hop_allocs_per_window"] = hop.allocs()
	return nil
}

// probeFatTree times topology generation, placed deployment, and the
// forward-only hop of a fat-tree switch that hosts no kernel.
func probeFatTree(v values, calls, reps int) error {
	art, err := ncl.Build(allreduceNCL, fatTreeStarAND, ncl.BuildOptions{WindowLen: winLen, ModuleName: "allreduce", SendWorkers: 1})
	if err != nil {
		return err
	}
	var fat *ncl.Network
	if v["and.fattree_ms"], err = medianMs(reps, func() error {
		fat, err = ncl.FatTree(fatTreeArity)
		return err
	}); err != nil {
		return err
	}
	var deps []*ncl.Deployment
	defer func() {
		for _, d := range deps {
			d.Stop()
		}
	}()
	if v["controller.place_deploy_ms"], err = medianMs(reps, func() error {
		d, err := art.DeployOn(fat, ncl.PlacedOptions{})
		if err == nil {
			deps = append(deps, d)
		}
		return err
	}); err != nil {
		return err
	}
	dep := deps[0]
	placed := dep.Controller.Placement().Assign["s1"]
	src := "h0"
	if fat.NodeByLabel(src).Rack == placed {
		src = "h64"
	}
	edge := fat.NodeByLabel(src).Rack
	contrib, _, _, err := allreducePackets(dep, [2]uint32{dep.Hosts["h0"].ID(), dep.Hosts["h64"].ID()})
	if err != nil {
		return err
	}
	sn, sink := dep.Switches[edge], discard{fat}
	var p netsim.Packet
	hop := timeCalls(calls, func(i int) {
		p = netsim.Packet{Src: src, Dst: "s1", Via: placed, Data: contrib[0][i%windowsPerRound]}
		sn.Receive(sink, &p, src)
	})
	if n := sn.Errors.Load(); n != 0 {
		return fmt.Errorf("switch %s counted %d errors on the transit hop", edge, n)
	}
	if n := sn.ForwardedRaw.Load(); n != uint64(calls) {
		return fmt.Errorf("switch %s forwarded %d of %d windows", edge, n, calls)
	}
	v["netsim.switch_transit_hop_ns_per_window"] = hop.ns()
	v["netsim.switch_transit_hop_allocs_per_window"] = hop.allocs()
	return nil
}

// probeKVS times the device on the Fig. 5 GET-hit path of a warmed cache.
func probeKVS(v values, calls int) error {
	inst, err := setupKVS(1)
	if err != nil {
		return err
	}
	defer inst.stop()
	art := inst.dep.Artifact
	dev := inst.dep.Switches["s1"].Device()
	kid, loc := art.KernelIDs["query"], art.Programs["s1"].LocID
	client := uint64(inst.dep.Hosts["client"].ID())
	jobs := make([]pisa.BatchJob, 64)
	for j := range jobs {
		jobs[j].Data = [][]uint64{{uint64(j % kvsCached)}, make([]uint64, kvsValBytes), {0}}
		jobs[j].Meta = pisa.WindowMeta{Len: kvsValBytes, Sender: client, Wid: uint64(j + 1)}
	}
	c := timeCalls(max(1, calls/len(jobs)), func(int) {
		if berr := dev.ExecWindowBatch(kid, jobs, loc); berr != nil {
			err = berr
		}
	})
	if err != nil {
		return err
	}
	for j := range jobs {
		if jobs[j].Err != nil {
			return jobs[j].Err
		}
		for i, got := range jobs[j].Data[1] {
			if got != kvsValue(uint64(j%kvsCached), i) {
				return fmt.Errorf("GET of cached key %d did not hit", j%kvsCached)
			}
		}
	}
	c.calls *= len(jobs)
	v["pisa.kvs_hit_ns_per_window"] = c.ns()
	return nil
}

// probeFabric times the bare transport: SendBatch of 64 host→host into a
// counting node, until the last packet has been delivered.
func probeFabric(v values, calls int) error {
	net, err := and.Parse("host a\nhost b\nlink a b")
	if err != nil {
		return err
	}
	fab := netsim.New(net, netsim.Faults{})
	fab.SetInboxCap(calls + 64)
	sink := &countNode{label: "b"}
	for _, n := range []netsim.Node{&countNode{label: "a"}, sink} {
		if err := fab.Attach(n); err != nil {
			return err
		}
	}
	if err := fab.Start(); err != nil {
		return err
	}
	defer fab.Stop()
	const chunk = 64
	data := make([]byte, ncp.HeaderSize+4*winLen)
	pkts := make([]netsim.Packet, calls)
	ptrs := make([]*netsim.Packet, calls)
	tos := make([]string, chunk)
	for i := range tos {
		tos[i] = "b"
	}
	for i := range pkts {
		pkts[i] = netsim.Packet{Src: "a", Dst: "b", Data: data}
		ptrs[i] = &pkts[i]
	}
	c := timeCalls(1, func(int) {
		for sent := 0; sent < calls && err == nil; sent += chunk {
			n := min(chunk, calls-sent)
			err = fab.SendBatch("a", tos[:n], ptrs[sent:sent+n])
		}
		for deadline := time.Now().Add(opTimeout); sink.n.Load() < int64(calls) && err == nil; runtime.Gosched() {
			if time.Now().After(deadline) {
				err = fmt.Errorf("fabric delivered %d of %d packets", sink.n.Load(), calls)
			}
		}
	})
	if err != nil {
		return err
	}
	c.calls = calls
	v["netsim.fabric_ns_per_packet"] = c.ns()
	v["netsim.fabric_allocs_per_packet"] = c.allocs()
	return nil
}
