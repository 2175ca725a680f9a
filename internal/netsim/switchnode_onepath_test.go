package netsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ncl/internal/and"
	"ncl/internal/ncp"
	"ncl/internal/obs"
	"ncl/internal/pisa"
)

// onePathProgram holds two kernels over shared device state. Kernel 1
// adds its element into total[0] and takes its forwarding decision from
// the element's low two bits (pass / drop / reflect / bcast), so a random
// stream exercises every route. Kernel 2 counts into slots[x] and passes;
// x >= 4 is out of range and traps.
func onePathProgram() *pisa.Program {
	kernel := func(id uint32, name string, st *pisa.Stage) *pisa.Kernel {
		return &pisa.Kernel{
			Name: name, ID: id, WindowLen: 1,
			Fields: []pisa.Field{
				{Name: pisa.FieldFwd, Bits: 8},
				{Name: "d_x_0", Bits: 32},
			},
			Params:  []pisa.ParamLayout{{Name: "x", Elems: 1, Bits: 32, Fields: []pisa.FieldRef{1}}},
			WinMeta: map[string]pisa.FieldRef{},
			Passes:  [][]*pisa.Stage{{st}},
		}
	}
	sum := kernel(1, "sum", &pisa.Stage{
		SALUs: []*pisa.SALU{{
			Global: "total", Index: pisa.ConstOperand(0),
			Prog: []pisa.MicroOp{{Op: "add", Dst: pisa.MReg,
				A: pisa.SlotOperand(pisa.MReg), B: pisa.PhvOperand(1)}},
			Out: pisa.NoField,
		}},
		VLIW: []pisa.ActionOp{{Op: "and", Dst: 0, A: pisa.FieldOperand(1), B: pisa.ConstOperand(3)}},
	})
	slot := kernel(2, "slot", &pisa.Stage{
		SALUs: []*pisa.SALU{{
			Global: "slots", Index: pisa.FieldOperand(1),
			Prog: []pisa.MicroOp{{Op: "add", Dst: pisa.MReg,
				A: pisa.SlotOperand(pisa.MReg), B: pisa.ImmOperand(1)}},
			Out: pisa.NoField,
		}},
	})
	return &pisa.Program{
		Name: "onepath",
		Registers: []pisa.RegisterDef{
			{Name: "total", Elems: 1, Bits: 64, Stage: 0},
			{Name: "slots", Elems: 4, Bits: 32, Stage: 0},
		},
		Kernels: []*pisa.Kernel{sum, slot},
	}
}

var onePathHosts = map[uint32]string{1: "a", 2: "b", 3: "c"}

// onePathStream generates the seeded packet mix: plain windows of both
// kernels, multi-window packets (well-formed and ragged), traced windows
// under virtual time, exactly-once + ack-request windows and their
// retransmits, host acks, fragments, unknown-kernel windows, non-NCP
// bytes, corrupt NCP and trapping windows.
func onePathStream(t *testing.T, r *rand.Rand, n int) []*Packet {
	t.Helper()
	spec := []ncp.ParamSpec{{Elems: 1, Bytes: 4}}
	element := func(x uint64) []byte {
		p, err := ncp.EncodePayload([][]uint64{{x}}, spec)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	labels := []string{"a", "b", "c"}
	var stream, reliable []*Packet
	for len(stream) < n {
		sender := uint32(1 + r.Intn(3))
		h := ncp.Header{
			KernelID: uint32(1 + r.Intn(2)), WindowLen: 1, Sender: sender,
			Wid: uint32(r.Intn(3)), WindowSeq: uint32(r.Intn(200)), FragCount: 1,
		}
		pkt := &Packet{Src: onePathHosts[sender], Dst: labels[r.Intn(3)]}
		payload := element(uint64(r.Intn(4)))
		if h.KernelID == 1 {
			payload = element(uint64(r.Intn(1000)))
		}
		if r.Intn(5) == 0 {
			h.Flags |= ncp.FlagTrace
			pkt.VTimeUs = 1 + 10*r.Float64()
		}
		switch kind := r.Intn(20); {
		case kind < 8: // plain window
		case kind < 10: // multi-window packet; one in four is ragged
			h.BatchCount = uint8(2 + r.Intn(3))
			payload = nil
			for k := 0; k < int(h.BatchCount); k++ {
				payload = append(payload, element(uint64(r.Intn(1000)))...)
			}
			if r.Intn(4) == 0 {
				payload = append(payload, 0xAB)
			}
		case kind < 13: // reliable exactly-once window, or a retransmit of one
			if len(reliable) > 0 && r.Intn(3) == 0 {
				old := reliable[r.Intn(len(reliable))]
				stream = append(stream, &Packet{Src: old.Src, Dst: old.Dst, Data: old.Data, VTimeUs: old.VTimeUs})
				continue
			}
			h.KernelID = 1
			h.Flags |= ncp.FlagAckRequest | ncp.FlagExactlyOnce
			payload = element(uint64(r.Intn(1000)))
			reliable = append(reliable, pkt)
		case kind < 14: // a host's ack passing through
			h.Flags |= ncp.FlagAck
			payload = nil
		case kind < 15: // fragment of a multi-packet window
			h.FragCount, h.FragIdx = 2, uint16(r.Intn(2))
		case kind < 16:
			h.KernelID = 99
		case kind < 17:
			h.KernelID = 2
			payload = element(uint64(4 + r.Intn(4))) // traps: slots has 4 elements
		case kind < 18: // non-NCP
			pkt.Data = []byte{0xff, byte(r.Intn(256)), byte(len(stream))}
			stream = append(stream, pkt)
			continue
		}
		data, err := ncp.Marshal(&h, nil, payload)
		if err != nil {
			t.Fatal(err)
		}
		if r.Intn(20) == 0 {
			data[8] ^= 0xFF // corrupt: the checksum no longer matches
		}
		pkt.Data = data
		stream = append(stream, pkt)
	}
	return stream
}

// onePathRecorder is a transport that records what a switch sends.
type onePathRecorder struct {
	net  *and.Network
	tos  []string
	sent []*Packet
}

func (r *onePathRecorder) Network() *and.Network { return r.net }
func (r *onePathRecorder) SendBatch(_ string, tos []string, pkts []*Packet) error {
	r.tos = append(r.tos, tos...)
	r.sent = append(r.sent, pkts...)
	return nil
}

// onePathResult is everything the differential compares.
type onePathResult struct {
	out       map[string][]string // next hop -> packets in order (acks the switch emitted excluded)
	acked     []string            // sorted set of (target, wid, seq) the switch acknowledged
	counters  map[string]uint64   // switch.* and pisa.* except acks_sent and acks_repeated
	gauges    map[string]int64
	execNs    uint64 // exec_ns sample count
	registers []uint64
}

// runOnePath feeds the stream to a fresh switch, cut into bursts at the
// given boundaries (nil: one Receive per packet).
func runOnePath(t *testing.T, net *and.Network, stream []*Packet, cuts []int) onePathResult {
	t.Helper()
	sn := NewSwitchNode("s1", pisa.DefaultTarget())
	reg := obs.NewRegistry()
	sn.SetObs(reg)
	if err := sn.Install(onePathProgram(), 1); err != nil {
		t.Fatal(err)
	}
	sn.SetRouting(SinglePath(net.NextHops()["s1"], onePathHosts))
	sn.SetDepthSource(func() int { return 5 })

	rec := &onePathRecorder{net: net}
	fresh := make([]Delivery, len(stream))
	for i, p := range stream {
		// Each delivery owns its bytes: the switch edits executed windows
		// in place, and the runs compared replay the same stream.
		data := append([]byte(nil), p.Data...)
		fresh[i] = Delivery{Pkt: &Packet{Src: p.Src, Dst: p.Dst, Data: data, VTimeUs: p.VTimeUs}, From: p.Src}
	}
	if cuts == nil {
		for _, d := range fresh {
			sn.Receive(rec, d.Pkt, d.From)
		}
	} else {
		start := 0
		for _, end := range append(cuts, len(fresh)) {
			sn.ReceiveBurst(rec, fresh[start:end])
			start = end
		}
	}

	res := onePathResult{out: map[string][]string{}, counters: map[string]uint64{}}
	acked := map[string]bool{}
	for i, p := range rec.sent {
		if p.Src == "s1" {
			if h, _, body, err := ncp.Decode(p.Data); err == nil && h.Flags&ncp.FlagAck != 0 {
				more, ok := ncp.AckRange(body)
				if !ok {
					t.Fatalf("switch ack with a malformed range: % x", body)
				}
				for d := uint32(0); d < ncp.AckSpan; d++ {
					if d == 0 || more&(1<<(d-1)) != 0 {
						acked[fmt.Sprintf("%s/%d/%d", p.Dst, h.Wid, h.WindowSeq+d)] = true
					}
				}
				continue
			}
		}
		res.out[rec.tos[i]] = append(res.out[rec.tos[i]],
			fmt.Sprintf("%s>%s via=%q t=%.3f % x", p.Src, p.Dst, p.Via, p.VTimeUs, p.Data))
	}
	for k := range acked {
		res.acked = append(res.acked, k)
	}
	sort.Strings(res.acked)
	snap := reg.Snapshot()
	for name, v := range snap.Counters {
		if !strings.HasSuffix(name, ".acks_sent") && !strings.HasSuffix(name, ".acks_repeated") {
			res.counters[name] = v
		}
	}
	res.gauges = snap.Gauges
	res.execNs = snap.Histograms["switch.s1.exec_ns"].Count
	for _, r := range []struct {
		name  string
		elems int
	}{{"total", 1}, {"slots", 4}} {
		for i := 0; i < r.elems; i++ {
			v, err := sn.Device().ReadRegister(r.name, i)
			if err != nil {
				t.Fatal(err)
			}
			res.registers = append(res.registers, v)
		}
	}
	return res
}

// TestSwitchOnePathDifferential: the segment loop is the switch's only
// receive path, so how a stream is cut into bursts — one Receive per
// packet, one burst, random splits — must not change what the switch
// does: per-next-hop output bytes, every
// switch.* and pisa.* counter but acks_sent and acks_repeated (ack
// coalescing follows the segments, ack repeats the bursts), the set of windows acknowledged, the exec_ns sample count
// and the final registers are identical.
func TestSwitchOnePathDifferential(t *testing.T) {
	net, err := and.Parse("switch s1 id=1\nhost a role=0\nhost b role=0\nhost c role=1\nlink a s1\nlink b s1\nlink s1 c")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		stream := onePathStream(t, r, 400)
		want := runOnePath(t, net, stream, nil)
		if want.counters["switch.s1.kernel_windows"] == 0 || want.counters["switch.s1.errors"] == 0 ||
			want.counters["switch.s1.forwarded_raw"] == 0 || want.counters["switch.s1.dup_suppressed"] == 0 ||
			want.execNs == 0 || len(want.acked) == 0 {
			t.Fatalf("seed %d: the stream does not exercise every path: %+v exec_ns=%d acked=%d",
				seed, want.counters, want.execNs, len(want.acked))
		}
		var cuts []int
		for at := r.Intn(20); at < len(stream); at += 1 + r.Intn(70) {
			cuts = append(cuts, at)
		}
		for name, burstCuts := range map[string][]int{"one-burst": {}, "splits": cuts} {
			got := runOnePath(t, net, stream, burstCuts)
			if reflect.DeepEqual(got, want) {
				continue
			}
			for hop := range want.out {
				if !reflect.DeepEqual(got.out[hop], want.out[hop]) {
					t.Errorf("seed %d %s: output toward %s differs (%d vs %d packets)", seed, name, hop, len(got.out[hop]), len(want.out[hop]))
				}
			}
			t.Fatalf("seed %d %s diverges from one Receive per packet:\n got counters %v gauges %v exec_ns %d regs %v acked %d\nwant counters %v gauges %v exec_ns %d regs %v acked %d",
				seed, name, got.counters, got.gauges, got.execNs, got.registers, len(got.acked),
				want.counters, want.gauges, want.execNs, want.registers, len(want.acked))
		}
	}
}

// reentrantSender delivers synchronously and answers: every window the
// switch sends toward a host makes it hand the switch another window from
// inside SendBatch, until the chain is depth windows long — the pattern of
// the runtime tests' loopback transport, which acks re-entrantly. A
// window's VTimeUs grows by SwitchDelayUs per executed hop, which is how
// the chain knows its length.
type reentrantSender struct {
	net     *and.Network
	sn      *SwitchNode
	window  []byte
	arrived atomic.Uint64
}

const reentrantDepth = 3

// bytes copies the window for one delivery: the receiver owns what it is
// handed and the switch edits executed windows in place.
func (r *reentrantSender) bytes() []byte { return append([]byte(nil), r.window...) }

func (r *reentrantSender) Network() *and.Network { return r.net }
func (r *reentrantSender) SendBatch(_ string, _ []string, pkts []*Packet) error {
	for _, p := range pkts {
		r.arrived.Add(1)
		if p.VTimeUs < reentrantDepth*SwitchDelayUs {
			r.sn.Receive(r, &Packet{Src: "a", Dst: "b", Data: r.bytes(), VTimeUs: p.VTimeUs}, "a")
		}
	}
	return nil
}

// TestSwitchReceiveReentrant: Receive is re-entered from inside the
// transport while the outer burst is still flushing. The working set is
// taken per call, so every window executes exactly once — none re-applied,
// none lost; several goroutines drive the switch at once for the race
// detector.
func TestSwitchReceiveReentrant(t *testing.T) {
	net, err := and.Parse("switch s1 id=1\nhost a role=0\nhost b role=1\nlink a s1\nlink s1 b")
	if err != nil {
		t.Fatal(err)
	}
	sn := NewSwitchNode("s1", pisa.DefaultTarget())
	if err := sn.Install(statefulSumProgram(), 1); err != nil {
		t.Fatal(err)
	}
	sn.SetRouting(SinglePath(net.NextHops()["s1"], map[uint32]string{1: "a", 2: "b"}))
	rs := &reentrantSender{net: net, sn: sn, window: ncpPacket(t, 1, 1, 0)}

	const goroutines, perG, burst = 4, 50, 5
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				batch := make([]Delivery, burst)
				for k := range batch {
					batch[k] = Delivery{Pkt: &Packet{Src: "a", Dst: "b", Data: rs.bytes()}, From: "a"}
				}
				sn.ReceiveBurst(rs, batch)
			}
		}()
	}
	wg.Wait()
	const want = goroutines * perG * burst * reentrantDepth
	if got := sn.KernelWindows.Load(); got != want {
		t.Errorf("executed %d windows, want %d", got, want)
	}
	if got, _ := sn.Device().ReadRegister("total", 0); got != want {
		t.Errorf("total = %d, want %d (a window applied twice or lost)", got, want)
	}
	if got := rs.arrived.Load(); got != want || sn.Errors.Load() != 0 {
		t.Errorf("%d of %d windows left the switch, %d errors", got, want, sn.Errors.Load())
	}
}
