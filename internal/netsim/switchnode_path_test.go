package netsim

import (
	"testing"
	"time"

	"ncl/internal/and"
	"ncl/internal/ncp"
	"ncl/internal/obs"
	"ncl/internal/pisa"
)

// batchPacket builds a multi-window NCP packet: `vals` windows of one
// 4-byte element each, with `extra` trailing garbage bytes appended to
// the payload.
func batchPacket(t *testing.T, vals []uint64, extra int) []byte {
	t.Helper()
	var payload []byte
	for _, v := range vals {
		p, err := ncp.EncodePayload([][]uint64{{v}}, []ncp.ParamSpec{{Elems: 1, Bytes: 4, Signed: true}})
		if err != nil {
			t.Fatal(err)
		}
		payload = append(payload, p...)
	}
	payload = append(payload, make([]byte, extra)...)
	pkt, err := ncp.Marshal(&ncp.Header{
		KernelID: 1, WindowLen: 1, Sender: 1, FragCount: 1,
		BatchCount: uint8(len(vals)), WindowSeq: 5,
	}, nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

// TestSwitchNodeBatchUnpacks: a well-formed multi-window packet unbatches
// into one kernel execution and one forwarded packet per window.
func TestSwitchNodeBatchUnpacks(t *testing.T) {
	fab, sn, _, b := chainFabric(t)
	if err := fab.Send("a", "s1", &Packet{Src: "a", Dst: "b", Data: batchPacket(t, []uint64{41, 100}, 0)}); err != nil {
		t.Fatal(err)
	}
	waitCount(t, b, 2)
	if sn.KernelWindows.Load() != 2 {
		t.Errorf("kernel windows = %d, want 2", sn.KernelWindows.Load())
	}
	want := map[uint64]bool{42: false, 101: false}
	for _, pkt := range b.got {
		h, _, payload, err := ncp.Decode(pkt.Data)
		if err != nil {
			t.Fatal(err)
		}
		if h.BatchCount > 1 {
			t.Errorf("sub-window still batched: BatchCount=%d", h.BatchCount)
		}
		data, err := ncp.DecodePayload(payload, []ncp.ParamSpec{{Elems: 1, Bytes: 4, Signed: true}})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := want[data[0][0]]; !ok {
			t.Errorf("unexpected sub-window value %d", data[0][0])
		}
		want[data[0][0]] = true
	}
	for v, seen := range want {
		if !seen {
			t.Errorf("sub-window %d never arrived", v)
		}
	}
}

// TestSwitchNodeBatchRemainderRejected: a batch whose payload does not
// split evenly into BatchCount windows is a framing error — the packet is
// dropped and counted, not silently truncated (the old path executed the
// whole windows and discarded the remainder bytes).
func TestSwitchNodeBatchRemainderRejected(t *testing.T) {
	fab, sn, _, b := chainFabric(t)
	if err := fab.Send("a", "s1", &Packet{Src: "a", Dst: "b", Data: batchPacket(t, []uint64{41, 100}, 3)}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for sn.Errors.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if sn.Errors.Load() != 1 {
		t.Fatalf("ragged batch must count a decode error, got %d", sn.Errors.Load())
	}
	if b.count() != 0 {
		t.Errorf("ragged batch must not forward any window, receiver got %d", b.count())
	}
	if sn.KernelWindows.Load() != 0 {
		t.Errorf("ragged batch must not execute, ran %d windows", sn.KernelWindows.Load())
	}
}

// bcastProgram: kernel 1 sets $fwd = 3 (broadcast) and leaves the data
// untouched.
func bcastProgram() *pisa.Program {
	k := &pisa.Kernel{
		Name: "fan", ID: 1, WindowLen: 1,
		Fields: []pisa.Field{
			{Name: pisa.FieldFwd, Bits: 8},
			{Name: "d_x_0", Bits: 32, Signed: true},
		},
		Params:  []pisa.ParamLayout{{Name: "x", Elems: 1, Bits: 32, Signed: true, Fields: []pisa.FieldRef{1}}},
		WinMeta: map[string]pisa.FieldRef{},
		Passes: [][]*pisa.Stage{{
			{VLIW: []pisa.ActionOp{{Op: "mov", Dst: 0, A: pisa.ConstOperand(3)}}},
		}},
	}
	return &pisa.Program{Name: "b", Kernels: []*pisa.Kernel{k}}
}

// TestSwitchNodeBcastEncodesOnce: a broadcast emits the window once and
// hands every neighbor the same bytes (the copies are marked Shared, so a
// switch that executes one copies it first).
func TestSwitchNodeBcastEncodesOnce(t *testing.T) {
	net, err := and.Parse("switch s1 id=1\nhost a role=0\nhost b role=1\nhost c role=1\nlink a s1\nlink s1 b\nlink s1 c")
	if err != nil {
		t.Fatal(err)
	}
	fab := New(net, Faults{})
	sn := NewSwitchNode("s1", pisa.DefaultTarget())
	if err := sn.Install(bcastProgram(), 1); err != nil {
		t.Fatal(err)
	}
	sn.SetRouting(SinglePath(net.NextHops()["s1"], map[uint32]string{1: "a", 2: "b", 3: "c"}))
	a := &echoNode{label: "a"}
	b := &echoNode{label: "b"}
	c := &echoNode{label: "c"}
	for _, n := range []Node{sn, a, b, c} {
		if err := fab.Attach(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := fab.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fab.Stop)

	if err := fab.Send("a", "s1", &Packet{Src: "a", Dst: "b", Data: ncpPacket(t, 1, 7, 0)}); err != nil {
		t.Fatal(err)
	}
	// All three neighbors (including the ingress host) get the broadcast.
	waitCount(t, a, 1)
	waitCount(t, b, 1)
	waitCount(t, c, 1)
	if got := sn.Repacks.Load(); got != 1 {
		t.Fatalf("broadcast re-serialized %d times, want exactly 1", got)
	}
	// Same backing array everywhere: one emit, shared bytes.
	if &a.got[0].Data[0] != &b.got[0].Data[0] || &b.got[0].Data[0] != &c.got[0].Data[0] {
		t.Error("broadcast copies diverged: each neighbor got a separate encoding")
	}
	h, _, _, err := ncp.Decode(b.got[0].Data)
	if err != nil {
		t.Fatalf("broadcast bytes corrupt: %v", err)
	}
	if h.Flags&ncp.FlagBcast == 0 {
		t.Error("broadcast packet missing FlagBcast")
	}
}

// statefulSumProgram: kernel 1 accumulates its window element into
// register total[0] and passes.
func statefulSumProgram() *pisa.Program {
	k := &pisa.Kernel{
		Name: "sum", ID: 1, WindowLen: 1,
		Fields: []pisa.Field{
			{Name: pisa.FieldFwd, Bits: 8},
			{Name: "d_x_0", Bits: 32, Signed: true},
		},
		Params:  []pisa.ParamLayout{{Name: "x", Elems: 1, Bits: 32, Signed: true, Fields: []pisa.FieldRef{1}}},
		WinMeta: map[string]pisa.FieldRef{},
		Passes: [][]*pisa.Stage{{
			{
				SALUs: []*pisa.SALU{{
					Global: "total", Index: pisa.ConstOperand(0),
					Prog: []pisa.MicroOp{{Op: "add", Dst: pisa.MReg,
						A: pisa.SlotOperand(pisa.MReg), B: pisa.PhvOperand(1)}},
					Out: pisa.NoField,
				}},
				VLIW: []pisa.ActionOp{{Op: "mov", Dst: 0, A: pisa.ConstOperand(0)}},
			},
		}},
	}
	return &pisa.Program{
		Name:      "s",
		Registers: []pisa.RegisterDef{{Name: "total", Elems: 1, Bits: 64, Stage: 0}},
		Kernels:   []*pisa.Kernel{k},
	}
}

// dropProgram is passProgram ending in _drop: every window is consumed
// on-path, so the switch acknowledges reliable exactly-once ones itself.
func dropProgram() *pisa.Program {
	prog := passProgram()
	k := prog.Kernels[0]
	k.Passes[0] = append(k.Passes[0], &pisa.Stage{VLIW: []pisa.ActionOp{
		{Op: "mov", Dst: k.FieldByName(pisa.FieldFwd), A: pisa.ConstOperand(1)},
	}})
	return prog
}

// blockingNode parks every Receive until released.
type blockingNode struct {
	label    string
	release  chan struct{}
	received chan struct{}
}

func (n *blockingNode) Label() string { return n.label }
func (n *blockingNode) Receive(_ Sender, _ *Packet, _ string) {
	<-n.release
	n.received <- struct{}{}
}

// TestFabricInboxDrops: a full inbox drops the packet and counts it
// (link Dropped + fabric.<label>.inbox_drops) instead of blocking the
// sender.
func TestFabricInboxDrops(t *testing.T) {
	net := pairNet(t)
	fab := New(net, Faults{})
	reg := obs.NewRegistry()
	fab.SetObs(reg)
	fab.SetInboxCap(1)
	a := &echoNode{label: "a"}
	b := &blockingNode{label: "b", release: make(chan struct{}), received: make(chan struct{}, 16)}
	if err := fab.Attach(a); err != nil {
		t.Fatal(err)
	}
	if err := fab.Attach(b); err != nil {
		t.Fatal(err)
	}
	if err := fab.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fab.Stop)

	// Five sends against a blocked receiver with a one-slot inbox: at most
	// one packet in flight at the receiver plus one queued; the rest drop
	// at send time (Send delivers inline).
	const n = 5
	for i := 0; i < n; i++ {
		if err := fab.Send("a", "b", &Packet{Src: "a", Dst: "b", Data: []byte{1}}); err != nil {
			t.Fatal(err)
		}
	}
	st := fab.Stats("a", "b")
	if st.Dropped.Load() < n-2 {
		t.Fatalf("dropped = %d, want >= %d (inbox cap 1 + one in Receive)", st.Dropped.Load(), n-2)
	}
	if got := reg.Counter("fabric.b.inbox_drops").Load(); got != st.Dropped.Load() {
		t.Errorf("fabric.b.inbox_drops = %d, link dropped = %d — counters must agree", got, st.Dropped.Load())
	}
	// Release the receiver: the queued packets still arrive.
	close(b.release)
	delivered := 0
	timeout := time.After(2 * time.Second)
	for delivered+int(st.Dropped.Load()) < n {
		select {
		case <-b.received:
			delivered++
		case <-timeout:
			t.Fatalf("delivered %d + dropped %d != sent %d", delivered, st.Dropped.Load(), n)
		}
	}
}

// recordSender keeps every packet a switch sends.
type recordSender struct {
	net  *and.Network
	sent []*Packet
}

func (r *recordSender) SendBatch(_ string, _ []string, pkts []*Packet) error {
	r.sent = append(r.sent, pkts...)
	return nil
}
func (r *recordSender) Network() *and.Network { return r.net }

// TestSwitchAcksCoalesce: the acknowledgments of one batch segment leave
// as one range ack per (sender, wid) run that fits ncp.AckSpan, counted
// once each in acks_sent; a lone window's ack keeps the empty payload
// every host sends. Each burst's last ack leaves a second time, counted in
// acks_repeated.
func TestSwitchAcksCoalesce(t *testing.T) {
	net, err := and.Parse("switch s1 id=1\nhost a role=0\nhost b role=1\nlink a s1\nlink s1 b")
	if err != nil {
		t.Fatal(err)
	}
	sn := NewSwitchNode("s1", pisa.DefaultTarget())
	if err := sn.Install(dropProgram(), 1); err != nil {
		t.Fatal(err)
	}
	sn.SetRouting(SinglePath(net.NextHops()["s1"], map[uint32]string{1: "a", 2: "b"}))

	payload, err := ncp.EncodePayload([][]uint64{{7}}, []ncp.ParamSpec{{Elems: 1, Bytes: 4, Signed: true}})
	if err != nil {
		t.Fatal(err)
	}
	window := func(sender, wid, seq uint32) Delivery {
		data, err := ncp.Marshal(&ncp.Header{
			KernelID: 1, WindowLen: 1, Sender: sender, Wid: wid, WindowSeq: seq, FragCount: 1,
			Flags: ncp.FlagAckRequest | ncp.FlagExactlyOnce,
		}, nil, payload)
		if err != nil {
			t.Fatal(err)
		}
		return Delivery{Pkt: &Packet{Src: "a", Dst: "s1", Data: data}, From: "a"}
	}
	var burst []Delivery
	for seq := uint32(0); seq < 40; seq++ {
		burst = append(burst, window(1, 7, seq))
	}
	burst = append(burst,
		window(1, 7, 0),                  // a retransmit inside the open run: already covered
		window(1, 7, 100),                // beyond the span: a new run
		window(2, 3, 5), window(2, 3, 6), // another sender
		window(1, 7, 2), // below its run's base: a new run
	)
	rec := &recordSender{net: net}
	sn.ReceiveBurst(rec, burst)
	sn.Receive(rec, window(2, 4, 9).Pkt, "b") // a burst of one

	type ack struct {
		dst       string
		wid, base uint32
		more      uint64
	}
	want := []ack{
		{"a", 7, 0, 1<<39 - 1},
		{"a", 7, 100, 0},
		{"b", 3, 5, 1},
		{"a", 7, 2, 0},
		{"a", 7, 2, 0}, // the first burst's closing ack, repeated
		{"b", 4, 9, 0},
		{"b", 4, 9, 0}, // the second burst's
	}
	if len(rec.sent) != len(want) {
		t.Fatalf("switch sent %d packets, want %d acks", len(rec.sent), len(want))
	}
	for i, p := range rec.sent {
		hd, _, body, err := ncp.Decode(p.Data)
		if err != nil {
			t.Fatal(err)
		}
		more, ok := ncp.AckRange(body)
		if hd.Flags != ncp.FlagAck || !ok {
			t.Fatalf("packet %d is not an ack: flags %s, %d payload bytes", i, hd.FlagNames(), len(body))
		}
		if got := (ack{p.Dst, hd.Wid, hd.WindowSeq, more}); got != want[i] {
			t.Errorf("ack %d = %+v, want %+v", i, got, want[i])
		}
		if want[i].more == 0 && len(body) != 0 {
			t.Errorf("ack %d: a single window's ack carries %d payload bytes", i, len(body))
		}
	}
	if got := sn.AcksSent.Load(); got != uint64(len(want)-2) {
		t.Errorf("acks_sent = %d, want %d (it counts distinct ack packets)", got, len(want)-2)
	}
	if a, b := rec.sent[3], rec.sent[4]; &a.Data[0] != &b.Data[0] || !a.Shared || !b.Shared {
		t.Error("a repeated ack and its original are not two Shared packets over one array")
	}
	if got := sn.AcksRepeated.Load(); got != 2 {
		t.Errorf("acks_repeated = %d, want one per burst", got)
	}
	if got := sn.DupSuppressed.Load(); got != 2 {
		t.Errorf("dup_suppressed = %d, want the 2 retransmits", got)
	}
}
