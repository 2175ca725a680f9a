package netsim

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"ncl/internal/and"
	"ncl/internal/ncl/interp"
	"ncl/internal/ncp"
	"ncl/internal/pisa"
)

// hopProgram is kernel 1 over an int pair and a C bool, with one user
// field u: total[0] += x[0] (a state-mutating SALU, so an exactly-once
// duplicate is suppressed), x[0] becomes the running total, x[1] ^= u, and
// the decision is the input x[1]'s low two bits (pass, drop, reflect,
// bcast). b is never written: it leaves as the parser canonicalised it.
func hopProgram() *pisa.Program {
	k := &pisa.Kernel{
		Name: "hop", ID: 1, WindowLen: 2,
		Fields: []pisa.Field{
			{Name: pisa.FieldFwd, Bits: 8},
			{Name: "d_x_0", Bits: 32, Signed: true},
			{Name: "d_x_1", Bits: 32, Signed: true},
			{Name: "d_b_0", Bits: 8},
			{Name: "t", Bits: 32, Signed: true},
			{Name: "m_u", Bits: 32},
		},
		Params: []pisa.ParamLayout{
			{Name: "x", Elems: 2, Bits: 32, Signed: true, Fields: []pisa.FieldRef{1, 2}},
			{Name: "b", Elems: 1, Bits: 8, Bool: true, Fields: []pisa.FieldRef{3}},
		},
		WinMeta: map[string]pisa.FieldRef{"u": 5},
		Passes: [][]*pisa.Stage{{
			{
				SALUs: []*pisa.SALU{{
					Global: "total", Index: pisa.ConstOperand(0),
					Prog: []pisa.MicroOp{
						{Op: "add", Dst: pisa.MReg, A: pisa.SlotOperand(pisa.MReg), B: pisa.PhvOperand(1)},
						{Op: "mov", Dst: pisa.MOut, A: pisa.SlotOperand(pisa.MReg)},
					},
					Out: 4,
				}},
				VLIW: []pisa.ActionOp{{Op: "and", Dst: 0, A: pisa.FieldOperand(2), B: pisa.ConstOperand(3)}},
			},
			{VLIW: []pisa.ActionOp{
				{Op: "mov", Dst: 1, A: pisa.FieldOperand(4)},
				{Op: "xor", Dst: 2, A: pisa.FieldOperand(2), B: pisa.FieldOperand(5)},
			}},
		}},
	}
	return &pisa.Program{
		Name:       "hop",
		Registers:  []pisa.RegisterDef{{Name: "total", Elems: 1, Bits: 64, Stage: 0}},
		Kernels:    []*pisa.Kernel{k},
		UserFields: []string{"u"},
	}
}

var hopSpecs = []ncp.ParamSpec{{Elems: 2, Bytes: 4, Signed: true}, {Elems: 1, Bytes: 1}}

// TestSwitchHopMatchesMarshal is the byte-identity oracle of the in-place
// path: every window a switch emits in the packet it arrived in equals
// ncp.MarshalHops of the edited header, the user values and
// ncp.AppendPayload of pisa.Reference's output Data — on pass, reflect and
// bcast, with exactly-once acks and suppressed duplicates, non-canonical
// bool bytes and trailing bytes past PayloadLen (which leave trimmed, and
// count trimmed on the link).
func TestSwitchHopMatchesMarshal(t *testing.T) {
	net, err := and.Parse("switch s1 id=1\nhost a role=0\nhost b role=0\nhost c role=1\nlink a s1\nlink b s1\nlink s1 c")
	if err != nil {
		t.Fatal(err)
	}
	sn := NewSwitchNode("s1", pisa.DefaultTarget())
	ref := pisa.NewReference(pisa.DefaultTarget())
	for _, load := range []func(*pisa.Program) error{func(p *pisa.Program) error { return sn.Install(p, 1) }, ref.Load} {
		if err := load(hopProgram()); err != nil {
			t.Fatal(err)
		}
	}
	sn.SetRoutes(net.NextHops()["s1"])
	sn.SetHosts(onePathHosts)
	rec := &recordSender{net: net}

	r := rand.New(rand.NewSource(1))
	var reliable [][]byte
	seen := map[string]int{}
	for i := 0; i < 600; i++ {
		h := ncp.Header{KernelID: 1, WindowLen: 2, Sender: uint32(1 + r.Intn(3)), FromRole: uint32(r.Intn(2)),
			Wid: uint32(r.Intn(3)), WindowSeq: uint32(r.Intn(100)), FragCount: 1}
		var data []byte
		if len(reliable) > 0 && r.Intn(5) == 0 {
			data = append([]byte(nil), reliable[r.Intn(len(reliable))]...) // a retransmit
		} else {
			if r.Intn(3) == 0 {
				h.Flags = ncp.FlagAckRequest | ncp.FlagExactlyOnce
			}
			payload := make([]byte, 9)
			r.Read(payload[:8])
			payload[8] = []byte{0, 1, 2, 0xFF}[r.Intn(4)]
			if data, err = ncp.Marshal(&h, []uint64{r.Uint64()}, payload); err != nil {
				t.Fatal(err)
			}
			if h.Flags != 0 {
				reliable = append(reliable, append([]byte(nil), data...))
			}
			if r.Intn(4) == 0 {
				data = append(data, 0xEE, 0xEE, 0xEE)
			}
		}

		// The oracle's view of the window, taken before the switch writes.
		in, user, payload, err := ncp.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		vals, err := ncp.DecodePayload(payload, hopSpecs)
		if err != nil {
			t.Fatal(err)
		}
		xonce := in.Flags&ncp.FlagExactlyOnce != 0
		win := &interp.Window{Data: vals, ExactlyOnce: xonce, Meta: map[string]uint64{
			"seq": uint64(in.WindowSeq), "len": uint64(in.WindowLen), "from": uint64(in.FromRole),
			"sender": uint64(in.Sender), "wid": uint64(in.Wid), "u": user[0]}}
		dec, err := ref.ExecWindow(1, win)
		if err != nil {
			t.Fatal(err)
		}
		out := *in
		if xonce && dec.Kind != interp.Pass {
			out.Flags &^= ncp.FlagAckRequest | ncp.FlagExactlyOnce
		}
		out.Flags |= [...]uint8{interp.Reflect: ncp.FlagReflected, interp.Bcast: ncp.FlagBcast}[dec.Kind]
		wantPayload, err := ncp.AppendPayload(nil, win.Data, hopSpecs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ncp.MarshalHops(&out, user, nil, wantPayload)
		if err != nil {
			t.Fatal(err)
		}

		boolByte := payload[8] // before the switch canonicalises it in place
		pkt := &Packet{Src: onePathHosts[in.Sender], Dst: "c", Data: data}
		rec.sent = rec.sent[:0]
		sn.Receive(rec, pkt, pkt.Src)
		var windows, acks []*Packet
		for _, p := range rec.sent {
			if p.Data[3]&ncp.FlagAck != 0 {
				acks = append(acks, p)
			} else {
				windows = append(windows, p)
			}
		}
		fanout := [...]int{interp.Pass: 1, interp.Drop: 0, interp.Reflect: 1, interp.Bcast: 3}[dec.Kind]
		if len(windows) != fanout {
			t.Fatalf("window %d (%v): %d outputs, want %d", i, dec.Kind, len(windows), fanout)
		}
		for k, p := range windows {
			if !bytes.Equal(p.Data, want) {
				t.Fatalf("window %d (%v, output %d):\n got % x\nwant % x", i, dec.Kind, k, p.Data, want)
			}
			if k == 0 && p != pkt {
				t.Fatalf("window %d (%v) left in a new packet, not the one it arrived in", i, dec.Kind)
			}
			if p.Shared != (fanout > 1) {
				t.Fatalf("window %d (%v, output %d): shared=%v", i, dec.Kind, k, p.Shared)
			}
		}
		wantAcks := 0
		if xonce && in.Flags&ncp.FlagAckRequest != 0 && dec.Kind != interp.Pass {
			wantAcks = 1
		}
		if len(acks) != wantAcks {
			t.Fatalf("window %d (%v): %d acks, want %d", i, dec.Kind, len(acks), wantAcks)
		}
		seen[dec.Kind.String()]++
		if dec.Suppressed {
			seen["suppressed"]++
		}
		if len(data) > len(want) && fanout > 0 {
			seen["trimmed"]++
		}
		if boolByte > 1 && fanout > 0 {
			seen["bool"]++
		}
		seen["acks"] += len(acks)
	}
	for _, k := range []string{"pass", "drop", "reflect", "bcast", "suppressed", "trimmed", "bool", "acks"} {
		if seen[k] == 0 {
			t.Errorf("the stream never exercised %s: %v", k, seen)
		}
	}

	// On the fabric: the trailing bytes cross the ingress link and not the
	// egress one.
	fab, _, _, b := chainFabric(t)
	data := append(ncpPacket(t, 1, 41, 0), 1, 2, 3, 4, 5)
	if err := fab.Send("a", "s1", &Packet{Src: "a", Dst: "b", Data: data}); err != nil {
		t.Fatal(err)
	}
	waitCount(t, b, 1)
	if in, out := fab.Stats("a", "s1").Bytes.Load(), fab.Stats("s1", "b").Bytes.Load(); in != uint64(len(data)) || out != in-5 {
		t.Errorf("link bytes a→s1 %d, s1→b %d; want %d and %d", in, out, len(data), len(data)-5)
	}
}

// valueNode decodes the one int element of every window on arrival, so a
// write into the bytes it holds races with the read.
type valueNode struct {
	label string
	mu    sync.Mutex
	got   []*Packet
	vals  []int32
}

func (v *valueNode) Label() string { return v.label }
func (v *valueNode) Receive(_ Sender, pkt *Packet, _ string) {
	_, _, payload, err := ncp.Decode(pkt.Data)
	v.mu.Lock()
	defer v.mu.Unlock()
	v.got = append(v.got, pkt)
	if err == nil && len(payload) == 4 {
		v.vals = append(v.vals, int32(binary.BigEndian.Uint32(payload)))
	}
}

// addLocProgram: kernel 1 adds the executing location's id to its element
// and passes toward the program's one label.
func addLocProgram(to string) *pisa.Program {
	k := &pisa.Kernel{
		Name: "addloc", ID: 1, WindowLen: 1,
		Fields: []pisa.Field{
			{Name: pisa.FieldFwd, Bits: 8},
			{Name: pisa.FieldFwdLabel, Bits: 16},
			{Name: pisa.FieldLoc, Bits: 32},
			{Name: "d_x_0", Bits: 32, Signed: true},
		},
		Params:  []pisa.ParamLayout{{Name: "x", Elems: 1, Bits: 32, Signed: true, Fields: []pisa.FieldRef{3}}},
		WinMeta: map[string]pisa.FieldRef{},
		Passes: [][]*pisa.Stage{{{VLIW: []pisa.ActionOp{
			{Op: "add", Dst: 3, A: pisa.FieldOperand(3), B: pisa.FieldOperand(2)},
			{Op: "mov", Dst: 1, A: pisa.ConstOperand(1)},
		}}}},
	}
	return &pisa.Program{Name: "addloc", Labels: []string{to}, Kernels: []*pisa.Kernel{k}}
}

// TestBcastSharedBytesFirstWriterCopies: s1 broadcasts every window to
// host a and to switches s2 and s3, which execute it — each adds its
// location id in place — and pass it on to b and c. The three copies share
// one encoding, so the executing switches must copy before writing: a
// sees each window as s1 sent it, b and c see their own switch's sum and
// not both. Without the shared mark the two writers race on a's bytes
// (the race detector reports it) and the values come out wrong.
func TestBcastSharedBytesFirstWriterCopies(t *testing.T) {
	net, err := and.Parse("switch s1 id=1\nswitch s2 id=2\nswitch s3 id=3\nhost a role=0\nhost b role=1\nhost c role=1\n" +
		"link a s1\nlink s1 s2\nlink s1 s3\nlink s2 b\nlink s3 c")
	if err != nil {
		t.Fatal(err)
	}
	fab := New(net, Faults{})
	hops := net.NextHops()
	progs := map[string]*pisa.Program{"s1": bcastProgram(), "s2": addLocProgram("b"), "s3": addLocProgram("c")}
	for i, label := range []string{"s1", "s2", "s3"} {
		sn := NewSwitchNode(label, pisa.DefaultTarget())
		if err := sn.Install(progs[label], uint32(i+1)); err != nil {
			t.Fatal(err)
		}
		sn.SetRoutes(hops[label])
		if err := fab.Attach(sn); err != nil {
			t.Fatal(err)
		}
	}
	hosts := map[string]*valueNode{}
	for _, label := range []string{"a", "b", "c"} {
		hosts[label] = &valueNode{label: label}
		if err := fab.Attach(hosts[label]); err != nil {
			t.Fatal(err)
		}
	}
	if err := fab.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fab.Stop)

	const n = 300
	for i := 0; i < n; i++ {
		if err := fab.Send("a", "s1", &Packet{Src: "a", Dst: "b", Data: ncpPacket(t, 1, uint64(i), 0)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool {
		for _, h := range hosts {
			h.mu.Lock()
			got := len(h.got)
			h.mu.Unlock()
			if got < n {
				return false
			}
		}
		return true
	})
	fab.Stop()
	for label, add := range map[string]int32{"a": 0, "b": 2, "c": 3} {
		h := hosts[label]
		var now []int32
		for _, p := range h.got {
			hd, _, payload, err := ncp.Decode(p.Data)
			if err != nil || hd.Flags&ncp.FlagBcast == 0 {
				t.Fatalf("%s holds a corrupt or unflagged window: %v %+v", label, err, hd)
			}
			now = append(now, int32(binary.BigEndian.Uint32(payload)))
		}
		for _, vals := range [][]int32{h.vals, now} {
			sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
			if len(vals) != n {
				t.Fatalf("%s: %d windows, want %d", label, len(vals), n)
			}
			for i, v := range vals {
				if v != int32(i)+add {
					t.Fatalf("%s: window %d reads %d, want %d (arrival values %v)", label, i, v, int32(i)+add, h.vals[:min(8, len(h.vals))])
				}
			}
		}
	}
}
