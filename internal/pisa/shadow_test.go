package pisa

import (
	"testing"

	"ncl/internal/ncl/interp"
	"ncl/internal/obs"
)

// accumProgram is a minimal stateful aggregation kernel: one SALU adds
// the window's first element into cnt[seq&3] and exposes the running sum
// through the second element (SwitchML's read-back shape). Duplicate
// suppression must keep the register exact and leave the read-back
// untouched.
func accumProgram() *Program {
	var fields []Field
	add := func(name string, bits int) FieldRef {
		fields = append(fields, Field{Name: name, Bits: bits})
		return FieldRef(len(fields) - 1)
	}
	d0 := add("d0", 32)
	d1 := add("d1", 32)
	fFwd := add(FieldFwd, 8)
	fSeq := add("m_seq", 32)
	sa := &SALU{
		Global: "cnt",
		Index:  ConstOperand(0),
		Prog: []MicroOp{
			{Op: "add", Dst: MReg, A: SlotOperand(MReg), B: PhvOperand(d0)},
			{Op: "mov", Dst: MOut, A: SlotOperand(MReg)},
		},
		Out: d1,
	}
	k := &Kernel{
		Name:      "accum",
		ID:        1,
		WindowLen: 2,
		Fields:    fields,
		Params: []ParamLayout{{
			Name: "a", Elems: 2, Bits: 32, Fields: []FieldRef{d0, d1},
		}},
		WinMeta: map[string]FieldRef{"seq": fSeq},
		Passes:  [][]*Stage{{{SALUs: []*SALU{sa}}}},
	}
	_ = fFwd
	return &Program{
		Name:      "accumprog",
		Registers: []RegisterDef{{Name: "cnt", Elems: 1, Bits: 64, Stage: 0}},
		Kernels:   []*Kernel{k},
	}
}

// readProgram is a pure-read kernel: the SALU never writes MReg, so it
// must stay live (keep answering) on duplicate windows.
func readProgram() *Program {
	var fields []Field
	add := func(name string, bits int) FieldRef {
		fields = append(fields, Field{Name: name, Bits: bits})
		return FieldRef(len(fields) - 1)
	}
	d0 := add("d0", 32)
	sa := &SALU{
		Global: "store",
		Index:  ConstOperand(0),
		Prog:   []MicroOp{{Op: "mov", Dst: MOut, A: SlotOperand(MReg)}},
		Out:    d0,
	}
	k := &Kernel{
		Name:      "read",
		ID:        1,
		WindowLen: 1,
		Fields:    fields,
		Params:    []ParamLayout{{Name: "a", Elems: 1, Bits: 32, Fields: []FieldRef{d0}}},
		WinMeta:   map[string]FieldRef{},
		Passes:    [][]*Stage{{{SALUs: []*SALU{sa}}}},
	}
	return &Program{
		Name:      "readprog",
		Registers: []RegisterDef{{Name: "store", Elems: 1, Bits: 64, Init: []uint64{77}, Stage: 0}},
		Kernels:   []*Kernel{k},
	}
}

type engine interface {
	Load(*Program) error
	ExecWindow(uint32, *interp.Window) (interp.Decision, error)
	ReadRegister(string, int) (uint64, error)
}

// TestDuplicateDeliveryDifferential replays the same window twice
// through both engines, with and without exactly-once, and asserts
// suppressed vs double-applied state — the satellite test the shadow
// layer is specified against.
func TestDuplicateDeliveryDifferential(t *testing.T) {
	target := DefaultTarget()
	engines := map[string]func() engine{
		"compiled":  func() engine { return NewSwitch(target) },
		"reference": func() engine { return NewReference(target) },
	}
	win := func(xonce bool, wid uint64) *interp.Window {
		return &interp.Window{
			Data:        [][]uint64{{5, 0}},
			Meta:        map[string]uint64{"seq": 3, "sender": 9, "wid": wid},
			ExactlyOnce: xonce,
		}
	}
	for name, mk := range engines {
		t.Run(name+"/without-flag-double-applies", func(t *testing.T) {
			e := mk()
			if err := e.Load(accumProgram()); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				dec, err := e.ExecWindow(1, win(false, 1))
				if err != nil {
					t.Fatal(err)
				}
				if dec.Suppressed {
					t.Fatalf("replay %d: suppressed without FlagExactlyOnce", i)
				}
			}
			if v, _ := e.ReadRegister("cnt", 0); v != 10 {
				t.Fatalf("cnt = %d, want 10 (double-applied without the flag)", v)
			}
		})
		t.Run(name+"/with-flag-suppresses", func(t *testing.T) {
			e := mk()
			if err := e.Load(accumProgram()); err != nil {
				t.Fatal(err)
			}
			w1 := win(true, 1)
			dec, err := e.ExecWindow(1, w1)
			if err != nil {
				t.Fatal(err)
			}
			if dec.Suppressed {
				t.Fatal("first delivery suppressed")
			}
			if w1.Data[0][1] != 5 {
				t.Fatalf("read-back = %d, want 5", w1.Data[0][1])
			}
			w2 := win(true, 1)
			dec, err = e.ExecWindow(1, w2)
			if err != nil {
				t.Fatal(err)
			}
			if !dec.Suppressed {
				t.Fatal("duplicate not suppressed")
			}
			if w2.Data[0][1] != 0 {
				t.Fatalf("suppressed duplicate wrote read-back %d, want untouched 0", w2.Data[0][1])
			}
			if v, _ := e.ReadRegister("cnt", 0); v != 5 {
				t.Fatalf("cnt = %d, want 5 (applied exactly once)", v)
			}
			// A new invocation reusing the slot (the next round after the
			// kernel's reset path) recycles the entry and applies.
			dec, err = e.ExecWindow(1, win(true, 2))
			if err != nil {
				t.Fatal(err)
			}
			if dec.Suppressed {
				t.Fatal("new wid on a recycled slot suppressed")
			}
			if v, _ := e.ReadRegister("cnt", 0); v != 10 {
				t.Fatalf("cnt = %d, want 10 after the recycled round", v)
			}
		})
		t.Run(name+"/pure-reads-stay-live", func(t *testing.T) {
			e := mk()
			if err := e.Load(readProgram()); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				w := &interp.Window{
					Data:        [][]uint64{{0}},
					Meta:        map[string]uint64{"seq": 1, "sender": 2, "wid": 3},
					ExactlyOnce: true,
				}
				dec, err := e.ExecWindow(1, w)
				if err != nil {
					t.Fatal(err)
				}
				if i == 1 && !dec.Suppressed {
					t.Fatal("duplicate not recognized")
				}
				if w.Data[0][0] != 77 {
					t.Fatalf("replay %d: lookup answered %d, want 77 (reads must survive suppression)", i, w.Data[0][0])
				}
			}
		})
	}
}

// TestShadowMetrics checks the device-level exactly-once metrics:
// pisa.<label>.dup_suppressed counts suppressed windows and shadow_slots
// tracks live entries — the same whether the three deliveries arrive as
// batches of one or in one batch.
func TestShadowMetrics(t *testing.T) {
	for _, sizes := range [][]int{{1, 1, 1}, {3}, {2, 1}} {
		sw := NewSwitch(DefaultTarget())
		if err := sw.Load(accumProgram()); err != nil {
			t.Fatal(err)
		}
		r := obs.NewRegistry()
		sw.SetObs(r, "x")
		for _, n := range sizes {
			jobs := make([]BatchJob, n)
			for i := range jobs {
				jobs[i] = BatchJob{
					Data: [][]uint64{{1, 0}},
					Meta: WindowMeta{Seq: 1, Sender: 2, Wid: 3, ExactlyOnce: true},
				}
			}
			if err := sw.ExecWindowBatch(1, jobs, 0); err != nil {
				t.Fatal(err)
			}
			for i := range jobs {
				if jobs[i].Err != nil {
					t.Fatal(jobs[i].Err)
				}
			}
		}
		if got := r.Counter("pisa.x.dup_suppressed").Load(); got != 2 {
			t.Fatalf("batches %v: dup_suppressed = %d, want 2", sizes, got)
		}
		if got := r.Gauge("pisa.x.shadow_slots").Load(); got != 1 {
			t.Fatalf("batches %v: shadow_slots = %d, want 1", sizes, got)
		}
		if v, _ := sw.ReadRegister("cnt", 0); v != 1 {
			t.Fatalf("batches %v: cnt = %d, want 1 (applied exactly once)", sizes, v)
		}
	}
}

// TestShadowRollbackOnFailedWindow: an exactly-once window whose
// execution fails (here: the SALU index it carries is out of range) must
// give its shadow admission back, so the retransmit applies instead of
// being suppressed — on both engines, and whether the retransmit arrives
// in a later batch or in the same one.
func TestShadowRollbackOnFailedWindow(t *testing.T) {
	prog := func() *Program {
		p := accumProgram()
		k := p.Kernels[0]
		k.Passes[0][0].SALUs[0].Index = FieldOperand(k.Params[0].Fields[1]) // cnt[data[1]], one element
		return p
	}
	meta := map[string]uint64{"seq": 3, "sender": 9, "wid": 1}
	for name, e := range map[string]engine{
		"compiled":  NewSwitch(DefaultTarget()),
		"reference": NewReference(DefaultTarget()),
	} {
		if err := e.Load(prog()); err != nil {
			t.Fatal(err)
		}
		bad := &interp.Window{Data: [][]uint64{{5, 9}}, Meta: meta, ExactlyOnce: true}
		if _, err := e.ExecWindow(1, bad); err == nil {
			t.Fatalf("%s: out-of-range index executed", name)
		}
		good := &interp.Window{Data: [][]uint64{{5, 0}}, Meta: meta, ExactlyOnce: true}
		dec, err := e.ExecWindow(1, good)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Suppressed {
			t.Fatalf("%s: retransmit of a failed window suppressed (admission not rolled back)", name)
		}
		if v, _ := e.ReadRegister("cnt", 0); v != 5 {
			t.Fatalf("%s: cnt = %d, want 5", name, v)
		}
	}

	sw := NewSwitch(DefaultTarget())
	if err := sw.Load(prog()); err != nil {
		t.Fatal(err)
	}
	wm := WindowMeta{Seq: 3, Sender: 9, Wid: 1, ExactlyOnce: true}
	jobs := []BatchJob{
		{Data: [][]uint64{{5, 9}}, Meta: wm},
		{Data: [][]uint64{{5, 0}}, Meta: wm},
		{Data: [][]uint64{{5, 0}}, Meta: wm},
	}
	if err := sw.ExecWindowBatch(1, jobs, 0); err != nil {
		t.Fatal(err)
	}
	if jobs[0].Err == nil || jobs[1].Err != nil || jobs[2].Err != nil {
		t.Fatalf("errors = %v, %v, %v; want only the first window to fail", jobs[0].Err, jobs[1].Err, jobs[2].Err)
	}
	if jobs[1].Dec.Suppressed || !jobs[2].Dec.Suppressed {
		t.Fatalf("suppressed = %v, %v; want the retransmit applied and its duplicate suppressed",
			jobs[1].Dec.Suppressed, jobs[2].Dec.Suppressed)
	}
	if v, _ := sw.ReadRegister("cnt", 0); v != 5 {
		t.Fatalf("cnt = %d, want 5", v)
	}
}

// TestShadowState exercises the filter directly: recycling, rollback,
// and FIFO eviction at capacity.
func TestShadowState(t *testing.T) {
	s := newShadowState()
	if fresh, _ := s.admit(0, 1, 2, 3); !fresh {
		t.Fatal("first admit not fresh")
	}
	if fresh, _ := s.admit(0, 1, 2, 3); fresh {
		t.Fatal("duplicate admitted")
	}
	if fresh, _ := s.admit(0, 1, 2, 4); !fresh {
		t.Fatal("recycled slot (new wid) not fresh")
	}
	if fresh, _ := s.admit(0, 1, 2, 4); fresh {
		t.Fatal("duplicate of recycled slot admitted")
	}
	// A late fabric duplicate from the previous invocation must still be
	// recognized (the slot's "version bit").
	if fresh, _ := s.admit(0, 1, 2, 3); fresh {
		t.Fatal("previous-generation wid admitted fresh")
	}
	// Rollback: a failed execution must let the retransmit re-apply.
	s.forget(0, 1, 2, 4)
	if fresh, _ := s.admit(0, 1, 2, 4); !fresh {
		t.Fatal("admit after forget not fresh")
	}
	// forget with a stale wid must not drop the live entry.
	s.forget(0, 1, 2, 3)
	if fresh, _ := s.admit(0, 1, 2, 4); fresh {
		t.Fatal("stale-wid forget dropped the live entry")
	}
	// FIFO eviction keeps the filter bounded; evicted entries re-admit.
	for i := 0; i < shadowSlotsCap+10; i++ {
		s.admit(0, uint64(i), 100, 1)
	}
	if n := s.size(); n > shadowSlotsCap {
		t.Fatalf("shadow grew to %d entries, cap %d", n, shadowSlotsCap)
	}
	if fresh, _ := s.admit(0, 0, 100, 1); !fresh {
		t.Fatal("evicted entry still recognized as duplicate")
	}
}
