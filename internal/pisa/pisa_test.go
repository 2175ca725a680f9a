package pisa

import (
	"strings"
	"testing"

	"ncl/internal/ncl/interp"
)

// tinyTarget is a small target for violation tests.
func tinyTarget() TargetConfig {
	t := DefaultTarget()
	t.Stages = 4
	t.ActionsPerStage = 2
	t.SALUsPerStage = 2
	t.TablesPerStage = 1
	t.MaxSALUOps = 3
	t.MaxRecirc = 1
	t.PHVBits = 256
	return t
}

// handProgram builds a minimal valid program: one kernel with one data
// field, incrementing a register and writing the result back into the
// window.
func handProgram() *Program {
	k := &Kernel{
		Name:      "inc",
		ID:        1,
		WindowLen: 1,
		Fields: []Field{
			{Name: FieldFwd, Bits: 8},
			{Name: FieldFwdLabel, Bits: 16},
			{Name: "d_x_0", Bits: 32, Signed: true},
			{Name: "s_out", Bits: 32, Signed: true},
		},
		Params:  []ParamLayout{{Name: "x", Elems: 1, Bits: 32, Signed: true, Fields: []FieldRef{2}}},
		WinMeta: map[string]FieldRef{},
		Passes: [][]*Stage{{
			{SALUs: []*SALU{{
				Global: "total",
				Index:  ConstOperand(0),
				Prog: []MicroOp{
					{Op: "add", Dst: MReg, A: SlotOperand(MReg), B: PhvOperand(2)},
					{Op: "mov", Dst: MOut, A: SlotOperand(MReg)},
				},
				Out: 3,
			}}},
			{VLIW: []ActionOp{{Op: "mov", Dst: 2, A: FieldOperand(3)}}},
		}},
	}
	return &Program{
		Name:      "hand",
		Registers: []RegisterDef{{Name: "total", Elems: 4, Bits: 32, Signed: true, Stage: 0}},
		Kernels:   []*Kernel{k},
	}
}

func TestHandProgramRuns(t *testing.T) {
	sw := NewSwitch(tinyTarget())
	if err := sw.Load(handProgram()); err != nil {
		t.Fatal(err)
	}
	win := &interp.Window{Data: [][]uint64{{5}}, Meta: map[string]uint64{}}
	if _, err := sw.ExecWindow(1, win); err != nil {
		t.Fatal(err)
	}
	if win.Data[0][0] != 5 {
		t.Errorf("window = %d, want running total 5", win.Data[0][0])
	}
	win2 := &interp.Window{Data: [][]uint64{{7}}, Meta: map[string]uint64{}}
	if _, err := sw.ExecWindow(1, win2); err != nil {
		t.Fatal(err)
	}
	if win2.Data[0][0] != 12 {
		t.Errorf("window = %d, want running total 12", win2.Data[0][0])
	}
	v, err := sw.ReadRegister("total", 0)
	if err != nil || v != 12 {
		t.Errorf("register = %d (%v), want 12", v, err)
	}
}

func mutate(f func(p *Program)) *Program {
	p := handProgram()
	f(p)
	return p
}

func TestValidateViolations(t *testing.T) {
	cases := []struct {
		name string
		p    *Program
		frag string
	}{
		{"too many passes", mutate(func(p *Program) {
			k := p.Kernels[0]
			for len(k.Passes) < 3 {
				k.Passes = append(k.Passes, []*Stage{{}})
			}
		}), "recirculation budget"},
		{"too many stages", mutate(func(p *Program) {
			k := p.Kernels[0]
			for len(k.Passes[0]) < 5 {
				k.Passes[0] = append(k.Passes[0], &Stage{})
			}
		}), "stages"},
		{"vliw overflow", mutate(func(p *Program) {
			st := p.Kernels[0].Passes[0][1]
			st.VLIW = append(st.VLIW,
				ActionOp{Op: "mov", Dst: 0, A: ConstOperand(0)},
				ActionOp{Op: "mov", Dst: 1, A: ConstOperand(0)})
		}), "VLIW"},
		{"double write", mutate(func(p *Program) {
			st := p.Kernels[0].Passes[0][1]
			st.VLIW = append(st.VLIW, ActionOp{Op: "mov", Dst: 2, A: ConstOperand(9)})
		}), "written by both"},
		{"undeclared register", mutate(func(p *Program) {
			p.Kernels[0].Passes[0][0].SALUs[0].Global = "ghost"
		}), "undeclared register"},
		{"array off home stage", mutate(func(p *Program) {
			st0 := p.Kernels[0].Passes[0][0]
			p.Kernels[0].Passes[0][0] = &Stage{}
			p.Kernels[0].Passes[0][1].SALUs = st0.SALUs
		}), "pinned"},
		{"double access per pass", mutate(func(p *Program) {
			sa := *p.Kernels[0].Passes[0][0].SALUs[0]
			sa.Out = NoField
			extra := &Stage{SALUs: []*SALU{&sa}}
			_ = extra
			// same stage (stage 0 is total's home), second SALU: both same
			// pass -> violation
			p.Kernels[0].Passes[0][0].SALUs = append(p.Kernels[0].Passes[0][0].SALUs, &sa)
		}), "accessed twice"},
		{"micro program too long", mutate(func(p *Program) {
			sa := p.Kernels[0].Passes[0][0].SALUs[0]
			for len(sa.Prog) < 5 {
				sa.Prog = append(sa.Prog, MicroOp{Op: "mov", Dst: MTmp0, A: SlotOperand(MReg)})
			}
		}), "micro-ops"},
		{"phv over budget", mutate(func(p *Program) {
			k := p.Kernels[0]
			for i := 0; i < 10; i++ {
				k.Fields = append(k.Fields, Field{Name: "pad", Bits: 64})
			}
		}), "PHV"},
		{"bad field ref", mutate(func(p *Program) {
			p.Kernels[0].Passes[0][1].VLIW[0].A = FieldOperand(99)
		}), "references field"},
		{"register sram over budget", mutate(func(p *Program) {
			p.Registers[0].Elems = 1 << 30
		}), "SRAM"},
		{"register wider than a word", mutate(func(p *Program) {
			p.Registers[0].Bits = 65
		}), "invalid shape"},
		{"unknown vliw op", mutate(func(p *Program) {
			p.Kernels[0].Passes[0][1].VLIW[0].Op = "ad"
		}), `unknown VLIW op "ad"`},
		{"micro-op in a vliw slot", mutate(func(p *Program) {
			p.Kernels[0].Passes[0][1].VLIW[0].Op = "sel"
		}), `unknown VLIW op "sel"`},
		{"unknown micro-op", mutate(func(p *Program) {
			p.Kernels[0].Passes[0][0].SALUs[0].Prog[0].Op = "ad"
		}), `unknown micro-op "ad"`},
		{"vliw csel in a salu", mutate(func(p *Program) {
			p.Kernels[0].Passes[0][0].SALUs[0].Prog[1].Op = "csel"
		}), `unknown micro-op "csel"`},
		{"vliw hash in a salu", mutate(func(p *Program) {
			p.Kernels[0].Passes[0][0].SALUs[0].Prog[1].Op = "hash"
		}), `unknown micro-op "hash"`},
		{"micro-op writes outside the slot file", mutate(func(p *Program) {
			p.Kernels[0].Passes[0][0].SALUs[0].Prog[1].Dst = numMSlots
		}), "writes slot 6 of 6"},
		{"micro-op reads outside the slot file", mutate(func(p *Program) {
			p.Kernels[0].Passes[0][0].SALUs[0].Prog[1].A = SlotOperand(-1)
		}), "reads slot -1 of 6"},
		{"hash into no buckets", mutate(func(p *Program) {
			p.Kernels[0].Passes[0][1].VLIW[0] = ActionOp{Op: "hash", Dst: 2, A: FieldOperand(3)}
		}), "hash into 0 buckets"},
		{"vliw without destination", mutate(func(p *Program) {
			p.Kernels[0].Passes[0][1].VLIW[0].Dst = NoField
		}), "no destination"},
		{"salu out outside the phv", mutate(func(p *Program) {
			p.Kernels[0].Passes[0][0].SALUs[0].Out = 99
		}), "references field 99"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			target := tinyTarget()
			target.RegBitsPerStage = 1 << 20
			err := c.p.Validate(target)
			if err == nil {
				t.Fatalf("violation not caught")
			}
			if !strings.Contains(err.Error(), c.frag) {
				t.Errorf("error %q does not mention %q", err, c.frag)
			}
		})
	}
}

// TestLoadRejectsUnknownOpcode: a misspelt or misplaced opcode is refused
// where the program is loaded, on both engines — at the parent it loaded
// and then failed every window with "unknown ALU op".
func TestLoadRejectsUnknownOpcode(t *testing.T) {
	for name, e := range map[string]engine{
		"compiled":  NewSwitch(tinyTarget()),
		"reference": NewReference(tinyTarget()),
	} {
		for _, p := range []*Program{
			mutate(func(p *Program) { p.Kernels[0].Passes[0][1].VLIW[0].Op = "ad" }),
			mutate(func(p *Program) { p.Kernels[0].Passes[0][0].SALUs[0].Prog[0].Op = "csel" }),
		} {
			if err := e.Load(p); err == nil || !strings.Contains(err.Error(), "unknown") {
				t.Errorf("%s: Load = %v, want an unknown-opcode error", name, err)
			}
		}
		if err := e.Load(handProgram()); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestStageSnapshotSemantics(t *testing.T) {
	// Two ops in ONE stage: b = a; c = b. VLIW parallel semantics means c
	// reads the OLD b (the stage-input snapshot), not a's new value.
	p := handProgram()
	k := p.Kernels[0]
	k.Fields = append(k.Fields, Field{Name: "b", Bits: 32}, Field{Name: "c", Bits: 32})
	k.Passes = [][]*Stage{{
		{VLIW: []ActionOp{
			{Op: "mov", Dst: 4, A: FieldOperand(2)}, // b = a
			{Op: "mov", Dst: 5, A: FieldOperand(4)}, // c = (old) b
		}},
		{VLIW: []ActionOp{{Op: "mov", Dst: 2, A: FieldOperand(5)}}}, // a = c
	}}
	sw := NewSwitch(tinyTarget())
	if err := sw.Load(p); err != nil {
		t.Fatal(err)
	}
	win := &interp.Window{Data: [][]uint64{{42}}, Meta: map[string]uint64{}}
	if _, err := sw.ExecWindow(1, win); err != nil {
		t.Fatal(err)
	}
	if win.Data[0][0] != 0 {
		t.Errorf("same-stage forwarding must not happen: got %d, want 0", win.Data[0][0])
	}
}

func TestPredicatedSALUSkips(t *testing.T) {
	p := handProgram()
	k := p.Kernels[0]
	k.Fields = append(k.Fields, Field{Name: "pred", Bits: 8})
	k.Passes[0][0].SALUs[0].Pred = &Pred{Field: 4}
	sw := NewSwitch(tinyTarget())
	if err := sw.Load(p); err != nil {
		t.Fatal(err)
	}
	// pred field starts 0 -> SALU skipped -> register unchanged.
	win := &interp.Window{Data: [][]uint64{{5}}, Meta: map[string]uint64{}}
	if _, err := sw.ExecWindow(1, win); err != nil {
		t.Fatal(err)
	}
	if v, _ := sw.ReadRegister("total", 0); v != 0 {
		t.Errorf("predicated-off SALU mutated state: %d", v)
	}
}

func TestRuntimeIndexTrap(t *testing.T) {
	p := handProgram()
	p.Kernels[0].Passes[0][0].SALUs[0].Index = ConstOperand(99)
	sw := NewSwitch(tinyTarget())
	if err := sw.Load(p); err != nil {
		t.Fatal(err)
	}
	win := &interp.Window{Data: [][]uint64{{1}}, Meta: map[string]uint64{}}
	if _, err := sw.ExecWindow(1, win); err == nil {
		t.Fatal("out-of-range register index must trap")
	}
}

func TestControlPlaneOps(t *testing.T) {
	p := handProgram()
	p.Tables = []string{"Idx"}
	sw := NewSwitch(tinyTarget())
	if err := sw.Load(p); err != nil {
		t.Fatal(err)
	}
	if err := sw.InstallEntry("Idx", 7, 3); err != nil {
		t.Fatal(err)
	}
	if err := sw.InstallEntry("nope", 1, 1); err == nil {
		t.Error("unknown table must error")
	}
	if err := sw.DeleteEntry("Idx", 7); err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteRegister("total", 2, 9); err != nil {
		t.Fatal(err)
	}
	if v, _ := sw.ReadRegister("total", 2); v != 9 {
		t.Errorf("register write lost: %d", v)
	}
	if err := sw.WriteRegister("total", 100, 1); err == nil {
		t.Error("out-of-range control write must error")
	}
	if _, err := sw.ReadRegister("ghost", 0); err == nil {
		t.Error("unknown register read must error")
	}
}

func TestUnknownKernelID(t *testing.T) {
	sw := NewSwitch(tinyTarget())
	if err := sw.Load(handProgram()); err != nil {
		t.Fatal(err)
	}
	win := &interp.Window{Data: [][]uint64{{1}}, Meta: map[string]uint64{}}
	if _, err := sw.ExecWindow(42, win); err == nil {
		t.Error("unknown kernel id must error")
	}
}

func TestWindowShapeMismatch(t *testing.T) {
	sw := NewSwitch(tinyTarget())
	if err := sw.Load(handProgram()); err != nil {
		t.Fatal(err)
	}
	win := &interp.Window{Data: [][]uint64{{1, 2}}, Meta: map[string]uint64{}}
	if _, err := sw.ExecWindow(1, win); err == nil {
		t.Error("wrong element count must error")
	}
}

func TestALUSemantics(t *testing.T) {
	cases := []struct {
		op     string
		signed bool
		a, b   uint64
		bits   int
		want   uint64
	}{
		{"add", false, 7, 3, 32, 10},
		{"sub", false, 3, 7, 32, ^uint64(0) - 3},             // wraps at 64; field normalize applies later
		{"div", true, ^uint64(0) - 6, 2, 32, ^uint64(0) - 2}, // -7/2 = -3
		{"div", false, 7, 0, 32, 0},
		{"mod", true, ^uint64(0) - 6, 3, 32, ^uint64(0)},     // -7%3 = -1
		{"shl", false, 1, 33, 32, 2},                         // count masked to width
		{"shr", true, ^uint64(0) - 7, 1, 32, ^uint64(0) - 3}, // -8>>1 = -4
		{"lt", true, ^uint64(0), 1, 32, 1},                   // -1 < 1 signed
		{"lt", false, ^uint64(0), 1, 32, 0},                  // max > 1 unsigned
		{"eq", false, 5, 5, 32, 1},
	}
	for _, c := range cases {
		got, err := alu(c.op, c.signed, c.a, c.b, c.bits)
		if err != nil {
			t.Fatalf("%s: %v", c.op, err)
		}
		if got != c.want {
			t.Errorf("alu(%s,signed=%v,%d,%d) = %#x, want %#x", c.op, c.signed, c.a, c.b, got, c.want)
		}
		// The plan's opcode ALU writes a field, so it sees the value at the
		// field's width.
		if got, want := planALU(c.op, c.signed, c.a, c.b, c.bits, c.signed), normalize(c.want, c.bits, c.signed); got != want {
			t.Errorf("plan %s(signed=%v,%d,%d) = %#x, want %#x", c.op, c.signed, c.a, c.b, got, want)
		}
	}
	if _, err := alu("frob", false, 1, 2, 32); err == nil {
		t.Error("unknown op must error")
	}
	if _, ok := vliwOpcodes["frob"]; ok {
		t.Error("unknown op must not intern")
	}
}
