package pisa

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"ncl/internal/ncl/interp"
	"ncl/internal/ncl/token"
	"ncl/internal/ncl/types"
)

// TestALUAgreesWithInterpreter is the cross-engine semantics property:
// for arbitrary operands, widths, and signedness, the switch ALU followed
// by field normalization computes exactly what the IR interpreter's
// arithmetic computes. This is what makes compiled pipelines and
// interpreted kernels interchangeable.
func TestALUAgreesWithInterpreter(t *testing.T) {
	ops := []struct {
		name string
		kind token.Kind
	}{
		{"add", token.ADD}, {"sub", token.SUB}, {"mul", token.MUL},
		{"div", token.DIV}, {"mod", token.MOD},
		{"and", token.AND}, {"or", token.OR}, {"xor", token.XOR},
		{"shl", token.SHL}, {"shr", token.SHR},
	}
	widths := []int{8, 16, 32, 64}

	f := func(rawA, rawB uint64, opPick, widthPick, signedPick uint8) bool {
		op := ops[int(opPick)%len(ops)]
		width := widths[int(widthPick)%len(widths)]
		signed := signedPick%2 == 0
		ty := types.IntType(width, signed)
		// Canonicalize operands the way PHV fields store them.
		a, b := ty.Normalize(rawA), ty.Normalize(rawB)

		want := interp.EvalBin(op.kind, a, b, ty)

		got, err := alu(op.name, signed, a, b, width)
		if err != nil {
			return false
		}
		return normalize(got, width, signed) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// randomValidProgram generates a structurally valid program with random
// VLIW/SALU/table structure: one window parameter over 4 data fields,
// builtin + user metadata, two registers (one per stage), one table, and
// 1-2 passes of 2 stages each. The generator respects the PISA rules the
// validator enforces (one writer per field per stage, registers on their
// home stage, one access per array per pass), so every output loads.
func randomValidProgram(r *rand.Rand) *Program {
	const w = 4
	dataBits := []int{8, 16, 32, 64}[r.Intn(4)]
	dataSigned := r.Intn(2) == 0
	dataBool := dataBits == 8 && r.Intn(4) == 0

	var fields []Field
	addField := func(name string, bits int, signed bool) FieldRef {
		fields = append(fields, Field{Name: name, Bits: bits, Signed: signed})
		return FieldRef(len(fields) - 1)
	}
	dataRefs := make([]FieldRef, w)
	for i := range dataRefs {
		dataRefs[i] = addField(fmt.Sprintf("d%d", i), dataBits, dataSigned)
	}
	fFwd := addField(FieldFwd, 8, false)
	fLabel := addField(FieldFwdLabel, 16, false)
	fSeq := addField("m_seq", 32, false)
	fX := addField("m_x", 32, r.Intn(2) == 0)
	s0 := addField("s0", []int{16, 32, 64}[r.Intn(3)], r.Intn(2) == 0)
	s1 := addField("s1", 32, r.Intn(2) == 0)
	_ = fLabel

	allRefs := []FieldRef{dataRefs[0], dataRefs[1], dataRefs[2], dataRefs[3], fFwd, fLabel, fSeq, fX, s0, s1}
	randOperand := func() Operand {
		if r.Intn(3) == 0 {
			return ConstOperand(r.Uint64() >> uint(r.Intn(64)))
		}
		return FieldOperand(allRefs[r.Intn(len(allRefs))])
	}

	regs := []RegisterDef{
		{Name: "r0", Elems: 4, Bits: []int{8, 16, 32, 64}[r.Intn(4)], Signed: r.Intn(2) == 0, Stage: 0},
		{Name: "r1", Elems: 2, Bits: 32, Signed: r.Intn(2) == 0, Stage: 1},
	}
	for i := 0; i < regs[0].Elems; i++ {
		regs[0].Init = append(regs[0].Init, r.Uint64())
	}

	vliwOps := []string{"mov", "add", "sub", "mul", "div", "mod", "and", "or", "xor",
		"shl", "shr", "eq", "ne", "lt", "gt", "le", "ge", "not", "csel", "hash"}
	microOps := []string{"mov", "sel", "add", "sub", "mul", "and", "or", "xor", "shl", "shr"}
	slots := []MSlot{MReg, MOut, MTmp0, MTmp1}
	randMOperand := func() MOperand {
		switch r.Intn(3) {
		case 0:
			return SlotOperand(slots[r.Intn(len(slots))])
		case 1:
			return PhvOperand(allRefs[r.Intn(len(allRefs))])
		default:
			return ImmOperand(r.Uint64() >> uint(r.Intn(64)))
		}
	}

	numPasses := 1 + r.Intn(2)
	var passes [][]*Stage
	for pi := 0; pi < numPasses; pi++ {
		var pass []*Stage
		for si := 0; si < 2; si++ {
			st := &Stage{}
			written := map[FieldRef]bool{}
			pickDst := func() FieldRef {
				for tries := 0; tries < 20; tries++ {
					f := allRefs[r.Intn(len(allRefs))]
					if !written[f] {
						written[f] = true
						return f
					}
				}
				return NoField
			}
			if si == 0 && r.Intn(2) == 0 {
				tb := &Table{Name: "t0", Key: randOperand(), Hit: pickDst(), Val: pickDst()}
				st.Tables = append(st.Tables, tb)
			}
			if r.Intn(3) > 0 {
				reg := regs[si]
				idx := ConstOperand(uint64(r.Intn(reg.Elems)))
				if r.Intn(8) == 0 {
					idx = ConstOperand(uint64(reg.Elems + r.Intn(3))) // out-of-range trap path
				} else if r.Intn(3) == 0 {
					idx = FieldOperand(allRefs[r.Intn(len(allRefs))]) // data-dependent index
				}
				sa := &SALU{Global: reg.Name, Index: idx, Out: pickDst()}
				if r.Intn(4) == 0 {
					sa.Pred = &Pred{Field: allRefs[r.Intn(len(allRefs))], Negate: r.Intn(2) == 0}
				}
				n := 1 + r.Intn(3)
				for i := 0; i < n; i++ {
					sa.Prog = append(sa.Prog, MicroOp{
						Op:     microOps[r.Intn(len(microOps))],
						Signed: r.Intn(2) == 0,
						Dst:    slots[r.Intn(len(slots))],
						A:      randMOperand(), B: randMOperand(), C: randMOperand(),
					})
				}
				st.SALUs = append(st.SALUs, sa)
			}
			nv := 1 + r.Intn(3)
			for i := 0; i < nv; i++ {
				dst := pickDst()
				if dst == NoField {
					continue
				}
				op := ActionOp{
					Op:     vliwOps[r.Intn(len(vliwOps))],
					Signed: r.Intn(2) == 0,
					Dst:    dst,
					A:      randOperand(), B: randOperand(), C: randOperand(),
				}
				if op.Op == "hash" {
					op.HashSeed = r.Intn(4)
					op.HashBits = 1 + r.Intn(16)
				}
				st.VLIW = append(st.VLIW, op)
			}
			// Give the forwarding decision a writer in the final stage when
			// nothing else claimed it.
			if pi == numPasses-1 && si == 1 && !written[fFwd] {
				st.VLIW = append(st.VLIW, ActionOp{Op: "mov", Dst: fFwd, A: ConstOperand(uint64(r.Intn(5)))})
			}
			pass = append(pass, st)
		}
		passes = append(passes, pass)
	}

	k := &Kernel{
		Name:      "randk",
		ID:        1,
		WindowLen: w,
		Fields:    fields,
		Params: []ParamLayout{{
			Name: "a", Elems: w, Bits: dataBits, Signed: dataSigned, Bool: dataBool,
			Fields: dataRefs,
		}},
		WinMeta: map[string]FieldRef{"seq": fSeq, "x": fX},
		Passes:  passes,
	}
	return &Program{
		Name:      "rand",
		Labels:    []string{"lab1", "lab2"},
		Registers: regs,
		Tables:    []string{"t0"},
		Kernels:   []*Kernel{k},
	}
}

// TestCompiledPlanMatchesReference is the compilation-correctness
// property: for random valid programs, random control-plane state, and
// random windows, the compiled plan (Switch) and the original
// tree-walking engine (Reference) produce bit-identical decisions,
// window data, register state, and error outcomes.
func TestCompiledPlanMatchesReference(t *testing.T) {
	target := DefaultTarget()
	for seed := int64(0); seed < 80; seed++ {
		r := rand.New(rand.NewSource(seed))
		p := randomValidProgram(r)
		if err := p.Validate(target); err != nil {
			t.Fatalf("seed %d: generator produced invalid program: %v", seed, err)
		}
		sw := NewSwitch(target)
		ref := NewReference(target)
		if err := sw.Load(p); err != nil {
			t.Fatalf("seed %d: switch load: %v", seed, err)
		}
		if err := ref.Load(p); err != nil {
			t.Fatalf("seed %d: reference load: %v", seed, err)
		}
		for i := 0; i < 6; i++ {
			key, val := uint64(r.Intn(8)), r.Uint64()
			if err := sw.InstallEntry("t0", key, val); err != nil {
				t.Fatalf("seed %d: install: %v", seed, err)
			}
			if err := ref.InstallEntry("t0", key, val); err != nil {
				t.Fatalf("seed %d: install: %v", seed, err)
			}
		}
		// Duplicate injection: some windows are exactly-once and some are
		// verbatim replays of earlier ones (a retransmit); the engines'
		// shadow states must agree on suppression bit-exactly.
		type sentWin struct {
			data  []uint64
			meta  map[string]uint64
			loc   uint32
			xonce bool
		}
		var history []sentWin
		for wi := 0; wi < 25; wi++ {
			var w sentWin
			if len(history) > 0 && r.Intn(4) == 0 {
				w = history[r.Intn(len(history))]
			} else {
				w.data = make([]uint64, 4)
				for i := range w.data {
					w.data[i] = r.Uint64() >> uint(r.Intn(64))
				}
				w.meta = map[string]uint64{
					"seq": uint64(r.Intn(8)), "x": r.Uint64(),
					"sender": uint64(r.Intn(4)), "wid": uint64(r.Intn(4)),
				}
				w.loc = uint32(r.Intn(100))
				w.xonce = r.Intn(2) == 0
				history = append(history, w)
			}
			winA := &interp.Window{Data: [][]uint64{append([]uint64(nil), w.data...)}, Meta: w.meta, Loc: w.loc, ExactlyOnce: w.xonce}
			winB := &interp.Window{Data: [][]uint64{append([]uint64(nil), w.data...)}, Meta: w.meta, Loc: w.loc, ExactlyOnce: w.xonce}
			decA, errA := sw.ExecWindow(1, winA)
			decB, errB := ref.ExecWindow(1, winB)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("seed %d window %d: error divergence: plan=%v reference=%v", seed, wi, errA, errB)
			}
			if errA != nil {
				continue
			}
			if decA != decB {
				t.Fatalf("seed %d window %d: decision divergence: plan=%+v reference=%+v", seed, wi, decA, decB)
			}
			for ei := range winA.Data[0] {
				if winA.Data[0][ei] != winB.Data[0][ei] {
					t.Fatalf("seed %d window %d: data[%d] divergence: plan=%#x reference=%#x",
						seed, wi, ei, winA.Data[0][ei], winB.Data[0][ei])
				}
			}
		}
		for _, reg := range p.Registers {
			for idx := 0; idx < reg.Elems; idx++ {
				a, errA := sw.ReadRegister(reg.Name, idx)
				b, errB := ref.ReadRegister(reg.Name, idx)
				if errA != nil || errB != nil {
					t.Fatalf("seed %d: register read: %v / %v", seed, errA, errB)
				}
				if a != b {
					t.Fatalf("seed %d: register %s[%d] divergence: plan=%#x reference=%#x", seed, reg.Name, idx, a, b)
				}
			}
		}
	}
}

// TestCompiledSlotsPathMatchesReference drives the same property through
// ExecWindowBatch (the data-plane entry point): binding window metadata
// by precompiled slots must equal the Meta-map convention, whether the
// stream arrives as batches of one or split into random batch sizes.
func TestCompiledSlotsPathMatchesReference(t *testing.T) {
	target := DefaultTarget()
	for seed := int64(100); seed < 140; seed++ {
		r := rand.New(rand.NewSource(seed))
		p := randomValidProgram(r)
		sw := NewSwitch(target)
		ref := NewReference(target)
		if err := sw.Load(p); err != nil {
			t.Fatalf("seed %d: switch load: %v", seed, err)
		}
		if err := ref.Load(p); err != nil {
			t.Fatalf("seed %d: reference load: %v", seed, err)
		}
		// The generated kernel reads user field "x": wire order is ["x"].
		// Duplicate injection as in TestCompiledPlanMatchesReference: the
		// slots path and the Meta-map path must agree on suppression too.
		type sentWin struct {
			data                []uint64
			seq, x, sender, wid uint64
			xonce               bool
		}
		var history []sentWin
		for wi := 0; wi < 15; {
			// Even seeds run batches of one, odd seeds random sizes. One
			// batch shares its location, as one switch's segment does.
			n := 1
			if seed%2 == 1 {
				n = 1 + r.Intn(6)
			}
			loc := uint32(r.Intn(100))
			jobs := make([]BatchJob, n)
			wins := make([]*interp.Window, n)
			for i := range jobs {
				var w sentWin
				if len(history) > 0 && r.Intn(4) == 0 {
					w = history[r.Intn(len(history))]
				} else {
					w.data = make([]uint64, 4)
					for i := range w.data {
						w.data[i] = r.Uint64() >> uint(r.Intn(64))
					}
					w.seq, w.x = uint64(r.Intn(8)), r.Uint64()
					w.sender, w.wid = uint64(r.Intn(4)), uint64(r.Intn(4))
					w.xonce = r.Intn(2) == 0
					history = append(history, w)
				}
				jobs[i] = BatchJob{
					Data: [][]uint64{append([]uint64(nil), w.data...)},
					Meta: WindowMeta{Seq: w.seq, Sender: w.sender, Wid: w.wid, User: []uint64{w.x}, ExactlyOnce: w.xonce},
				}
				wins[i] = &interp.Window{
					Data:        [][]uint64{append([]uint64(nil), w.data...)},
					Meta:        map[string]uint64{"seq": w.seq, "x": w.x, "sender": w.sender, "wid": w.wid},
					Loc:         loc,
					ExactlyOnce: w.xonce,
				}
			}
			if err := sw.ExecWindowBatch(1, jobs, loc); err != nil {
				t.Fatalf("seed %d window %d: batch: %v", seed, wi, err)
			}
			for i := range jobs {
				decA, errA := jobs[i].Dec, jobs[i].Err
				decB, errB := ref.ExecWindow(1, wins[i])
				if (errA == nil) != (errB == nil) {
					t.Fatalf("seed %d window %d: error divergence: plan=%v reference=%v", seed, wi+i, errA, errB)
				}
				if errA != nil {
					continue
				}
				if decA != decB {
					t.Fatalf("seed %d window %d: decision divergence: %+v vs %+v", seed, wi+i, decA, decB)
				}
				for ei := range jobs[i].Data[0] {
					if jobs[i].Data[0][ei] != wins[i].Data[0][ei] {
						t.Fatalf("seed %d window %d: data[%d] divergence: %#x vs %#x",
							seed, wi+i, ei, jobs[i].Data[0][ei], wins[i].Data[0][ei])
					}
				}
			}
			wi += n
		}
		for _, reg := range p.Registers {
			for idx := 0; idx < reg.Elems; idx++ {
				a, _ := sw.ReadRegister(reg.Name, idx)
				b, _ := ref.ReadRegister(reg.Name, idx)
				if a != b {
					t.Fatalf("seed %d: register %s[%d] divergence: plan=%#x reference=%#x", seed, reg.Name, idx, a, b)
				}
			}
		}
	}
}

// TestCmpAgreesWithInterpreter: same property for comparisons.
func TestCmpAgreesWithInterpreter(t *testing.T) {
	ops := []struct {
		name string
		kind token.Kind
	}{
		{"eq", token.EQ}, {"ne", token.NE}, {"lt", token.LT},
		{"gt", token.GT}, {"le", token.LE}, {"ge", token.GE},
	}
	widths := []int{8, 16, 32, 64}
	f := func(rawA, rawB uint64, opPick, widthPick, signedPick uint8) bool {
		op := ops[int(opPick)%len(ops)]
		width := widths[int(widthPick)%len(widths)]
		signed := signedPick%2 == 0
		ty := types.IntType(width, signed)
		a, b := ty.Normalize(rawA), ty.Normalize(rawB)

		want := interp.EvalCmp(op.kind, a, b, ty)
		got, err := alu(op.name, signed, a, b, width)
		if err != nil {
			return false
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}
