package pisa_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ncl/internal/bench"
	"ncl/internal/core"
	"ncl/internal/ncl/interp"
	"ncl/internal/pisa"
)

// monitorNCL is examples/telemetry's outgoing kernel (package main, so not
// importable): count-min add + estimate and a Bloom test-and-set.
const monitorNCL = `
_net_ _at_("s1") ncl::CountMin<2048, 4> counts;
_net_ _at_("s1") ncl::Bloom<8192, 3> alerted;
_net_ _at_("s1") _ctrl_ unsigned threshold;

_net_ _out_ void monitor(uint64_t flow, unsigned *info) {
    counts.add(flow, 1);
    unsigned c = counts.estimate(flow);
    if (c >= threshold && !alerted.test(flow)) {
        alerted.add(flow);
        info[0] = c;
        _pass("collector");
    }
}
`

const monitorAND = "switch s1 id=1\nhost sender role=0\nhost sink role=1\nhost collector role=2\nlink sender s1\nlink s1 sink\nlink s1 collector\n"

// shippedPrograms compiles the switch programs the examples, the
// evaluation and the benchmark run: Fig. 4 allreduce, the Fig. 5 cache, the
// three switches of the aggregation tree, the telemetry monitor, and E8's
// four-pass recirculating kernel.
func shippedPrograms(t testing.TB) []*pisa.Program {
	var progs []*pisa.Program
	for _, app := range []struct {
		name, ncl, and string
		w              int
		switches       []string
	}{
		{"allreduce", bench.AllReduceNCL(64), bench.AllReduceAND(2), 8, []string{"s1"}},
		{"kvs", bench.KVSNCL(8, 4), bench.KVSAND, 4, []string{"s1"}},
		{"hierarchical", bench.HierNCL(64), bench.HierAND(2), 8, []string{"r1", "r2", "c"}},
		{"telemetry", monitorNCL, monitorAND, 1, []string{"s1"}},
		{"recirc", bench.RecircNCL(4), bench.RecircAND, 4, []string{"s1"}},
	} {
		art, err := core.Build(app.ncl, app.and, core.BuildOptions{WindowLen: app.w, ModuleName: app.name})
		if err != nil {
			t.Fatal(err)
		}
		for _, sw := range app.switches {
			progs = append(progs, art.Programs[sw])
		}
	}
	return progs
}

// randomValidProgram generates a structurally valid program with random
// VLIW/SALU/table structure: one window parameter over 4 data fields (any
// width from 1 bit up, sometimes C bool), builtin + user metadata, 1-bit
// and wider scratch fields, one register per stage, one table, and 1-3
// passes of 1-4 stages each. Besides the random ops, a chain field is
// written every third stage and read in the two stages after it — the next
// pass's when the pass ends first — so a value must survive exactly the
// stage boundaries the plan commits at. The generator respects the PISA
// rules the validator enforces (one writer per field per stage, registers
// on their home stage, one access per array per pass), so every output
// loads.
func randomValidProgram(r *rand.Rand) *pisa.Program {
	const w = 4
	widths := []int{1, 8, 16, 32, 64}
	dataBits := widths[r.Intn(len(widths))]
	dataSigned := r.Intn(2) == 0
	dataBool := dataBits == 8 && r.Intn(4) == 0

	var fields []pisa.Field
	addField := func(name string, bits int, signed bool) pisa.FieldRef {
		fields = append(fields, pisa.Field{Name: name, Bits: bits, Signed: signed})
		return pisa.FieldRef(len(fields) - 1)
	}
	dataRefs := make([]pisa.FieldRef, w)
	for i := range dataRefs {
		dataRefs[i] = addField(fmt.Sprintf("d%d", i), dataBits, dataSigned)
	}
	fFwd := addField(pisa.FieldFwd, 8, false)
	fLabel := addField(pisa.FieldFwdLabel, 16, false)
	fSeq := addField("m_seq", 32, false)
	fX := addField("m_x", 32, r.Intn(2) == 0)
	s0 := addField("s0", widths[1+r.Intn(4)], r.Intn(2) == 0)
	s1 := addField("s1", 32, r.Intn(2) == 0)
	b0 := addField("b0", 1, r.Intn(2) == 0)
	chain := addField("chain", 32, false)

	allRefs := []pisa.FieldRef{dataRefs[0], dataRefs[1], dataRefs[2], dataRefs[3], fFwd, fLabel, fSeq, fX, s0, s1, b0}
	randOperand := func() pisa.Operand {
		if r.Intn(3) == 0 {
			return pisa.ConstOperand(r.Uint64() >> uint(r.Intn(64)))
		}
		return pisa.FieldOperand(allRefs[r.Intn(len(allRefs))])
	}

	numStages, numPasses := 1+r.Intn(4), 1+r.Intn(3)
	var regs []pisa.RegisterDef
	for si := 0; si < numStages; si++ {
		reg := pisa.RegisterDef{Name: fmt.Sprintf("r%d", si), Elems: 2 + r.Intn(3), Bits: widths[r.Intn(len(widths))], Signed: r.Intn(2) == 0, Stage: si}
		if r.Intn(2) == 0 {
			for i := 0; i < reg.Elems; i++ {
				reg.Init = append(reg.Init, r.Uint64())
			}
		}
		regs = append(regs, reg)
	}

	vliwOps := []string{"mov", "add", "sub", "mul", "div", "mod", "and", "or", "xor",
		"shl", "shr", "eq", "ne", "lt", "gt", "le", "ge", "not", "csel", "hash"}
	microOps := []string{"mov", "sel", "add", "sub", "mul", "div", "mod", "and", "or", "xor",
		"shl", "shr", "eq", "ne", "lt", "gt", "le", "ge"}
	slots := []pisa.MSlot{pisa.MReg, pisa.MOut, pisa.MTmp0, pisa.MTmp1, pisa.MTmp2, pisa.MTmp3}
	randMOperand := func() pisa.MOperand {
		switch r.Intn(3) {
		case 0:
			return pisa.SlotOperand(slots[r.Intn(len(slots))])
		case 1:
			return pisa.PhvOperand(allRefs[r.Intn(len(allRefs))])
		default:
			return pisa.ImmOperand(r.Uint64() >> uint(r.Intn(64)))
		}
	}

	var passes [][]*pisa.Stage
	for pi := 0; pi < numPasses; pi++ {
		var pass []*pisa.Stage
		for si := 0; si < numStages; si++ {
			st := &pisa.Stage{}
			written := map[pisa.FieldRef]bool{}
			switch (pi*numStages + si) % 3 {
			case 0:
				st.VLIW = append(st.VLIW, pisa.ActionOp{Op: "add", Dst: chain, A: pisa.FieldOperand(chain), B: pisa.FieldOperand(dataRefs[0])})
			case 1:
				st.VLIW = append(st.VLIW, pisa.ActionOp{Op: "xor", Dst: dataRefs[1], A: pisa.FieldOperand(dataRefs[1]), B: pisa.FieldOperand(chain)})
				written[dataRefs[1]] = true
			case 2:
				st.VLIW = append(st.VLIW, pisa.ActionOp{Op: "add", Dst: dataRefs[2], A: pisa.FieldOperand(dataRefs[2]), B: pisa.FieldOperand(chain)})
				written[dataRefs[2]] = true
			}
			pickDst := func() pisa.FieldRef {
				for tries := 0; tries < 20; tries++ {
					f := allRefs[r.Intn(len(allRefs))]
					if !written[f] {
						written[f] = true
						return f
					}
				}
				return pisa.NoField
			}
			if r.Intn(2) == 0 {
				tb := &pisa.Table{Name: "t0", Key: randOperand(), Hit: pickDst(), Val: pickDst()}
				if r.Intn(4) == 0 {
					tb.Hit, tb.Val = tb.Val, pisa.NoField
				}
				st.Tables = append(st.Tables, tb)
			}
			if r.Intn(4) > 0 {
				reg := regs[si]
				idx := pisa.ConstOperand(uint64(r.Intn(reg.Elems)))
				if r.Intn(8) == 0 {
					idx = pisa.ConstOperand(uint64(reg.Elems + r.Intn(3))) // out-of-range trap path
				} else if r.Intn(3) == 0 {
					idx = pisa.FieldOperand(allRefs[r.Intn(len(allRefs))]) // data-dependent index
				}
				sa := &pisa.SALU{Global: reg.Name, Index: idx, Out: pickDst()}
				if r.Intn(3) == 0 {
					sa.Pred = &pisa.Pred{Field: allRefs[r.Intn(len(allRefs))], Negate: r.Intn(2) == 0}
				}
				n := 1 + r.Intn(4)
				for i := 0; i < n; i++ {
					sa.Prog = append(sa.Prog, pisa.MicroOp{
						Op:     microOps[r.Intn(len(microOps))],
						Signed: r.Intn(2) == 0,
						Dst:    slots[r.Intn(len(slots))],
						A:      randMOperand(), B: randMOperand(), C: randMOperand(),
					})
				}
				st.SALUs = append(st.SALUs, sa)
			}
			nv := 1 + r.Intn(4)
			for i := 0; i < nv; i++ {
				dst := pickDst()
				if dst == pisa.NoField {
					continue
				}
				op := pisa.ActionOp{
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
			if pi == numPasses-1 && si == numStages-1 && !written[fFwd] {
				st.VLIW = append(st.VLIW, pisa.ActionOp{Op: "mov", Dst: fFwd, A: pisa.ConstOperand(uint64(r.Intn(5)))})
			}
			pass = append(pass, st)
		}
		passes = append(passes, pass)
	}

	k := &pisa.Kernel{
		Name:      "randk",
		ID:        1,
		WindowLen: w,
		Fields:    fields,
		Params: []pisa.ParamLayout{{
			Name: "a", Elems: w, Bits: dataBits, Signed: dataSigned, Bool: dataBool,
			Fields: dataRefs,
		}},
		WinMeta: map[string]pisa.FieldRef{"seq": fSeq, "x": fX},
		Passes:  passes,
	}
	return &pisa.Program{
		Name:      "rand",
		Labels:    []string{"lab1", "lab2"},
		Registers: regs,
		Tables:    []string{"t0"},
		Kernels:   []*pisa.Kernel{k},
	}
}

// byteSource feeds a rand.Rand from fuzz input: every draw takes the next
// four bytes (zeros once they run out) into both halves of the word, so
// the fuzzer's mutations steer the generator's choices one by one whether
// rand reads a draw's high bits (Intn) or its low ones.
type byteSource struct{ b []byte }

func (s *byteSource) Uint64() uint64 {
	var v uint64
	for i := 0; i < 4 && len(s.b) > 0; i++ {
		v |= uint64(s.b[0]) << (8 * i)
		s.b = s.b[1:]
	}
	return v<<32 | v
}
func (s *byteSource) Int63() int64 { return int64(s.Uint64() >> 1) }
func (s *byteSource) Seed(int64)   {}

// diffStream loads prog on the plan and on the oracle, gives both the same
// control-plane state (every table a few entries, every _ctrl_ register a
// small value) and drives them with one window stream drawn from r — while
// more() holds — window by window on the oracle and, on the plan, through
// ExecWindowBatch in batches of up to maxBatch (the data-plane entry:
// metadata bound by precompiled slots) or, with maxBatch 0, through the
// ExecWindow adapter (name-keyed metadata). A quarter of the windows replay
// an earlier one verbatim (a retransmit; suppressed when it was
// exactly-once). Decisions, window data and error-or-not must agree per
// window, every register at the end. It returns how many windows ran
// without error.
func diffStream(t testing.TB, prog *pisa.Program, r *rand.Rand, maxBatch int, more func(sent int) bool) int {
	target := pisa.DefaultTarget()
	sw, ref := pisa.NewSwitch(target), pisa.NewReference(target)
	if err := sw.Load(prog); err != nil {
		t.Fatalf("%s: switch load: %v", prog.Name, err)
	}
	if err := ref.Load(prog); err != nil {
		t.Fatalf("%s: reference load: %v", prog.Name, err)
	}
	for _, tbl := range prog.Tables {
		for i := 0; i < 6; i++ {
			key, val := uint64(r.Intn(8)), uint64(r.Intn(9))
			if err := sw.InstallEntry(tbl, key, val); err != nil {
				t.Fatal(err)
			}
			if err := ref.InstallEntry(tbl, key, val); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, reg := range prog.Registers {
		if !reg.Ctrl {
			continue
		}
		v := uint64(1 + r.Intn(3))
		if err := sw.WriteRegister(reg.Name, 0, v); err != nil {
			t.Fatal(err)
		}
		if err := ref.WriteRegister(reg.Name, 0, v); err != nil {
			t.Fatal(err)
		}
	}

	type sentWin struct {
		kernel *pisa.Kernel
		data   [][]uint64
		meta   pisa.WindowMeta
	}
	fresh := func(k *pisa.Kernel) sentWin {
		w := sentWin{kernel: k, meta: pisa.WindowMeta{
			Seq: uint64(r.Intn(10)), Len: uint64(k.WindowLen), From: uint64(r.Intn(4)),
			Sender: uint64(r.Intn(4)), Wid: uint64(r.Intn(4)), ExactlyOnce: r.Intn(2) == 0,
		}}
		for _, p := range k.Params {
			vals := make([]uint64, p.Elems)
			for i := range vals {
				if vals[i] = uint64(r.Intn(8)); r.Intn(3) == 0 {
					vals[i] = r.Uint64() >> uint(r.Intn(64))
				}
			}
			w.data = append(w.data, vals)
		}
		for range sw.UserFields() {
			w.meta.User = append(w.meta.User, r.Uint64())
		}
		return w
	}
	clone := func(data [][]uint64) [][]uint64 {
		out := make([][]uint64, len(data))
		for i := range data {
			out[i] = append([]uint64(nil), data[i]...)
		}
		return out
	}

	var history []sentWin
	sent, ran := 0, 0
	for more(sent) {
		k := prog.Kernels[r.Intn(len(prog.Kernels))]
		loc := uint32(r.Intn(4))
		jobs := make([]pisa.BatchJob, 1+r.Intn(max(maxBatch, 1)))
		wins := make([]*interp.Window, len(jobs))
		for i := range jobs {
			w := fresh(k)
			if len(history) > 0 && r.Intn(4) == 0 {
				if old := history[r.Intn(len(history))]; old.kernel == k {
					w = old
				}
			}
			history = append(history, w)
			jobs[i] = pisa.BatchJob{Data: clone(w.data), Meta: w.meta}
			m := w.meta
			meta := map[string]uint64{"seq": m.Seq, "len": m.Len, "from": m.From, "sender": m.Sender, "wid": m.Wid}
			for ui, name := range sw.UserFields() {
				meta[name] = m.User[ui]
			}
			wins[i] = &interp.Window{Data: clone(w.data), Meta: meta, Loc: loc, ExactlyOnce: m.ExactlyOnce}
		}
		if maxBatch == 0 {
			win := *wins[0]
			win.Data = jobs[0].Data
			jobs[0].Dec, jobs[0].Err = sw.ExecWindow(k.ID, &win)
		} else if err := sw.ExecWindowBatch(k.ID, jobs, loc); err != nil {
			t.Fatalf("%s/%s: batch: %v", prog.Name, k.Name, err)
		}
		for i := range jobs {
			at := fmt.Sprintf("%s/%s window %d", prog.Name, k.Name, sent+i)
			decB, errB := ref.ExecWindow(k.ID, wins[i])
			if (jobs[i].Err == nil) != (errB == nil) {
				t.Fatalf("%s: error divergence: plan=%v reference=%v", at, jobs[i].Err, errB)
			}
			if errB != nil {
				continue
			}
			ran++
			if jobs[i].Dec != decB {
				t.Fatalf("%s: decision divergence: plan=%+v reference=%+v", at, jobs[i].Dec, decB)
			}
			if got, want := fmt.Sprint(jobs[i].Data), fmt.Sprint(wins[i].Data); got != want {
				t.Fatalf("%s: data divergence: plan=%s reference=%s", at, got, want)
			}
		}
		sent += len(jobs)
	}
	for _, reg := range prog.Registers {
		for idx := 0; idx < reg.Elems; idx++ {
			a, errA := sw.ReadRegister(reg.Name, idx)
			b, errB := ref.ReadRegister(reg.Name, idx)
			if errA != nil || errB != nil || a != b {
				t.Fatalf("%s: register %s[%d]: plan=%#x (%v) reference=%#x (%v)", prog.Name, reg.Name, idx, a, errA, b, errB)
			}
		}
	}
	return ran
}

// TestCompiledPlanMatchesReference is the compilation-correctness
// property: for 2000 random valid programs, random control-plane state and
// random windows with duplicate injection, the compiled plan (through the
// ExecWindow adapter) and the tree-walking oracle produce bit-identical
// decisions, window data, register state, and error outcomes.
func TestCompiledPlanMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 2000; seed++ {
		r := rand.New(rand.NewSource(seed))
		diffStream(t, randomValidProgram(r), r, 0, func(sent int) bool { return sent < 25 })
	}
}

// TestCompiledSlotsPathMatchesReference drives the same property through
// ExecWindowBatch, the data-plane entry point: even seeds in batches of
// one, odd seeds split into random batch sizes.
func TestCompiledSlotsPathMatchesReference(t *testing.T) {
	for seed := int64(10000); seed < 12000; seed++ {
		r := rand.New(rand.NewSource(seed))
		diffStream(t, randomValidProgram(r), r, 1+5*int(seed%2), func(sent int) bool { return sent < 15 })
	}
}

// TestShippedKernelsMatchReference holds the plan to the oracle on the
// kernels nclc actually emits — the shapes the random generator does not
// reach: 40-field PHVs, ten SALUs a window, hash units, a predicated cache
// read per value byte behind a table hit, four recirculation passes.
func TestShippedKernelsMatchReference(t *testing.T) {
	for i, prog := range shippedPrograms(t) {
		for seed := int64(0); seed < 4; seed++ {
			r := rand.New(rand.NewSource(seed*100 + int64(i)))
			ran := diffStream(t, prog, r, 6, func(sent int) bool { return sent < 400 })
			if ran < 100 {
				t.Errorf("%s seed %d: only %d of 400 windows ran to completion", prog.Name, seed, ran)
			}
		}
	}
}

// FuzzDevicePlan lets the fuzzer pick the program — a shipped one, or
// beyond those a random valid program from the generator seeded with the
// pick — and steer the control-plane state and the window stream byte by
// byte (byteSource): the plan never panics and agrees with the oracle on
// every decision, data word, register and error-or-not. The seed corpus is
// one stream per shipped program and a few generator seeds.
func FuzzDevicePlan(f *testing.F) {
	shipped := shippedPrograms(f)
	stream := make([]byte, 1024)
	for i := 0; i < len(shipped)+4; i++ {
		rand.New(rand.NewSource(int64(i))).Read(stream)
		f.Add(uint16(i), stream)
	}
	f.Fuzz(func(t *testing.T, pick uint16, stream []byte) {
		prog := randomValidProgram(rand.New(rand.NewSource(int64(pick))))
		if int(pick) < len(shipped) {
			prog = shipped[pick]
		}
		src := &byteSource{stream}
		diffStream(t, prog, rand.New(src), 6, func(sent int) bool { return len(src.b) > 0 && sent < 256 })
	})
}
