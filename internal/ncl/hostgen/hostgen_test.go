package hostgen_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"ncl/internal/bench"
	"ncl/internal/ncl/hostgen"
	"ncl/internal/ncl/interp"
	"ncl/internal/ncl/ir"
	"ncl/internal/ncl/lower"
	"ncl/internal/ncl/parser"
	"ncl/internal/ncl/passes"
	"ncl/internal/ncl/sema"
	"ncl/internal/ncl/source"
	"ncl/internal/ncl/token"
	"ncl/internal/ncl/types"
	"ncl/internal/ncp"
)

// compile runs the frontend on src at window length W and returns the
// lowered module (verified, not yet optimized) with the module's _win_
// fields in NCP wire order (sorted, as core.Artifact.AppConfig sends
// them).
func compile(tb testing.TB, src string, W int) (*ir.Module, []string) {
	tb.Helper()
	var diags source.DiagList
	file := parser.ParseSource("k.ncl", src, &diags)
	info := sema.Check(file, &diags)
	if diags.HasErrors() {
		tb.Fatalf("frontend: %v\n%s", diags.Err(), src)
	}
	m := lower.Lower("k", info, W, &diags)
	if diags.HasErrors() {
		tb.Fatalf("lower: %v\n%s", diags.Err(), src)
	}
	if err := ir.Verify(m); err != nil {
		tb.Fatalf("verify: %v\n%s", err, src)
	}
	var fields []string
	for _, wf := range m.WinFields {
		fields = append(fields, wf.Name)
	}
	sort.Strings(fields)
	return m, fields
}

// hostFunc returns the named incoming kernel as hosts receive it: from
// the optimized host module.
func hostFunc(tb testing.TB, m *ir.Module, name string) *ir.Func {
	tb.Helper()
	hm := passes.HostModule(m)
	if err := ir.Verify(hm); err != nil {
		tb.Fatalf("verify host module: %v", err)
	}
	f := hm.FuncByName(name)
	if f == nil {
		tb.Fatalf("no incoming kernel %s", name)
	}
	return f
}

// oracle executes f on w the way Host.In did before hosts ran plans:
// decode the payload per the kernel's signature, build the metadata map,
// tree-walk the IR.
func oracle(f *ir.Func, userFields []string, w *hostgen.Window) error {
	data, err := ncp.DecodePayload(w.Raw, specsOf(f))
	if err != nil {
		return err
	}
	if nExt := len(f.Params) - len(f.WindowSig()); len(w.Ext) != nExt {
		return fmt.Errorf("kernel %s has %d _ext_ parameters, got %d host buffers", f.Name, nExt, len(w.Ext))
	}
	meta := map[string]uint64{"seq": w.Seq, "len": w.Len, "from": w.From, "sender": w.Sender, "wid": w.Wid}
	for i, name := range userFields {
		if i < len(w.User) {
			meta[name] = w.User[i]
		}
	}
	_, err = interp.Exec(f, interp.NewState(&ir.Module{}), &interp.Window{Data: data, Ext: w.Ext, Meta: meta})
	return err
}

// specsOf is the wire layout of f's window parameters.
func specsOf(f *ir.Func) []ncp.ParamSpec {
	var specs []ncp.ParamSpec
	for _, p := range f.WindowSig() {
		et := p.ElemType()
		specs = append(specs, ncp.ParamSpec{
			Elems:  p.Elems(f.WindowLen),
			Bytes:  et.BitWidth() / 8,
			Signed: et.Kind == types.Int && et.Signed,
		})
	}
	return specs
}

func cloneExt(ext [][]uint64) [][]uint64 {
	out := make([][]uint64, len(ext))
	for i, e := range ext {
		out[i] = append([]uint64{}, e...)
	}
	return out
}

// agree runs w through the plan and through the oracle on separate copies
// of the host buffers and reports the first divergence: one side failing
// alone, or different host memory afterwards (compared after failures
// too: the stores before a failing access must match).
func agree(f *ir.Func, plan *hostgen.Plan, userFields []string, w hostgen.Window) error {
	pw, ow := w, w
	pw.Ext, ow.Ext = cloneExt(w.Ext), cloneExt(w.Ext)
	raw := append([]byte{}, w.Raw...)
	perr := plan.Run(&pw)
	oerr := oracle(f, userFields, &ow)
	if (perr == nil) != (oerr == nil) {
		return fmt.Errorf("error divergence: plan=%v interp=%v", perr, oerr)
	}
	if string(raw) != string(w.Raw) {
		return fmt.Errorf("plan modified the payload bytes")
	}
	for i := range pw.Ext {
		for j := range pw.Ext[i] {
			if pw.Ext[i][j] != ow.Ext[i][j] {
				return fmt.Errorf("ext[%d][%d]: plan=%#x interp=%#x (plan err %v)", i, j, pw.Ext[i][j], ow.Ext[i][j], perr)
			}
		}
	}
	return nil
}

// genTypes are the element types window and _ext_ parameters, _win_
// fields and locals are drawn from.
var genTypes = []string{"int8_t", "uint8_t", "int16_t", "uint16_t", "int", "unsigned", "int64_t", "uint64_t", "bool", "char"}

// genIntTypes are genTypes without bool: sema keeps bools out of
// arithmetic and ordering, so every generated expression is cast to one
// of these (a bool leaf included — the cast is what boolifies it).
var genIntTypes = []string{"int8_t", "uint8_t", "int16_t", "uint16_t", "int", "unsigned", "int64_t", "uint64_t", "char"}

type genParam struct {
	name string
	ty   string
	ptr  bool
}

// genInKernel produces one random valid incoming kernel "k" (adapted from
// codegen's genKernel): window parameters of every width and signedness,
// scalars and pointers; _ext_ loads and stores at constant, reduced and
// raw computed indices; _win_ fields and the builtin window fields;
// nested if/else over locals so joins carry φs; window elements read,
// overwritten and read again; every ALU and compare operator.
func genInKernel(rng *rand.Rand, W int) (src string, nExt int) {
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	arith := []string{"+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>"}
	cmps := []string{"<", ">", "==", "!=", "<=", ">="}

	var b strings.Builder
	nFields := rng.Intn(3)
	var fields []string
	for i := 0; i < nFields; i++ {
		name := fmt.Sprintf("u%d", i)
		fields = append(fields, name)
		fmt.Fprintf(&b, "_net_ _win_ %s %s;\n", pick(genTypes), name)
	}
	var wins, exts []genParam
	for i, n := 0, 1+rng.Intn(4); i < n; i++ {
		wins = append(wins, genParam{fmt.Sprintf("p%d", i), pick(genTypes), rng.Intn(2) == 0})
	}
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		exts = append(exts, genParam{fmt.Sprintf("e%d", i), pick(genTypes), true})
	}
	var locals []genParam

	var expr func(d int) string
	extIndex := func() string {
		switch rng.Intn(6) {
		case 0:
			return fmt.Sprintf("%d", rng.Intn(10)) // some past the buffer's end
		case 1:
			return "(" + expr(1) + ")" // raw: often out of range, negative included
		default:
			return fmt.Sprintf("((unsigned)(%s) %% %d)", expr(1), 1+rng.Intn(8))
		}
	}
	leaf := func() string {
		switch rng.Intn(8) {
		case 0, 1:
			p := wins[rng.Intn(len(wins))]
			if p.ptr {
				return fmt.Sprintf("%s[%d]", p.name, rng.Intn(W))
			}
			return p.name
		case 2:
			return "window." + pick([]string{"seq", "len", "from", "sender", "wid"})
		case 3:
			if len(fields) > 0 {
				return "window." + pick(fields)
			}
			return fmt.Sprintf("%d", rng.Intn(300))
		case 4:
			if len(locals) > 0 {
				return locals[rng.Intn(len(locals))].name
			}
			return fmt.Sprintf("%d", rng.Intn(7))
		case 5:
			e := exts[rng.Intn(len(exts))]
			return fmt.Sprintf("%s[%s]", e.name, extIndex())
		default:
			return fmt.Sprintf("%d", rng.Int63n(1<<uint(1+rng.Intn(40))))
		}
	}
	expr = func(d int) string {
		if d <= 0 || rng.Intn(4) == 0 {
			if rng.Intn(6) == 0 {
				return fmt.Sprintf("(%s)(bool)%s", pick(genIntTypes), leaf())
			}
			return fmt.Sprintf("(%s)%s", pick(genIntTypes), leaf())
		}
		switch rng.Intn(9) {
		case 0:
			t := pick(genIntTypes)
			return fmt.Sprintf("(%s %s %s ? (%s)%s : (%s)%s)", expr(d-1), pick(cmps), expr(d-1), t, expr(d-1), t, expr(d-1))
		case 1:
			return fmt.Sprintf("(%s)(%s %s %s)", pick(genIntTypes), expr(d-1), pick(cmps), expr(d-1))
		case 2:
			return fmt.Sprintf("(%s)(!%s)", pick(genIntTypes), expr(d-1))
		case 3:
			return fmt.Sprintf("(%s)(%s %s %s)", pick(genIntTypes), expr(d-1), pick([]string{"&&", "||"}), expr(d-1))
		default:
			return fmt.Sprintf("(%s)(%s %s %s)", pick(genIntTypes), expr(d-1), pick(arith), expr(d-1))
		}
	}
	var stmts func(depth, n int) string
	stmts = func(depth, n int) string {
		var s strings.Builder
		for i := 0; i < n; i++ {
			switch rng.Intn(10) {
			case 9:
				// Read an element, overwrite it, use the old value: a load
				// must not track later stores to its element.
				p, e := wins[rng.Intn(len(wins))], exts[rng.Intn(len(exts))]
				at := p.name
				if p.ptr {
					at = fmt.Sprintf("%s[%d]", p.name, rng.Intn(W))
				}
				fmt.Fprintf(&s, "{ %s old = %s; %s = (%s)%s; %s[%s] = (%s)old; }\n",
					p.ty, at, at, p.ty, expr(1), e.name, extIndex(), e.ty)
			case 0, 1:
				e := exts[rng.Intn(len(exts))]
				fmt.Fprintf(&s, "%s[%s] = (%s)%s;\n", e.name, extIndex(), e.ty, expr(2))
			case 2:
				e := exts[rng.Intn(len(exts))]
				fmt.Fprintf(&s, "*%s = (%s)%s;\n", e.name, e.ty, expr(2))
			case 3:
				p := wins[rng.Intn(len(wins))]
				if p.ptr {
					fmt.Fprintf(&s, "%s[%d] = (%s)%s;\n", p.name, rng.Intn(W), p.ty, expr(2))
				} else {
					fmt.Fprintf(&s, "%s = (%s)%s;\n", p.name, p.ty, expr(2))
				}
			case 4:
				if len(locals) > 0 {
					l := locals[rng.Intn(len(locals))]
					fmt.Fprintf(&s, "%s = (%s)%s;\n", l.name, l.ty, expr(2))
				}
			case 5, 6:
				cond := fmt.Sprintf("%s %s %s", expr(1), pick(cmps), expr(1))
				if depth > 0 {
					fmt.Fprintf(&s, "if (%s) {\n%s}", cond, stmts(depth-1, 1+rng.Intn(3)))
					if rng.Intn(3) > 0 {
						fmt.Fprintf(&s, " else {\n%s}", stmts(depth-1, 1+rng.Intn(2)))
					}
					s.WriteString("\n")
				} else if len(locals) > 0 {
					l := locals[rng.Intn(len(locals))]
					fmt.Fprintf(&s, "if (%s) %s = (%s)%s;\n", cond, l.name, l.ty, expr(1))
				}
			case 7:
				e := exts[rng.Intn(len(exts))]
				p := wins[rng.Intn(len(wins))]
				if p.ptr {
					fmt.Fprintf(&s, "for (unsigned i = 0; i < window.len; ++i) %s[window.seq %% 3 * window.len + i] = (%s)%s[i];\n", e.name, e.ty, p.name)
				}
			default:
				if e := exts[rng.Intn(len(exts))]; e.ty != "bool" {
					fmt.Fprintf(&s, "%s[%s] += %s;\n", e.name, extIndex(), expr(1))
				}
			}
		}
		return s.String()
	}

	// Locals are declared up front at kernel scope so every nesting level
	// can assign them (assignments under if/else are what make φs).
	var body strings.Builder
	for i, n := 0, rng.Intn(4); i < n; i++ {
		l := genParam{name: fmt.Sprintf("v%d", i), ty: pick(genTypes)}
		fmt.Fprintf(&body, "%s %s = (%s)%s;\n", l.ty, l.name, l.ty, expr(2))
		locals = append(locals, l)
	}
	body.WriteString(stmts(3, 2+rng.Intn(6)))

	b.WriteString("_net_ _in_ void k(")
	for i, p := range wins {
		if i > 0 {
			b.WriteString(", ")
		}
		star := ""
		if p.ptr {
			star = "*"
		}
		fmt.Fprintf(&b, "%s %s%s", p.ty, star, p.name)
	}
	for _, e := range exts {
		fmt.Fprintf(&b, ", _ext_ %s *%s", e.ty, e.name)
	}
	b.WriteString(") {\n" + body.String() + "}\n")
	return b.String(), len(exts)
}

// randomWindow draws one window for f: random payload bytes (now and then
// of the wrong size), metadata, user values (sometimes fewer than the
// module declares) and host buffers of random length holding arbitrary —
// not canonical — 64-bit values (sometimes the wrong number of buffers).
func randomWindow(rng *rand.Rand, f *ir.Func, nFields, nExt int) hostgen.Window {
	size := ncp.PayloadSize(specsOf(f))
	if rng.Intn(40) == 0 {
		size += rng.Intn(5) - 2
		if size < 0 {
			size = 0
		}
	}
	w := hostgen.Window{
		Raw: make([]byte, size),
		Seq: uint64(rng.Uint32()) >> uint(rng.Intn(32)), Len: uint64(rng.Intn(1 << 16)),
		From: uint64(rng.Uint32()), Sender: uint64(rng.Uint32()), Wid: uint64(rng.Uint32()),
	}
	rng.Read(w.Raw)
	if rng.Intn(4) == 0 {
		// Small values reach the equal/less branches random bytes never do.
		for i := range w.Raw {
			w.Raw[i] = byte(rng.Intn(3))
		}
	}
	for i, n := 0, rng.Intn(nFields+1); i < n || (i < nFields && rng.Intn(2) == 0); i++ {
		w.User = append(w.User, rng.Uint64()>>uint(rng.Intn(64)))
	}
	if rng.Intn(40) == 0 {
		nExt += rng.Intn(3) - 1
	}
	for i := 0; i < nExt; i++ {
		buf := make([]uint64, rng.Intn(28))
		for j := range buf {
			buf[j] = rng.Uint64() >> uint(rng.Intn(64))
		}
		w.Ext = append(w.Ext, buf)
	}
	return w
}

// TestPlanMatchesInterpreter is the host half's compilation-correctness
// property (the counterpart of pisa's TestCompiledPlanMatchesReference):
// for random valid incoming kernels and random windows, the flat plan and
// the tree-walking interpreter leave identical host memory and fail on
// exactly the same windows. Each program is checked in two forms: as
// lowering produced it, and as the optimized host module hosts receive.
func TestPlanMatchesInterpreter(t *testing.T) {
	const programs = 2000
	failures, branches := 0, 0
	for seed := int64(0); seed < programs; seed++ {
		rng := rand.New(rand.NewSource(seed))
		W := []int{1, 2, 4, 8}[rng.Intn(4)]
		src, nExt := genInKernel(rng, W)
		m, fields := compile(t, src, W)
		for _, f := range []*ir.Func{m.FuncByName("k"), hostFunc(t, m, "k")} {
			plan := hostgen.Lower(f, fields)
			if err := plan.Err(); err != nil {
				t.Fatalf("seed %d: %v\n%s\n%s", seed, err, src, f)
			}
			if len(f.Blocks) > 1 {
				branches++
			}
			for wi := 0; wi < 12; wi++ {
				w := randomWindow(rng, f, len(fields), nExt)
				if err := agree(f, plan, fields, w); err != nil {
					t.Fatalf("seed %d window %d: %v\n%s\n%s", seed, wi, err, src, f)
				}
				if plan.Run(&w) != nil {
					failures++
				}
			}
		}
	}
	// The property is only worth its name if the generator reaches the
	// failing accesses and the joins.
	if failures < programs || branches < programs/2 {
		t.Fatalf("generator too tame: %d failing runs, %d branching functions over %d programs", failures, branches, programs)
	}
	t.Logf("%d programs: %d branching functions, %d failing runs", programs, branches, failures)
}

// TestHandBuiltIRMatchesInterpreter covers IR the frontend never emits
// but ir.Verify admits, where the plan's own normalisations and its
// unsigned bounds compare are the only thing between it and a wrong
// answer: a select narrower than its arms, window and _ext_ stores of
// values wider than the element they land in (no convert in between),
// and a 64-bit _ext_ index used raw, so "negative" indices reach the
// bounds check.
func TestHandBuiltIRMatchesInterpreter(t *testing.T) {
	x := &ir.Param{Nm: "x", Ty: types.PointerTo(types.I64)}
	y := &ir.Param{Nm: "y", Ty: types.I8, Index: 1}
	m := &ir.Param{Nm: "m", Ty: types.PointerTo(types.I8), Ext: true, Index: 2}
	wide := &ir.Param{Nm: "wide", Ty: types.PointerTo(types.U64), Ext: true, Index: 3}
	f := &ir.Func{Name: "h", Kind: ir.InKernel, WindowLen: 2, Params: []*ir.Param{x, y, m, wide}}
	b := f.NewBlock("entry")
	idx := func(i uint64) ir.Value { return ir.ConstOf(types.U32, i) }
	v0 := b.Append(&ir.Instr{Op: ir.WinLoad, Ty: types.I64, Param: x, Args: []ir.Value{idx(0)}})
	v1 := b.Append(&ir.Instr{Op: ir.WinLoad, Ty: types.I64, Param: x, Args: []ir.Value{idx(1)}})
	c := b.Append(&ir.Instr{Op: ir.Cmp, Kind: token.LT, Ty: types.BoolType, Args: []ir.Value{v0, v1}})
	sel := b.Append(&ir.Instr{Op: ir.Select, Ty: types.U8, Args: []ir.Value{c, v0, v1}})
	b.Append(&ir.Instr{Op: ir.ExtStore, Param: m, Args: []ir.Value{idx(0), v0}})
	b.Append(&ir.Instr{Op: ir.ExtStore, Param: wide, Args: []ir.Value{idx(0), sel}})
	// y = v0, then read y back at full width: only the store narrows it.
	b.Append(&ir.Instr{Op: ir.WinStore, Param: y, Args: []ir.Value{idx(0), v0}})
	yv := b.Append(&ir.Instr{Op: ir.WinLoad, Ty: types.I64, Param: y, Args: []ir.Value{idx(0)}})
	b.Append(&ir.Instr{Op: ir.ExtStore, Param: wide, Args: []ir.Value{idx(1), yv}})
	ld := b.Append(&ir.Instr{Op: ir.ExtLoad, Ty: types.I8, Param: m, Args: []ir.Value{v1}})
	b.Append(&ir.Instr{Op: ir.ExtStore, Param: wide, Args: []ir.Value{idx(2), ld}})
	b.Append(&ir.Instr{Op: ir.ExtStore, Param: m, Args: []ir.Value{v0, v1}})
	b.Append(&ir.Instr{Op: ir.Ret})
	if err := ir.Verify(&ir.Module{Name: "h", Funcs: []*ir.Func{f}}); err != nil {
		t.Fatal(err)
	}
	plan := hostgen.Lower(f, nil)
	if err := plan.Err(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	ran, failed := 0, 0
	for wi := 0; wi < 2000; wi++ {
		w := randomWindow(rng, f, 0, 2)
		if len(w.Ext) == 2 && len(w.Ext[1]) < 3 {
			w.Ext[1] = make([]uint64, 3)
		}
		if len(w.Raw) == 17 && rng.Intn(2) == 0 {
			// Small indices of either sign: random bytes alone only ever
			// make huge ones.
			for i := 0; i < 16; i += 8 {
				v := uint64(int64(rng.Intn(9) - 4))
				for k := 0; k < 8; k++ {
					w.Raw[i+k] = byte(v >> uint(56-8*k))
				}
			}
		}
		if err := agree(f, plan, nil, w); err != nil {
			t.Fatalf("window %d: %v\n%s", wi, err, f)
		}
		if plan.Run(&w) == nil {
			ran++
		} else {
			failed++
		}
	}
	if ran < 50 || failed < 50 {
		t.Fatalf("%d windows ran, %d failed: want plenty of both", ran, failed)
	}
}

// alertNCL and deliverNCL are the incoming kernels of examples/telemetry
// and examples/quickstart (package main, so not importable); the other
// three real kernels come from internal/bench, whose sources the
// remaining examples and the benchmark share.
const alertNCL = `
_net_ _in_ void alert(uint64_t flow, unsigned *info, _ext_ uint64_t *aflow, _ext_ unsigned *acount) {
    *aflow = flow;
    *acount = info[0];
}
`

const deliverNCL = `
_net_ _in_ void deliver(int *data, _ext_ int *out) {
    for (unsigned i = 0; i < window.len; ++i)
        out[window.seq * window.len + i] = data[i];
}
`

// realKernels are the five incoming kernels the examples and the
// evaluation harness ship, with the host buffer lengths their mains use.
var realKernels = []struct {
	name, kernel, src string
	W                 int
	ext               []int
}{
	{"allreduce", "result", bench.AllReduceNCL(64), 8, []int{64, 1}},
	{"kvs", "reply", bench.KVSNCL(16, 8), 8, []int{1, 8}},
	{"hierarchical", "result", bench.HierNCL(64), 8, []int{64, 1}},
	{"telemetry", "alert", alertNCL, 1, []int{1, 1}},
	{"quickstart", "deliver", deliverNCL, 8, []int{32}},
}

// TestRealKernelsMatchInterpreter pins the five shipped incoming kernels:
// each is checked against the oracle on random windows, and on its
// in-range windows the expected effect is spelled out once (allreduce's
// result lands at hdata[seq*W+i], sign-extended, and sets done).
func TestRealKernelsMatchInterpreter(t *testing.T) {
	for _, rk := range realKernels {
		t.Run(rk.name, func(t *testing.T) {
			m, fields := compile(t, rk.src, rk.W)
			f := hostFunc(t, m, rk.kernel)
			plan := hostgen.Lower(f, fields)
			if err := plan.Err(); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			ok := 0
			for wi := 0; wi < 400; wi++ {
				w := randomWindow(rng, f, len(fields), 0)
				w.Seq = uint64(rng.Intn(10)) // mostly inside the host buffers
				for _, n := range rk.ext {
					w.Ext = append(w.Ext, make([]uint64, n))
				}
				if err := agree(f, plan, fields, w); err != nil {
					t.Fatalf("window %d: %v\n%s", wi, err, f)
				}
				if plan.Run(&w) == nil {
					ok++
				}
			}
			if ok < 100 {
				t.Fatalf("only %d of 400 windows ran to completion", ok)
			}
		})
	}

	m, fields := compile(t, bench.AllReduceNCL(64), 8)
	plan := hostgen.Lower(hostFunc(t, m, "result"), fields)
	w := hostgen.Window{Raw: make([]byte, 32), Seq: 3, Len: 8, Ext: [][]uint64{make([]uint64, 64), make([]uint64, 1)}}
	for i := 0; i < 8; i++ {
		w.Raw[4*i], w.Raw[4*i+3] = 0xFF, byte(i) // 0xFF00000i: negative int32
	}
	if err := plan.Run(&w); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if got, want := w.Ext[0][24+i], uint64(0xFFFFFFFFFF000000)|uint64(i); got != want {
			t.Errorf("hdata[%d] = %#x, want %#x", 24+i, got, want)
		}
	}
	if w.Ext[1][0] != 1 {
		t.Errorf("done = %d, want 1", w.Ext[1][0])
	}
	w.Seq = 8 // hdata[64..71]: past the end
	if err := plan.Run(&w); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("seq 8: err = %v, want a host memory range error", err)
	}
}

// TestRunChecksWindowShape pins the two whole-window checks.
func TestRunChecksWindowShape(t *testing.T) {
	m, fields := compile(t, deliverNCL, 4)
	plan := hostgen.Lower(hostFunc(t, m, "deliver"), fields)
	ext := [][]uint64{make([]uint64, 16)}
	if err := plan.Run(&hostgen.Window{Raw: make([]byte, 15), Ext: ext}); err == nil || !strings.Contains(err.Error(), "payload is 15 bytes") {
		t.Errorf("short payload: err = %v", err)
	}
	if err := plan.Run(&hostgen.Window{Raw: make([]byte, 16)}); err == nil || !strings.Contains(err.Error(), "_ext_ parameters") {
		t.Errorf("missing host buffer: err = %v", err)
	}
	if err := plan.Run(&hostgen.Window{Raw: make([]byte, 16), Ext: ext}); err != nil {
		t.Errorf("well-formed window: %v", err)
	}
}

// TestLowerRejects covers what a host cannot execute: the plan exists,
// and both Err and every Run report why.
func TestLowerRejects(t *testing.T) {
	m, fields := compile(t, bench.AllReduceNCL(64), 8)
	passes.Optimize(m)

	out := hostgen.Lower(m.FuncByName("allreduce"), fields)
	if err := out.Err(); err == nil || !strings.Contains(err.Error(), "not an incoming kernel") {
		t.Errorf("outgoing kernel: Err = %v", err)
	}
	if err := out.Run(&hostgen.Window{}); err == nil {
		t.Error("outgoing kernel: Run succeeded")
	}

	// Switch memory in an incoming kernel (sema forbids it; a hand-built
	// module need not have gone through sema).
	f := hostFunc(t, m, "result")
	entry := f.Entry()
	load := &ir.Instr{Op: ir.RegLoad, Ty: types.I32, Global: m.Globals[0], Args: []ir.Value{ir.ConstOf(types.U32, 0)}}
	ir.AssignID(f, load)
	entry.Instrs = append([]*ir.Instr{load}, entry.Instrs...)
	if err := hostgen.Lower(f, fields).Err(); err == nil || !strings.Contains(err.Error(), "does not exist on hosts") {
		t.Errorf("regload: Err = %v", err)
	}

	// A back edge: the plan's termination rests on forward jumps only.
	loop := &ir.Func{Name: "loop", Kind: ir.InKernel, WindowLen: 1,
		Params: []*ir.Param{{Nm: "x", Ty: types.I32}}}
	a, b := loop.NewBlock("a"), loop.NewBlock("b")
	a.Append(&ir.Instr{Op: ir.Br, Target: b})
	b.Append(&ir.Instr{Op: ir.Br, Target: a})
	b.Preds, a.Preds = []*ir.Block{a}, []*ir.Block{b}
	if err := hostgen.Lower(loop, nil).Err(); err == nil || !strings.Contains(err.Error(), "not acyclic") {
		t.Errorf("loop: Err = %v", err)
	}
}

// TestPhiEdgesAndStoredElements spells out the two places where the plan's
// form differs most from the IR's: a join whose φ takes a different value
// per edge, and a window element that is stored and then read again.
func TestPhiEdgesAndStoredElements(t *testing.T) {
	src := `
_net_ _in_ void k(int *a, bool c, _ext_ int *out) {
    int v = 5;
    int old = a[1];
    if (c) { v = a[0] + 1; a[1] = v * 2; } else { a[1] = a[0] - 1; }
    out[0] = v;
    out[1] = a[1];
    out[2] = a[0];
    out[3] = old;
}
`
	m, fields := compile(t, src, 2)
	for _, f := range []*ir.Func{m.FuncByName("k"), hostFunc(t, m, "k")} {
		plan := hostgen.Lower(f, fields)
		for _, c := range []byte{0, 1, 2} {
			w := hostgen.Window{Raw: []byte{0, 0, 0, 10, 0, 0, 0, 77, c}, Ext: [][]uint64{make([]uint64, 4)}}
			if err := plan.Run(&w); err != nil {
				t.Fatal(err)
			}
			want := []uint64{5, 9, 10, 77}
			if c != 0 {
				want = []uint64{11, 22, 10, 77}
			}
			for i := range want {
				if w.Ext[0][i] != want[i] {
					t.Errorf("c=%d: out[%d] = %d, want %d", c, i, w.Ext[0][i], want[i])
				}
			}
		}
	}
}
