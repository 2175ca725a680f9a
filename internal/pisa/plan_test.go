package pisa

import (
	"fmt"
	"sync"
	"testing"

	"ncl/internal/ncl/interp"
	"ncl/internal/obs"
)

// statelessProgram builds a register-free kernel (id 1): an 8-element
// window parameter doubled by one VLIW stage, with a constant Pass
// decision. This is the steady-state data-plane shape the allocation
// budget is asserted against.
func statelessProgram() *Program {
	const w = 8
	var fields []Field
	var dataRefs []FieldRef
	for i := 0; i < w; i++ {
		fields = append(fields, Field{Name: "d" + string(rune('0'+i)), Bits: 32, Signed: true})
		dataRefs = append(dataRefs, FieldRef(i))
	}
	fFwd := FieldRef(len(fields))
	fields = append(fields, Field{Name: FieldFwd, Bits: 8})
	fSeq := FieldRef(len(fields))
	fields = append(fields, Field{Name: "m_seq", Bits: 32})

	st := &Stage{}
	for _, f := range dataRefs {
		st.VLIW = append(st.VLIW, ActionOp{Op: "add", Dst: f, A: FieldOperand(f), B: FieldOperand(f)})
	}
	st.VLIW = append(st.VLIW, ActionOp{Op: "mov", Dst: fFwd, A: ConstOperand(0)})

	k := &Kernel{
		Name:      "double",
		ID:        1,
		WindowLen: w,
		Fields:    fields,
		Params: []ParamLayout{{
			Name: "x", Elems: w, Bits: 32, Signed: true, Fields: dataRefs,
		}},
		WinMeta: map[string]FieldRef{"seq": fSeq},
		Passes:  [][]*Stage{{st}},
	}
	return &Program{Name: "stateless", Kernels: []*Kernel{k}}
}

// execBatchOfOne runs a batch of one through a caller-owned job array — the
// degenerate case every single-packet burst on a switch takes.
func execBatchOfOne(sw *Switch, job *[1]BatchJob, loc uint32) error {
	if err := sw.ExecWindowBatch(1, job[:], loc); err != nil {
		return err
	}
	return job[0].Err
}

// batchAllocs reports allocations per window of a batch of one at steady
// state.
func batchAllocs(t *testing.T, sw *Switch, data [][]uint64, loc uint32) float64 {
	t.Helper()
	job := [1]BatchJob{{Data: data, Meta: WindowMeta{Seq: 1}}}
	// Warm up.
	for i := 0; i < 8; i++ {
		if err := execBatchOfOne(sw, &job, loc); err != nil {
			t.Fatal(err)
		}
	}
	return testing.AllocsPerRun(500, func() {
		if err := execBatchOfOne(sw, &job, loc); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSwitchExecAllocsFlat asserts the allocation budget: a stateless
// batch of one performs at most 2 allocations per window at steady state
// (the kernel's one scratch makes it 0).
func TestSwitchExecAllocsFlat(t *testing.T) {
	sw := NewSwitch(DefaultTarget())
	if err := sw.Load(statelessProgram()); err != nil {
		t.Fatal(err)
	}
	if avg := batchAllocs(t, sw, [][]uint64{make([]uint64, 8)}, 7); avg > 2 {
		t.Fatalf("stateless batch of one allocates %.2f/window, budget is 2", avg)
	}
}

// TestSwitchExecAllocsFlatStateful covers the SALU path: the stack-based
// micro-op slot file must not fall back to per-window maps.
func TestSwitchExecAllocsFlatStateful(t *testing.T) {
	sw := NewSwitch(tinyTarget())
	if err := sw.Load(handProgram()); err != nil {
		t.Fatal(err)
	}
	if avg := batchAllocs(t, sw, [][]uint64{{5}}, 0); avg > 2 {
		t.Fatalf("stateful batch of one allocates %.2f/window, budget is 2", avg)
	}
}

// wireOrderProgram reads only user field "b" out of a two-field module
// wire order ["a", "b"]: the regression the Program.UserFields table
// exists for. Binding by per-kernel union would misread slot 0.
func wireOrderProgram(withUserFields bool) *Program {
	fields := []Field{
		{Name: "d0", Bits: 32},
		{Name: FieldFwd, Bits: 8},
		{Name: "m_b", Bits: 32},
	}
	st := &Stage{VLIW: []ActionOp{
		{Op: "mov", Dst: 0, A: FieldOperand(2)},
		{Op: "mov", Dst: 1, A: ConstOperand(0)},
	}}
	k := &Kernel{
		Name:      "pickb",
		ID:        1,
		WindowLen: 1,
		Fields:    fields,
		Params:    []ParamLayout{{Name: "x", Elems: 1, Bits: 32, Fields: []FieldRef{0}}},
		WinMeta:   map[string]FieldRef{"b": 2},
		Passes:    [][]*Stage{{st}},
	}
	p := &Program{Name: "wire", Kernels: []*Kernel{k}}
	if withUserFields {
		p.UserFields = []string{"a", "b"}
	}
	return p
}

// TestUserFieldWireOrder asserts that a kernel reading a subset of the
// module's _win_ fields still binds packet user values by module wire
// order when Program.UserFields is set, and falls back to the per-program
// union for hand-built programs without it.
func TestUserFieldWireOrder(t *testing.T) {
	user := []uint64{10, 20} // wire order ["a", "b"]

	sw := NewSwitch(DefaultTarget())
	if err := sw.Load(wireOrderProgram(true)); err != nil {
		t.Fatal(err)
	}
	data := [][]uint64{{0}}
	if err := execBatchOfOne(sw, &[1]BatchJob{{Data: data, Meta: WindowMeta{User: user}}}, 0); err != nil {
		t.Fatal(err)
	}
	if data[0][0] != 20 {
		t.Fatalf("with UserFields: kernel read %d for field b, want 20 (slot misbound)", data[0][0])
	}

	// Without UserFields the fallback wire order is the kernel union
	// ["b"], so slot 0 is b.
	sw2 := NewSwitch(DefaultTarget())
	if err := sw2.Load(wireOrderProgram(false)); err != nil {
		t.Fatal(err)
	}
	data2 := [][]uint64{{0}}
	if err := execBatchOfOne(sw2, &[1]BatchJob{{Data: data2, Meta: WindowMeta{User: []uint64{20}}}}, 0); err != nil {
		t.Fatal(err)
	}
	if data2[0][0] != 20 {
		t.Fatalf("union fallback: kernel read %d for field b, want 20", data2[0][0])
	}
}

// TestExecEntryPointsAgree: the ExecWindow adapter (name-keyed Meta), a
// one-job ExecWindowBatch (wire-order User) and the Reference oracle bind
// a user _win_ field, a builtin and _loc_ to the same values. The kernel
// reads only "b" of the wire order ["a", "b"], so an adapter that laid the
// user values out in any other order would misbind it.
func TestExecEntryPointsAgree(t *testing.T) {
	prog := func() *Program {
		fields := []Field{
			{Name: "d0", Bits: 32}, {Name: "d1", Bits: 32}, {Name: "d2", Bits: 32},
			{Name: "m_b", Bits: 32}, {Name: "m_seq", Bits: 32}, {Name: FieldLoc, Bits: 32},
		}
		k := &Kernel{
			Name: "echo", ID: 1, WindowLen: 3, Fields: fields,
			Params:  []ParamLayout{{Name: "x", Elems: 3, Bits: 32, Fields: []FieldRef{0, 1, 2}}},
			WinMeta: map[string]FieldRef{"b": 3, "seq": 4},
			Passes: [][]*Stage{{{VLIW: []ActionOp{
				{Op: "mov", Dst: 0, A: FieldOperand(3)},
				{Op: "mov", Dst: 1, A: FieldOperand(4)},
				{Op: "mov", Dst: 2, A: FieldOperand(5)},
			}}}},
		}
		return &Program{Name: "echo", Kernels: []*Kernel{k}, UserFields: []string{"a", "b"}}
	}
	want := []uint64{20, 6, 41} // b, seq, loc
	check := func(name string, data [][]uint64, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, w := range want {
			if data[0][i] != w {
				t.Errorf("%s: element %d = %d, want %d", name, i, data[0][i], w)
			}
		}
	}
	window := func() *interp.Window {
		return &interp.Window{
			Data: [][]uint64{{0, 0, 0}},
			Meta: map[string]uint64{"a": 10, "b": 20, "seq": 6},
			Loc:  41,
		}
	}

	sw := NewSwitch(DefaultTarget())
	if err := sw.Load(prog()); err != nil {
		t.Fatal(err)
	}
	win := window()
	_, err := sw.ExecWindow(1, win)
	check("ExecWindow adapter", win.Data, err)

	job := [1]BatchJob{{Data: [][]uint64{{0, 0, 0}}, Meta: WindowMeta{Seq: 6, User: []uint64{10, 20}}}}
	check("one-job batch", job[0].Data, execBatchOfOne(sw, &job, 41))

	ref := NewReference(DefaultTarget())
	if err := ref.Load(prog()); err != nil {
		t.Fatal(err)
	}
	win = window()
	_, err = ref.ExecWindow(1, win)
	check("Reference", win.Data, err)
}

// TestSwitchConcurrentControlPlane stress-tests the device's one lock
// under -race: windows execute from several goroutines concurrently with
// register writes/reads, table churn, and full program reloads. The second
// half is the shared-tenancy shape, the one place a deployed device runs
// from several goroutines: two tenants' kernels of one merged program
// execute from their own goroutines while the tenant set is re-merged in a
// loop, and every window's increment must land. Semantic equivalence is
// covered by the differential property tests.
func TestSwitchConcurrentControlPlane(t *testing.T) {
	prog := handProgram()
	prog.Tables = []string{"t"}
	sw := NewSwitch(tinyTarget())
	if err := sw.Load(prog); err != nil {
		t.Fatal(err)
	}

	const iters = 400
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			win := &interp.Window{Data: [][]uint64{{uint64(g)}}, Meta: map[string]uint64{"seq": 0}}
			data := [][]uint64{{uint64(g)}}
			for i := 0; i < iters; i++ {
				win.Meta["seq"] = uint64(i)
				if _, err := sw.ExecWindow(1, win); err != nil {
					t.Error(err)
					return
				}
				if err := execBatchOfOne(sw, &[1]BatchJob{{Data: data, Meta: WindowMeta{Seq: uint64(i)}}}, 0); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if err := sw.WriteRegister("total", i%4, uint64(i)); err != nil {
				t.Error(err)
				return
			}
			if _, err := sw.ReadRegister("total", i%4); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if err := sw.InstallEntry("t", uint64(i%8), uint64(i)); err != nil {
				t.Error(err)
				return
			}
			if i%3 == 0 {
				if err := sw.DeleteEntry("t", uint64(i%8)); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			p := handProgram()
			p.Tables = []string{"t"}
			if err := sw.Load(p); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	// The device stays operational after the churn.
	if _, err := sw.ReadRegister("total", 0); err != nil {
		t.Fatalf("post-stress read: %v", err)
	}

	merged := mergeOf(t,
		&TenantProgram{ID: "a", Slot: 1, Program: accumProgram()},
		&TenantProgram{ID: "b", Slot: 2, Program: accumProgram()})
	shared := NewSwitch(DefaultTarget())
	if err := shared.Load(merged); err != nil {
		t.Fatal(err)
	}
	stop := reloadLoop(shared, merged)
	for slot := 1; slot <= 2; slot++ {
		wg.Add(1)
		go func(id uint32) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if err := shared.ExecWindowBatch(id, []BatchJob{{Data: [][]uint64{{1, 0}}}}, 0); err != nil {
					t.Error(err)
					return
				}
			}
		}(TenantKernelID(slot, 1))
	}
	wg.Wait()
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, reg := range []string{"a/cnt", "b/cnt"} {
		if v, err := shared.ReadRegister(reg, 0); err != nil || v != iters {
			t.Errorf("%s = %d (%v), want %d", reg, v, err, iters)
		}
	}
}

// TestLoadResetsState: each Load compiles a fresh plan with fresh
// register and table state, like reprogramming a device.
func TestLoadResetsState(t *testing.T) {
	sw := NewSwitch(tinyTarget())
	if err := sw.Load(handProgram()); err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteRegister("total", 0, 99); err != nil {
		t.Fatal(err)
	}
	if err := sw.Load(handProgram()); err != nil {
		t.Fatal(err)
	}
	v, err := sw.ReadRegister("total", 0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Fatalf("register survived reload: total[0] = %d, want 0", v)
	}
}

// countersProgram is a two-pass kernel with a table in stages 0 and 1, a
// mutating SALU in stage 0 and a data-indexed SALU in stage 2 (d1 >= 2
// traps there); pass 1 is one VLIW stage. Kernel 2 is a stateless
// bystander with its own scratch.
func countersProgram() *Program {
	fields := []Field{
		{Name: "d0", Bits: 32}, {Name: "d1", Bits: 32}, {Name: FieldFwd, Bits: 8},
		{Name: "hit", Bits: 1}, {Name: "val", Bits: 32}, {Name: "sum", Bits: 32}, {Name: "m_seq", Bits: 32},
	}
	k := &Kernel{
		Name: "mixed", ID: 1, WindowLen: 2, Fields: fields,
		Params:  []ParamLayout{{Name: "a", Elems: 2, Bits: 32, Fields: []FieldRef{0, 1}}},
		WinMeta: map[string]FieldRef{"seq": 6},
		Passes: [][]*Stage{{
			{
				Tables: []*Table{{Name: "t", Key: FieldOperand(0), Hit: 3, Val: 4}},
				SALUs: []*SALU{{Global: "acc", Index: ConstOperand(0), Out: 5, Prog: []MicroOp{
					{Op: "add", Dst: MReg, A: SlotOperand(MReg), B: PhvOperand(0)},
					{Op: "mov", Dst: MOut, A: SlotOperand(MReg)},
				}}},
			},
			{Tables: []*Table{{Name: "t", Key: FieldOperand(1), Hit: 3, Val: NoField}}},
			{SALUs: []*SALU{{Global: "byidx", Index: FieldOperand(1), Out: NoField, Prog: []MicroOp{
				{Op: "mov", Dst: MReg, A: PhvOperand(5)},
			}}}},
			{VLIW: []ActionOp{{Op: "mov", Dst: 0, A: FieldOperand(5)}}},
		}, {
			{VLIW: []ActionOp{{Op: "add", Dst: 1, A: FieldOperand(4), B: FieldOperand(3)}}},
		}},
	}
	return &Program{
		Name:   "counters",
		Tables: []string{"t"},
		Registers: []RegisterDef{
			{Name: "acc", Elems: 1, Bits: 32, Stage: 0},
			{Name: "byidx", Elems: 2, Bits: 32, Stage: 2},
		},
		Kernels: []*Kernel{k, {
			Name: "bystander", ID: 2, WindowLen: 1, Fields: []Field{{Name: "d0", Bits: 32}},
			Params: []ParamLayout{{Name: "a", Elems: 1, Bits: 32, Fields: []FieldRef{0}}},
			Passes: [][]*Stage{{{VLIW: []ActionOp{{Op: "add", Dst: 0, A: FieldOperand(0), B: ConstOperand(1)}}}}},
		}},
	}
}

// TestExecCountersPerBatch: the device's counters are accumulated per
// batch and published once, with the totals per-window publication gave
// (the expected values were recorded from the parent of that change, which
// incremented an atomic per pass, stage and lookup). The batch mixes a
// plain exactly-once window, its suppressed duplicate, a window that traps
// in stage 2 after counting a pass, three stages and two lookups, and a
// window of the wrong shape, which counts as a window and nothing else.
func TestExecCountersPerBatch(t *testing.T) {
	sw := NewSwitch(DefaultTarget())
	if err := sw.Load(countersProgram()); err != nil {
		t.Fatal(err)
	}
	r := obs.NewRegistry()
	sw.SetObs(r, "x")
	if err := sw.InstallEntry("t", 7, 40); err != nil {
		t.Fatal(err)
	}
	once := func(wid uint64) WindowMeta { return WindowMeta{Seq: 1, Sender: 2, Wid: wid, ExactlyOnce: true} }
	jobs := []BatchJob{
		{Data: [][]uint64{{7, 1}}, Meta: once(1)},
		{Data: [][]uint64{{7, 1}}, Meta: once(1)},
		{Data: [][]uint64{{7, 9}}, Meta: WindowMeta{Seq: 2, Sender: 2, Wid: 1, ExactlyOnce: true}},
		{Data: [][]uint64{{7}}},
	}
	if err := sw.ExecWindowBatch(1, jobs, 0); err != nil {
		t.Fatal(err)
	}
	if jobs[0].Err != nil || jobs[1].Err != nil || !jobs[1].Dec.Suppressed || jobs[2].Err == nil || jobs[3].Err == nil {
		t.Fatalf("batch outcome: %v / %v suppressed=%v / %v / %v", jobs[0].Err, jobs[1].Err, jobs[1].Dec.Suppressed, jobs[2].Err, jobs[3].Err)
	}
	if got := jobs[0].Data[0]; got[0] != 7 || got[1] != 40 {
		t.Fatalf("plain window = %v, want [7 40]", got)
	}
	want := map[string]uint64{
		"windows": 4, "passes": 5, "table_hits": 3, "table_misses": 3, "dup_suppressed": 1,
		"stage.0.execs": 5, "stage.1.execs": 3, "stage.2.execs": 3, "stage.3.execs": 2, "stage.4.execs": 0,
	}
	for name, w := range want {
		if got := r.Counter("pisa.x." + name).Load(); got != w {
			t.Errorf("pisa.x.%s = %d, want %d", name, got, w)
		}
	}
	// The gauge holds the size after the batch's last admission; the trapped
	// window's rollback is not an admission.
	if got := r.Gauge("pisa.x.shadow_slots").Load(); got != 2 {
		t.Errorf("pisa.x.shadow_slots = %d, want 2", got)
	}
	if sw.PassesExecuted() != 5 {
		t.Errorf("PassesExecuted = %d, want 5", sw.PassesExecuted())
	}

	// A batch publishes only what it counted: after another kernel's
	// admissions moved the gauge, a batch with no exactly-once window leaves
	// it alone (the scratch it reuses must not remember the old size).
	other := []BatchJob{{Data: [][]uint64{{1}}, Meta: once(5)}, {Data: [][]uint64{{1}}, Meta: once(6)}}
	other[0].Meta.Sender, other[1].Meta.Sender = 3, 4
	if err := sw.ExecWindowBatch(2, other, 0); err != nil || other[0].Err != nil || other[1].Err != nil {
		t.Fatal(err, other[0].Err, other[1].Err)
	}
	plain := []BatchJob{{Data: [][]uint64{{7, 1}}}}
	if err := sw.ExecWindowBatch(1, plain, 0); err != nil || plain[0].Err != nil {
		t.Fatal(err, plain[0].Err)
	}
	if got := r.Gauge("pisa.x.shadow_slots").Load(); got != 3 {
		t.Errorf("pisa.x.shadow_slots = %d after a batch without admissions, want 3", got)
	}
	if got := r.Counter("pisa.x.passes").Load(); got != 9 {
		t.Errorf("pisa.x.passes = %d, want 9", got)
	}
}

// TestConstantsInternedExactly: immediates share the value file with the
// fields, so each must get its own slot — including ones that differ only
// above bit 32, equal a field's index, or equal what a field holds.
func TestConstantsInternedExactly(t *testing.T) {
	consts := []uint64{0, 1, 2, 1<<32 | 1, 1<<32 | 2, 1 << 63, ^uint64(0), 9}
	k := &Kernel{Name: "consts", ID: 1, WindowLen: len(consts), Passes: [][]*Stage{{{}}}}
	p := ParamLayout{Name: "x", Elems: len(consts), Bits: 64}
	for i, c := range consts {
		k.Fields = append(k.Fields, Field{Name: fmt.Sprintf("d%d", i), Bits: 64})
		p.Fields = append(p.Fields, FieldRef(i))
		k.Passes[0][0].VLIW = append(k.Passes[0][0].VLIW, ActionOp{Op: "mov", Dst: FieldRef(i), A: ConstOperand(c)})
	}
	k.Params = []ParamLayout{p}
	sw := NewSwitch(DefaultTarget())
	if err := sw.Load(&Program{Name: "consts", Kernels: []*Kernel{k}}); err != nil {
		t.Fatal(err)
	}
	data := [][]uint64{{9, 9, 9, 9, 9, 9, 9, 9}}
	if err := execBatchOfOne(sw, &[1]BatchJob{{Data: data}}, 0); err != nil {
		t.Fatal(err)
	}
	for i, c := range consts {
		if data[0][i] != c {
			t.Errorf("d%d = %#x, want the immediate %#x", i, data[0][i], c)
		}
	}
}
