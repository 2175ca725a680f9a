package pisa

import (
	"strings"
	"testing"

	"ncl/internal/ncl/interp"
)

// mergeOf is a test helper: merge accum-style tenant programs at the
// given slots, failing the test on error.
func mergeOf(t *testing.T, tenants ...*TenantProgram) *Program {
	t.Helper()
	m, err := MergePrograms("s1", tenants)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTenantKernelIDRoundTrip(t *testing.T) {
	for _, slot := range []int{0, 1, 7, MaxTenantSlot} {
		id := TenantKernelID(slot, 123)
		if got := TenantSlotOfKernel(id); got != uint32(slot) {
			t.Errorf("slot(%d) round-tripped to %d", slot, got)
		}
		if id&(1<<TenantKernelShift-1) != 123 {
			t.Errorf("slot %d: base id lost: %#x", slot, id)
		}
	}
}

func TestMergeDisjointSlices(t *testing.T) {
	m := mergeOf(t,
		&TenantProgram{ID: "a", Slot: 1, Priority: 1, Program: accumProgram()},
		&TenantProgram{ID: "b", Slot: 2, Priority: 2, Program: accumProgram()},
	)
	if len(m.Registers) != 2 || m.Registers[0].Name != "a/cnt" || m.Registers[1].Name != "b/cnt" {
		t.Fatalf("registers not prefixed per tenant: %+v", m.Registers)
	}
	if len(m.Kernels) != 2 {
		t.Fatalf("kernels = %d, want 2", len(m.Kernels))
	}
	if m.Kernels[0].ID != TenantKernelID(1, 1) || m.Kernels[1].ID != TenantKernelID(2, 1) {
		t.Errorf("kernel ids not slot-tagged: %#x %#x", m.Kernels[0].ID, m.Kernels[1].ID)
	}
	if m.Kernels[0].Name != "a/accum" || m.Kernels[1].Name != "b/accum" {
		t.Errorf("kernel names not prefixed: %s %s", m.Kernels[0].Name, m.Kernels[1].Name)
	}
	for _, k := range m.Kernels {
		if k.Labels == nil || k.UserFields == nil {
			t.Errorf("kernel %s: per-tenant Labels/UserFields overrides must be non-nil", k.Name)
		}
		if g := k.Passes[0][0].SALUs[0].Global; !strings.Contains(g, "/cnt") {
			t.Errorf("kernel %s SALU global not rewritten: %s", k.Name, g)
		}
	}
	if len(m.Tenants) != 2 || m.Tenants[0].ID != "a" || m.Tenants[1].Slot != 2 {
		t.Errorf("tenant info lost in merge: %+v", m.Tenants)
	}
	if err := m.Validate(DefaultTarget()); err != nil {
		t.Fatalf("merged program must validate: %v", err)
	}
	// The sum of the slices is exactly what admission budgets against:
	// per-stage SRAM doubles with two tenants.
	narrow := DefaultTarget()
	narrow.RegBitsPerStage = 64 // one tenant's cnt (1x64) fits, two don't
	if err := m.Validate(narrow); err == nil || !strings.Contains(err.Error(), "SRAM") {
		t.Errorf("merged SRAM over budget must fail validation, got %v", err)
	}
}

func TestMergeRejectsBadTenants(t *testing.T) {
	p := accumProgram()
	cases := []struct {
		name    string
		tenants []*TenantProgram
		frag    string
	}{
		{"dup id", []*TenantProgram{
			{ID: "a", Slot: 1, Program: p}, {ID: "a", Slot: 2, Program: p},
		}, "duplicate tenant"},
		{"dup slot", []*TenantProgram{
			{ID: "a", Slot: 1, Program: p}, {ID: "b", Slot: 1, Program: p},
		}, "slot"},
		{"slash in id", []*TenantProgram{{ID: "a/b", Slot: 1, Program: p}}, "id"},
		{"slot zero", []*TenantProgram{{ID: "a", Slot: 0, Program: p}}, "slot"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := MergePrograms("s1", c.tenants); err == nil || !strings.Contains(err.Error(), c.frag) {
				t.Errorf("want error mentioning %q, got %v", c.frag, err)
			}
		})
	}
}

// TestMergedPlanDifferential is the tentpole's core property: a merged
// multi-tenant plan must be bit-identical to N independently-loaded
// single-tenant switches — register state, window data, decisions, and
// exactly-once duplicate suppression (which must key per tenant: the
// same (seq, sender, wid) from two tenants are two distinct windows).
func TestMergedPlanDifferential(t *testing.T) {
	target := DefaultTarget()
	tenantIDs := []string{"alpha", "beta", "gamma"}

	merged := NewSwitch(target)
	var tps []*TenantProgram
	for i, id := range tenantIDs {
		tps = append(tps, &TenantProgram{ID: id, Slot: i + 1, Program: accumProgram()})
	}
	mp, err := MergePrograms("s1", tps)
	if err != nil {
		t.Fatal(err)
	}
	if err := merged.Load(mp); err != nil {
		t.Fatal(err)
	}

	solo := make([]*Switch, len(tenantIDs))
	for i := range tenantIDs {
		solo[i] = NewSwitch(target)
		if err := solo[i].Load(accumProgram()); err != nil {
			t.Fatal(err)
		}
	}

	win := func(x uint64, wid uint64) *interp.Window {
		return &interp.Window{
			Data:        [][]uint64{{x, 0}},
			Meta:        map[string]uint64{"seq": 3, "sender": 9, "wid": wid},
			ExactlyOnce: true,
		}
	}
	// Schedule: every tenant sees the same stream — windows 1..5, with
	// window 2 replayed (a duplicate) right after window 3. Identical
	// (seq, sender, wid) across tenants exercises the per-tenant shadow.
	wids := []uint64{1, 2, 3, 2, 4, 5}
	for _, wid := range wids {
		for ti := range tenantIDs {
			wMerged, wSolo := win(10+wid, wid), win(10+wid, wid)
			dm, err := merged.ExecWindow(TenantKernelID(ti+1, 1), wMerged)
			if err != nil {
				t.Fatal(err)
			}
			ds, err := solo[ti].ExecWindow(1, wSolo)
			if err != nil {
				t.Fatal(err)
			}
			if dm.Suppressed != ds.Suppressed {
				t.Fatalf("tenant %d wid %d: suppressed %v (merged) vs %v (solo)",
					ti, wid, dm.Suppressed, ds.Suppressed)
			}
			if wMerged.Data[0][0] != wSolo.Data[0][0] || wMerged.Data[0][1] != wSolo.Data[0][1] {
				t.Fatalf("tenant %d wid %d: window %v (merged) vs %v (solo)",
					ti, wid, wMerged.Data[0], wSolo.Data[0])
			}
		}
	}
	for ti, id := range tenantIDs {
		got, err := merged.ReadRegister(TenantPrefix(id)+"cnt", 0)
		if err != nil {
			t.Fatal(err)
		}
		want, err := solo[ti].ReadRegister("cnt", 0)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("tenant %s: merged register %d != solo register %d", id, got, want)
		}
		// The duplicate of wid 2 must have been suppressed exactly once:
		// sum of 11..15 each once.
		if want != 11+12+13+14+15 {
			t.Errorf("tenant %s: solo register %d, want %d (duplicate applied?)", id, want, 11+12+13+14+15)
		}
	}

	// Cross-tenant isolation of the shadow: a brand-new wid for tenant 1
	// must admit even though tenant 2 already used it... covered above
	// (same wids ran for every tenant, none suppressed cross-tenant:
	// registers would differ otherwise). Spot-check explicitly:
	w := win(100, 99)
	if d, err := merged.ExecWindow(TenantKernelID(1, 1), w); err != nil || d.Suppressed {
		t.Fatalf("fresh wid for tenant 1: err=%v suppressed=%v", err, d.Suppressed)
	}
	w2 := win(100, 99)
	if d, err := merged.ExecWindow(TenantKernelID(2, 1), w2); err != nil || d.Suppressed {
		t.Fatalf("same wid, different tenant must admit: err=%v suppressed=%v", err, d.Suppressed)
	}
	w3 := win(100, 99)
	if d, err := merged.ExecWindow(TenantKernelID(1, 1), w3); err != nil || !d.Suppressed {
		t.Fatalf("replay within tenant 1 must suppress: err=%v suppressed=%v", err, d.Suppressed)
	}
}

// TestMergedReferenceDifferential holds the Reference engine to the
// same per-tenant semantics as the compiled plan on a merged program.
func TestMergedReferenceDifferential(t *testing.T) {
	target := DefaultTarget()
	mp := mergeOf(t,
		&TenantProgram{ID: "a", Slot: 1, Program: accumProgram()},
		&TenantProgram{ID: "b", Slot: 2, Program: accumProgram()},
	)
	sw, rf := NewSwitch(target), NewReference(target)
	if err := sw.Load(mp); err != nil {
		t.Fatal(err)
	}
	if err := rf.Load(mp); err != nil {
		t.Fatal(err)
	}
	mk := func() *interp.Window {
		return &interp.Window{
			Data:        [][]uint64{{7, 0}},
			Meta:        map[string]uint64{"seq": 1, "sender": 2, "wid": 5},
			ExactlyOnce: true,
		}
	}
	for _, kid := range []uint32{TenantKernelID(1, 1), TenantKernelID(2, 1), TenantKernelID(1, 1)} {
		wa, wb := mk(), mk()
		da, err := sw.ExecWindow(kid, wa)
		if err != nil {
			t.Fatal(err)
		}
		db, err := rf.ExecWindow(kid, wb)
		if err != nil {
			t.Fatal(err)
		}
		if da.Suppressed != db.Suppressed || wa.Data[0][1] != wb.Data[0][1] {
			t.Fatalf("kernel %#x: plan (%v, %v) != reference (%v, %v)",
				kid, da.Suppressed, wa.Data[0], db.Suppressed, wb.Data[0])
		}
	}
	for _, name := range []string{"a/cnt", "b/cnt"} {
		a, _ := sw.ReadRegister(name, 0)
		b, _ := rf.ReadRegister(name, 0)
		if a != b || a != 7 {
			t.Errorf("%s: plan %d, reference %d, want 7", name, a, b)
		}
	}
}

// labelProgram builds a kernel that forwards to its program's first
// label (fwdlabel = 1), for testing per-tenant label resolution.
func labelProgram(labels []string) *Program {
	k := &Kernel{
		Name:      "route",
		ID:        1,
		WindowLen: 1,
		Fields: []Field{
			{Name: FieldFwd, Bits: 8},
			{Name: FieldFwdLabel, Bits: 16},
			{Name: "d0", Bits: 32},
		},
		Params:  []ParamLayout{{Name: "x", Elems: 1, Bits: 32, Fields: []FieldRef{2}}},
		WinMeta: map[string]FieldRef{},
		Passes: [][]*Stage{{
			{VLIW: []ActionOp{{Op: "mov", Dst: 1, A: ConstOperand(1)}}},
		}},
	}
	return &Program{Name: "route", Labels: labels, Kernels: []*Kernel{k}}
}

// TestMergedLabelsPerTenant: each merged kernel resolves $fwdlabel
// against its own tenant's label list, not the union or another
// tenant's — on both engines.
func TestMergedLabelsPerTenant(t *testing.T) {
	mp := mergeOf(t,
		&TenantProgram{ID: "a", Slot: 1, Program: labelProgram([]string{"hostA"})},
		&TenantProgram{ID: "b", Slot: 2, Program: labelProgram([]string{"hostB"})},
	)
	for _, eng := range []engine{NewSwitch(DefaultTarget()), NewReference(DefaultTarget())} {
		if err := eng.Load(mp); err != nil {
			t.Fatal(err)
		}
		for slot, want := range map[int]string{1: "hostA", 2: "hostB"} {
			w := &interp.Window{Data: [][]uint64{{1}}, Meta: map[string]uint64{}}
			d, err := eng.ExecWindow(TenantKernelID(slot, 1), w)
			if err != nil {
				t.Fatal(err)
			}
			if d.Label != want {
				t.Errorf("%T slot %d: label %q, want %q", eng, slot, d.Label, want)
			}
		}
	}
}

// TestLoadPreserving: re-merging (tenant added or removed) must carry
// surviving tenants' register state and the exactly-once shadow across
// the swap, and reclaim removed tenants' slices.
func TestLoadPreserving(t *testing.T) {
	target := DefaultTarget()
	sw := NewSwitch(target)
	pa := &TenantProgram{ID: "a", Slot: 1, Program: accumProgram()}
	pb := &TenantProgram{ID: "b", Slot: 2, Program: accumProgram()}
	if err := sw.Load(mergeOf(t, pa)); err != nil {
		t.Fatal(err)
	}
	w := &interp.Window{
		Data:        [][]uint64{{5, 0}},
		Meta:        map[string]uint64{"seq": 1, "sender": 1, "wid": 1},
		ExactlyOnce: true,
	}
	if _, err := sw.ExecWindow(TenantKernelID(1, 1), w); err != nil {
		t.Fatal(err)
	}

	// Add tenant b: a's register and shadow survive.
	if err := sw.LoadPreserving(mergeOf(t, pa, pb)); err != nil {
		t.Fatal(err)
	}
	if v, err := sw.ReadRegister("a/cnt", 0); err != nil || v != 5 {
		t.Fatalf("a/cnt after re-merge = %d (%v), want 5", v, err)
	}
	if v, err := sw.ReadRegister("b/cnt", 0); err != nil || v != 0 {
		t.Fatalf("b/cnt fresh = %d (%v), want 0", v, err)
	}
	dup := &interp.Window{
		Data:        [][]uint64{{5, 0}},
		Meta:        map[string]uint64{"seq": 1, "sender": 1, "wid": 1},
		ExactlyOnce: true,
	}
	if d, err := sw.ExecWindow(TenantKernelID(1, 1), dup); err != nil || !d.Suppressed {
		t.Fatalf("duplicate after re-merge must stay suppressed (shadow carried): err=%v d=%+v", err, d)
	}

	// Remove tenant a: its slices reclaim, b's state unaffected.
	if err := sw.LoadPreserving(mergeOf(t, pb)); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.ReadRegister("a/cnt", 0); err == nil {
		t.Error("removed tenant's register must be reclaimed")
	}
	if _, err := sw.ReadRegister("b/cnt", 0); err != nil {
		t.Errorf("surviving tenant's register lost: %v", err)
	}
}

// reloadLoop re-merges p into sw with LoadPreserving until the returned
// stop is called; stop reports the first reload error.
func reloadLoop(sw *Switch, p *Program) (stop func() error) {
	done, errc := make(chan struct{}), make(chan error, 1)
	go func() {
		for {
			select {
			case <-done:
				errc <- nil
				return
			default:
			}
			if err := sw.LoadPreserving(p); err != nil {
				errc <- err
				return
			}
		}
	}()
	return func() error {
		close(done)
		return <-errc
	}
}

// TestLoadPreservingLosesNoUpdate: a window that executes while a reload
// carries state over lands in the state the new plan holds. Tenant a's
// kernel adds 1 per window while the same tenant set is re-merged in a
// loop; a batch that ran on the old plan after the copy would lose its
// increment.
func TestLoadPreservingLosesNoUpdate(t *testing.T) {
	const windows = 20000
	merged := mergeOf(t, &TenantProgram{ID: "a", Slot: 1, Program: accumProgram()})
	sw := NewSwitch(DefaultTarget())
	if err := sw.Load(merged); err != nil {
		t.Fatal(err)
	}
	stop := reloadLoop(sw, merged)
	win := &interp.Window{Data: [][]uint64{{1, 0}}, Meta: map[string]uint64{}}
	var execErr error
	for i := 0; i < windows && execErr == nil; i++ {
		win.Data[0][0] = 1
		_, execErr = sw.ExecWindow(TenantKernelID(1, 1), win)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if execErr != nil {
		t.Fatal(execErr)
	}
	if v, err := sw.ReadRegister("a/cnt", 0); err != nil || v != windows {
		t.Fatalf("a/cnt = %d (%v), want %d: %d updates lost across reloads", v, err, windows, windows-int(v))
	}
}

// TestControlWriteSurvivesReload: the control-plane shape of the same
// race. A register write followed by a read returns the value written
// while reloads loop.
func TestControlWriteSurvivesReload(t *testing.T) {
	const writes = 20000
	merged := mergeOf(t, &TenantProgram{ID: "a", Slot: 1, Program: accumProgram()})
	sw := NewSwitch(DefaultTarget())
	if err := sw.Load(merged); err != nil {
		t.Fatal(err)
	}
	stop := reloadLoop(sw, merged)
	lost := 0
	for i := 1; i <= writes; i++ {
		if err := sw.WriteRegister("a/cnt", 0, uint64(i)); err != nil {
			t.Error(err)
			break
		}
		if v, err := sw.ReadRegister("a/cnt", 0); err != nil || v != uint64(i) {
			lost++
		}
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if lost > 0 {
		t.Fatalf("%d of %d register writes not read back across reloads", lost, writes)
	}
}
