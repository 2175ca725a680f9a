package pisa

import (
	"fmt"
	"sort"
	"sync"

	"ncl/internal/ncl/interp"
)

// This file is the compile-at-load half of the device model. Load turns a
// validated Program into a plan: every string-keyed lookup the old
// tree-walker did per window (register name -> array, table name ->
// entries, meta name -> field) is resolved once into dense indices and
// pointer-carrying instruction slices, so the per-window executor touches
// no maps and allocates nothing. State access is fine-grained: each
// register array carries its own mutex and each match table an RWMutex
// (control-plane installs vs. data-plane lookups); a batch takes exactly
// the set its kernel can touch, so kernels on disjoint state never
// contend.

// regArray is one register array's mutable state. The mutex scopes a
// batch's SALU read-modify-writes and control-plane accesses; arrays are
// independent, so stateless kernels and SALUs on disjoint _net_ globals
// execute concurrently.
type regArray struct {
	mu     sync.Mutex
	vals   []uint64
	bits   int
	signed bool
}

// matTable is one exact-match table's entries. Lookups take the read
// lock; control-plane InstallEntry/DeleteEntry take the write lock.
type matTable struct {
	mu      sync.RWMutex
	entries map[uint64]uint64
}

// plan is a compiled program plus its mutable device state. A loaded
// Switch publishes the current plan through an atomic pointer; Load
// swaps in a fresh plan (fresh state), so the data plane reads it
// lock-free.
type plan struct {
	program    *Program
	labels     []string
	regs       []*regArray
	regIdx     map[string]int
	tables     []*matTable
	tableIdx   map[string]int
	kernels    map[uint32]*kernelPlan
	userFields []string     // NCP wire order for WindowMeta.User
	maxFields  int          // widest kernel PHV, sizes pooled scratch
	shadow     *shadowState // exactly-once duplicate filter (state, reset by Load)
}

// metaBind sources for the slot-bound fast path.
const (
	metaSeq = iota
	metaLen
	metaFrom
	metaSender
	metaWid
	metaMissing // name not carried on the wire: binds zero
	metaUser0   // metaUser0+i reads WindowMeta.User[i]
)

// metaBind writes one window-metadata value into a PHV field without
// consulting a name map.
type metaBind struct {
	src    int
	f      FieldRef
	bits   int
	signed bool
}

// paramPlan is one window parameter's ingest/deparse layout.
type paramPlan struct {
	name   string
	elems  int
	bits   int
	signed bool
	boolP  bool
	fields []FieldRef
}

// tableInstr is one match-table access with its destination widths
// resolved.
type tableInstr struct {
	tbl       *matTable
	key       Operand
	hit, val  FieldRef
	hitBits   int
	hitSigned bool
	valBits   int
	valSigned bool
}

// saluInstr is one stateful-ALU access bound to its register array.
type saluInstr struct {
	reg       *regArray
	name      string
	index     Operand
	pred      *Pred
	prog      []MicroOp
	out       FieldRef
	outBits   int
	outSigned bool
	bits      int
	signed    bool
	mutates   bool // micro-program writes MReg: suppressed on duplicates
}

// vliwInstr is one VLIW action slot with its destination width resolved.
type vliwInstr struct {
	op        ActionOp
	dstBits   int
	dstSigned bool
}

// stagePlan is one flattened match-action stage.
type stagePlan struct {
	tables []tableInstr
	salus  []saluInstr
	vliw   []vliwInstr
}

// kernelPlan is one kernel's closure-free instruction stream.
type kernelPlan struct {
	k             *Kernel
	numFields     int
	params        []paramPlan
	metaBind      []metaBind
	locField      FieldRef
	fwdField      FieldRef
	fwdLabelField FieldRef
	labels        []string // $fwdlabel space (kernel override or program's)
	userFields    []string // wire order of WindowMeta.User (kernel override or program's)
	tenant        uint32   // tenant slot from the kernel id (0 untenanted)
	passes        [][]stagePlan

	// regsUsed/tablesUsed are the deduped state the kernel's instruction
	// stream can touch, in plan-index order — the batch path's lock set
	// (see lockState).
	regsUsed   []*regArray
	tablesUsed []*matTable
}

// numMSlots bounds the SALU micro-program slot file (MReg..MTmp3).
const numMSlots = 6

// compilePlan builds the execution plan for a validated program,
// allocating fresh register/table state.
func compilePlan(p *Program) (*plan, error) {
	pl := &plan{
		program:  p,
		labels:   p.Labels,
		regIdx:   map[string]int{},
		tableIdx: map[string]int{},
		kernels:  map[uint32]*kernelPlan{},
		shadow:   newShadowState(),
	}
	for _, r := range p.Registers {
		vals := make([]uint64, r.Elems)
		copy(vals, r.Init)
		pl.regIdx[r.Name] = len(pl.regs)
		pl.regs = append(pl.regs, &regArray{vals: vals, bits: r.Bits, signed: r.Signed})
	}
	for _, t := range p.Tables {
		pl.tableIdx[t] = len(pl.tables)
		pl.tables = append(pl.tables, &matTable{entries: map[uint64]uint64{}})
	}
	pl.userFields = p.UserFields
	if len(pl.userFields) == 0 {
		pl.userFields = userFieldUnion(p)
	}
	for _, k := range p.Kernels {
		kp, err := pl.compileKernel(k)
		if err != nil {
			return nil, fmt.Errorf("pisa: kernel %s: %w", k.Name, err)
		}
		pl.kernels[k.ID] = kp
		if kp.numFields > pl.maxFields {
			pl.maxFields = kp.numFields
		}
	}
	return pl, nil
}

// userFieldUnion derives a wire order for hand-built programs that do
// not carry Program.UserFields: the sorted union of non-builtin WinMeta
// names across kernels. Compiled programs always set UserFields (the
// module-wide sorted _win_ field list), which is authoritative because
// the wire order covers fields even when no kernel at this switch reads
// them.
func userFieldUnion(p *Program) []string {
	seen := map[string]bool{}
	var out []string
	for _, k := range p.Kernels {
		for name := range k.WinMeta {
			switch name {
			case "seq", "len", "from", "sender", "wid":
				continue
			}
			if !seen[name] {
				seen[name] = true
				out = append(out, name)
			}
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func (pl *plan) compileKernel(k *Kernel) (*kernelPlan, error) {
	kp := &kernelPlan{
		k:             k,
		numFields:     len(k.Fields),
		locField:      k.FieldByName(FieldLoc),
		fwdField:      k.FieldByName(FieldFwd),
		fwdLabelField: k.FieldByName(FieldFwdLabel),
		labels:        pl.labels,
		tenant:        TenantSlotOfKernel(k.ID),
	}
	if k.Labels != nil {
		kp.labels = k.Labels
	}
	kp.userFields = pl.userFields
	if k.UserFields != nil {
		kp.userFields = k.UserFields
	}
	for _, p := range k.Params {
		kp.params = append(kp.params, paramPlan{
			name:   p.Name,
			elems:  p.Elems,
			bits:   p.Bits,
			signed: p.Signed,
			boolP:  p.Bool,
			fields: p.Fields,
		})
	}
	for name, f := range k.WinMeta {
		mb := metaBind{f: f, bits: k.Fields[f].Bits, signed: k.Fields[f].Signed}
		switch name {
		case "seq":
			mb.src = metaSeq
		case "len":
			mb.src = metaLen
		case "from":
			mb.src = metaFrom
		case "sender":
			mb.src = metaSender
		case "wid":
			mb.src = metaWid
		default:
			mb.src = metaMissing
			for i, uf := range kp.userFields {
				if uf == name {
					mb.src = metaUser0 + i
					break
				}
			}
		}
		kp.metaBind = append(kp.metaBind, mb)
	}
	for _, pass := range k.Passes {
		var sps []stagePlan
		for _, st := range pass {
			sp, err := pl.compileStage(k, st)
			if err != nil {
				return nil, err
			}
			sps = append(sps, sp)
		}
		kp.passes = append(kp.passes, sps)
	}
	kp.collectState(pl)
	return kp, nil
}

// collectState records the deduped register arrays and match tables the
// kernel's instruction stream can touch, sorted by plan index — the lock
// set ExecWindowBatch acquires once around a whole batch. Plan-index
// order is the global multi-lock order: every batch sorts the same way
// regardless of kernel, and the only other acquirer (the control plane)
// holds at most one of these locks at a time, so concurrent batches
// cannot deadlock. Private tables compiled
// for undeclared names are unreachable from any other kernel or the
// control plane; they sort after the shared ones in discovery order.
func (kp *kernelPlan) collectState(pl *plan) {
	regIdx := make(map[*regArray]int, len(pl.regs))
	for i, r := range pl.regs {
		regIdx[r] = i
	}
	tblIdx := make(map[*matTable]int, len(pl.tables))
	for i, t := range pl.tables {
		tblIdx[t] = i
	}
	seenReg := map[*regArray]bool{}
	seenTbl := map[*matTable]bool{}
	var private []*matTable
	for _, pass := range kp.passes {
		for si := range pass {
			st := &pass[si]
			for i := range st.salus {
				if r := st.salus[i].reg; !seenReg[r] {
					seenReg[r] = true
					kp.regsUsed = append(kp.regsUsed, r)
				}
			}
			for i := range st.tables {
				t := st.tables[i].tbl
				if seenTbl[t] {
					continue
				}
				seenTbl[t] = true
				if _, shared := tblIdx[t]; shared {
					kp.tablesUsed = append(kp.tablesUsed, t)
				} else {
					private = append(private, t)
				}
			}
		}
	}
	sort.Slice(kp.regsUsed, func(a, b int) bool {
		return regIdx[kp.regsUsed[a]] < regIdx[kp.regsUsed[b]]
	})
	sort.Slice(kp.tablesUsed, func(a, b int) bool {
		return tblIdx[kp.tablesUsed[a]] < tblIdx[kp.tablesUsed[b]]
	})
	kp.tablesUsed = append(kp.tablesUsed, private...)
}

// lockState acquires the kernel's whole lock set for a batch: registers
// first (plan-index order, exclusive — SALUs mutate), then tables
// (read-locked — the data plane only looks up). Pair with unlockState.
func (kp *kernelPlan) lockState() {
	for _, r := range kp.regsUsed {
		r.mu.Lock()
	}
	for _, t := range kp.tablesUsed {
		t.mu.RLock()
	}
}

// unlockState releases lockState's acquisitions in reverse order.
func (kp *kernelPlan) unlockState() {
	for i := len(kp.tablesUsed) - 1; i >= 0; i-- {
		kp.tablesUsed[i].mu.RUnlock()
	}
	for i := len(kp.regsUsed) - 1; i >= 0; i-- {
		kp.regsUsed[i].mu.Unlock()
	}
}

func (pl *plan) compileStage(k *Kernel, st *Stage) (stagePlan, error) {
	var sp stagePlan
	for _, tb := range st.Tables {
		ti := tableInstr{key: tb.Key, hit: tb.Hit, val: tb.Val}
		if i, ok := pl.tableIdx[tb.Name]; ok {
			ti.tbl = pl.tables[i]
		} else {
			// Undeclared table: the old engine looked it up in a nil map
			// and always missed; a private empty table (unreachable from
			// InstallEntry) preserves that.
			ti.tbl = &matTable{}
		}
		if tb.Hit != NoField {
			ti.hitBits = k.Fields[tb.Hit].Bits
			ti.hitSigned = k.Fields[tb.Hit].Signed
		}
		if tb.Val != NoField {
			ti.valBits = k.Fields[tb.Val].Bits
			ti.valSigned = k.Fields[tb.Val].Signed
		}
		sp.tables = append(sp.tables, ti)
	}
	for _, sa := range st.SALUs {
		i, ok := pl.regIdx[sa.Global]
		if !ok {
			return sp, fmt.Errorf("register %s not allocated", sa.Global)
		}
		reg := pl.regs[i]
		si := saluInstr{
			reg:     reg,
			name:    sa.Global,
			index:   sa.Index,
			pred:    sa.Pred,
			prog:    sa.Prog,
			out:     sa.Out,
			bits:    reg.bits,
			signed:  reg.signed,
			mutates: saluMutates(sa),
		}
		if sa.Out != NoField {
			si.outBits = k.Fields[sa.Out].Bits
			si.outSigned = k.Fields[sa.Out].Signed
		}
		for _, mo := range sa.Prog {
			if mo.Dst < 0 || mo.Dst >= numMSlots {
				return sp, fmt.Errorf("salu %s micro-op writes slot %d of %d", sa.Global, mo.Dst, numMSlots)
			}
			for _, o := range []MOperand{mo.A, mo.B, mo.C} {
				if o.Kind == MFromSlot && (o.Slot < 0 || o.Slot >= numMSlots) {
					return sp, fmt.Errorf("salu %s micro-op reads slot %d of %d", sa.Global, o.Slot, numMSlots)
				}
			}
		}
		sp.salus = append(sp.salus, si)
	}
	for _, op := range st.VLIW {
		sp.vliw = append(sp.vliw, vliwInstr{
			op:        op,
			dstBits:   k.Fields[op.Dst].Bits,
			dstSigned: k.Fields[op.Dst].Signed,
		})
	}
	return sp, nil
}

// ---------------------------------------------------------------------------
// Execution

// readOperand resolves a VLIW/table operand against the stage snapshot.
func readOperand(o Operand, snap []uint64) uint64 {
	if o.IsConst {
		return o.Const
	}
	return snap[o.Field]
}

// readMOperand resolves a SALU micro-operand.
func readMOperand(o MOperand, snap []uint64, slots *[numMSlots]uint64) uint64 {
	switch o.Kind {
	case MFromSlot:
		return slots[o.Slot]
	case MFromField:
		return snap[o.Field]
	default:
		return o.Const
	}
}

// execPasses runs the kernel's pipeline passes over the PHV in s.phv,
// using s.snap as the reusable stage-input snapshot. The caller holds the
// kernel's whole lock set (lockState); nothing below locks.
func (kp *kernelPlan) execPasses(met *pisaMetrics, s *execScratch, suppress bool) error {
	for _, pass := range kp.passes {
		met.passes.Inc()
		for si := range pass {
			if si < len(met.stageExecs) {
				met.stageExecs[si].Inc()
			}
			if err := pass[si].exec(met, s.phv, s.snap, suppress); err != nil {
				return err
			}
		}
	}
	return nil
}

// exec runs one stage: every unit reads the stage-input snapshot and
// writes the output PHV, giving the VLIW parallel semantics. suppress
// skips state-mutating SALUs (exactly-once duplicate windows): the
// register keeps its value and the SALU's Out field is not written, so a
// duplicate contribution neither re-applies nor re-triggers the kernel's
// completion path.
func (sp *stagePlan) exec(met *pisaMetrics, phv, snap []uint64, suppress bool) error {
	copy(snap, phv)
	for i := range sp.tables {
		ti := &sp.tables[i]
		key := readOperand(ti.key, snap)
		val, hit := ti.tbl.entries[key]
		if hit {
			met.tableHits.Inc()
		} else {
			met.tableMisses.Inc()
			val = 0
		}
		if ti.hit != NoField {
			phv[ti.hit] = normalize(boolBit(hit), ti.hitBits, ti.hitSigned)
		}
		if ti.val != NoField {
			phv[ti.val] = normalize(val, ti.valBits, ti.valSigned)
		}
	}
	for i := range sp.salus {
		sa := &sp.salus[i]
		if suppress && sa.mutates {
			continue
		}
		if sa.pred != nil {
			ok := snap[sa.pred.Field] != 0
			if sa.pred.Negate {
				ok = !ok
			}
			if !ok {
				continue
			}
		}
		if err := sa.exec(snap, phv); err != nil {
			return err
		}
	}
	for i := range sp.vliw {
		vi := &sp.vliw[i]
		v, err := evalAction(vi.op, snap, vi.dstBits)
		if err != nil {
			return err
		}
		phv[vi.op.Dst] = normalize(v, vi.dstBits, vi.dstSigned)
	}
	return nil
}

// exec runs one stateful read-modify-write, atomic under the batch's lock
// on the array. The slot file lives on the stack, so the hot path
// allocates nothing.
func (sa *saluInstr) exec(snap, phv []uint64) error {
	idxv := sa.index.Const
	if !sa.index.IsConst {
		idxv = snap[sa.index.Field]
	}
	reg := sa.reg
	var slots [numMSlots]uint64
	if idxv >= uint64(len(reg.vals)) {
		return fmt.Errorf("pisa: register %s index %d out of range (%d elements)", sa.name, idxv, len(reg.vals))
	}
	slots[MReg] = reg.vals[idxv]
	for i := range sa.prog {
		mo := &sa.prog[i]
		var v uint64
		switch mo.Op {
		case "mov":
			v = readMOperand(mo.A, snap, &slots)
		case "sel":
			if readMOperand(mo.C, snap, &slots) != 0 {
				v = readMOperand(mo.A, snap, &slots)
			} else {
				v = readMOperand(mo.B, snap, &slots)
			}
		default:
			var err error
			v, err = alu(mo.Op, mo.Signed, readMOperand(mo.A, snap, &slots), readMOperand(mo.B, snap, &slots), sa.bits)
			if err != nil {
				return fmt.Errorf("pisa: salu %s: %w", sa.name, err)
			}
		}
		// Register-width semantics inside the SALU.
		slots[mo.Dst] = normalize(v, sa.bits, sa.signed)
	}
	reg.vals[idxv] = normalize(slots[MReg], sa.bits, sa.signed)
	if sa.out != NoField {
		phv[sa.out] = normalize(slots[MOut], sa.outBits, sa.outSigned)
	}
	return nil
}

// parse ingests window data into the PHV (the parser half of the
// pipeline). phv must be zeroed.
func (kp *kernelPlan) parse(data [][]uint64, phv []uint64) error {
	if len(data) != len(kp.params) {
		return fmt.Errorf("pisa: window has %d params, kernel %s expects %d", len(data), kp.k.Name, len(kp.params))
	}
	for pi := range kp.params {
		p := &kp.params[pi]
		if len(data[pi]) != p.elems {
			return fmt.Errorf("pisa: param %s has %d elements, expected %d", p.name, len(data[pi]), p.elems)
		}
		for ei, f := range p.fields {
			v := normalize(data[pi][ei], p.bits, p.signed)
			if p.boolP {
				v = boolBit(v != 0)
			}
			phv[f] = v
		}
	}
	return nil
}

// deparse writes modified PHV fields back into the window data.
func (kp *kernelPlan) deparse(data [][]uint64, phv []uint64) {
	for pi := range kp.params {
		for ei, f := range kp.params[pi].fields {
			data[pi][ei] = phv[f]
		}
	}
}

// decision derives the forwarding decision from the PHV.
func (kp *kernelPlan) decision(pl *plan, phv []uint64) interp.Decision {
	dec := interp.Decision{}
	if kp.fwdField != NoField {
		switch phv[kp.fwdField] {
		case 0:
			dec.Kind = interp.Pass
		case 1:
			dec.Kind = interp.Drop
		case 2:
			dec.Kind = interp.Reflect
		case 3:
			dec.Kind = interp.Bcast
		}
	}
	if kp.fwdLabelField != NoField && phv[kp.fwdLabelField] > 0 {
		li := int(phv[kp.fwdLabelField]) - 1
		if li < len(kp.labels) {
			dec.Label = kp.labels[li]
		}
	}
	return dec
}
