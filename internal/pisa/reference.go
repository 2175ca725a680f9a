package pisa

import (
	"fmt"
	"sync"

	"ncl/internal/ncl/interp"
	"ncl/internal/ncl/types"
)

// Reference is the original tree-walking execution engine: one global
// mutex, string-keyed state maps and opcodes, per-stage snapshot
// allocation, and a map-based SALU slot file. It is kept as the semantic
// oracle for the compiled plan (the differential property tests drive both
// engines with the same programs and windows and require bit-identical
// results; the two share Validate, the shadow filter and normalize, no
// arithmetic) and as the "before" baseline of BenchmarkSwitchExec.
type Reference struct {
	target TargetConfig

	mu      sync.Mutex
	program *Program
	regs    map[string][]uint64
	tables  map[string]map[uint64]uint64
	shadow  *shadowState // exactly-once duplicate filter (reset by Load)
}

// NewReference creates an empty reference device. Tests and internal/bench
// only: scripts/check.sh fails the build if anything else calls it.
func NewReference(target TargetConfig) *Reference {
	return &Reference{target: target}
}

// Load validates and installs a program, allocating fresh state.
func (rf *Reference) Load(p *Program) error {
	if err := p.Validate(rf.target); err != nil {
		return err
	}
	rf.mu.Lock()
	defer rf.mu.Unlock()
	rf.program = p
	rf.regs = map[string][]uint64{}
	for _, r := range p.Registers {
		vals := make([]uint64, r.Elems)
		copy(vals, r.Init)
		rf.regs[r.Name] = vals
	}
	rf.tables = map[string]map[uint64]uint64{}
	for _, t := range p.Tables {
		rf.tables[t] = map[uint64]uint64{}
	}
	rf.shadow = newShadowState()
	return nil
}

// InstallEntry adds/overwrites an exact-match entry.
func (rf *Reference) InstallEntry(table string, key, val uint64) error {
	rf.mu.Lock()
	defer rf.mu.Unlock()
	t, ok := rf.tables[table]
	if !ok {
		return fmt.Errorf("pisa: no table %q", table)
	}
	t[key] = val
	return nil
}

// WriteRegister writes one register element.
func (rf *Reference) WriteRegister(name string, idx int, val uint64) error {
	rf.mu.Lock()
	defer rf.mu.Unlock()
	r, ok := rf.regs[name]
	if !ok {
		return fmt.Errorf("pisa: no register %q", name)
	}
	if idx < 0 || idx >= len(r) {
		return fmt.Errorf("pisa: register %s index %d out of range", name, idx)
	}
	def := rf.program.registerByName(name)
	r[idx] = normalize(val, def.Bits, def.Signed)
	return nil
}

// ReadRegister reads one register element.
func (rf *Reference) ReadRegister(name string, idx int) (uint64, error) {
	rf.mu.Lock()
	defer rf.mu.Unlock()
	r, ok := rf.regs[name]
	if !ok {
		return 0, fmt.Errorf("pisa: no register %q", name)
	}
	if idx < 0 || idx >= len(r) {
		return 0, fmt.Errorf("pisa: register %s index %d out of range", name, idx)
	}
	return r[idx], nil
}

// ExecWindow runs the kernel with the given id over a window, exactly as
// the pre-compilation engine did.
func (rf *Reference) ExecWindow(kernelID uint32, win *interp.Window) (interp.Decision, error) {
	rf.mu.Lock()
	defer rf.mu.Unlock()
	if rf.program == nil {
		return interp.Decision{}, fmt.Errorf("pisa: no program loaded")
	}
	k := rf.program.KernelByID(kernelID)
	if k == nil {
		return interp.Decision{}, fmt.Errorf("pisa: no kernel with id %d", kernelID)
	}

	// Parser: populate the PHV from window data and metadata.
	phv := make([]uint64, len(k.Fields))
	if len(win.Data) != len(k.Params) {
		return interp.Decision{}, fmt.Errorf("pisa: window has %d params, kernel %s expects %d", len(win.Data), k.Name, len(k.Params))
	}
	for pi, pl := range k.Params {
		if len(win.Data[pi]) != pl.Elems {
			return interp.Decision{}, fmt.Errorf("pisa: param %s has %d elements, expected %d", pl.Name, len(win.Data[pi]), pl.Elems)
		}
		for ei, f := range pl.Fields {
			v := normalize(win.Data[pi][ei], pl.Bits, pl.Signed)
			if pl.Bool {
				v = boolBit(v != 0)
			}
			phv[f] = v
		}
	}
	for name, f := range k.WinMeta {
		phv[f] = normalize(win.Meta[name], k.Fields[f].Bits, k.Fields[f].Signed)
	}
	if f := k.FieldByName(FieldLoc); f != NoField {
		phv[f] = uint64(win.Loc)
	}

	// Exactly-once admission: identical logic (and shared shadow
	// implementation) to the compiled plan, so the differential tests can
	// hold the engines bit-identical under duplicate injection. The
	// tenant slot in the kernel id keys the filter per tenant, exactly
	// like the compiled plan.
	tenant := TenantSlotOfKernel(kernelID)
	var suppress, admitted bool
	if win.ExactlyOnce {
		fresh, _ := rf.shadow.admit(tenant, win.Meta["seq"], win.Meta["sender"], win.Meta["wid"])
		suppress, admitted = !fresh, fresh
	}

	// Pipeline passes (pass > 0 is recirculation).
	for _, pass := range k.Passes {
		for _, stage := range pass {
			if err := rf.execStage(k, stage, phv, suppress); err != nil {
				if admitted {
					rf.shadow.forget(tenant, win.Meta["seq"], win.Meta["sender"], win.Meta["wid"])
				}
				return interp.Decision{}, err
			}
		}
	}

	// Deparser: write modified window data back.
	for pi, pl := range k.Params {
		for ei, f := range pl.Fields {
			win.Data[pi][ei] = phv[f]
		}
	}

	dec := interp.Decision{}
	if f := k.FieldByName(FieldFwd); f != NoField {
		switch phv[f] {
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
	if f := k.FieldByName(FieldFwdLabel); f != NoField && phv[f] > 0 {
		labels := rf.program.Labels
		if k.Labels != nil {
			labels = k.Labels
		}
		li := int(phv[f]) - 1
		if li < len(labels) {
			dec.Label = labels[li]
		}
	}
	dec.Suppressed = suppress
	return dec, nil
}

// execStage runs one stage with the original closure-based units and a
// freshly allocated snapshot. suppress skips state-mutating SALUs
// (exactly-once duplicate windows), matching the compiled plan.
func (rf *Reference) execStage(k *Kernel, st *Stage, phv []uint64, suppress bool) error {
	snap := make([]uint64, len(phv))
	copy(snap, phv)

	read := func(o Operand) uint64 {
		if o.IsConst {
			return o.Const
		}
		return snap[o.Field]
	}
	predOK := func(p *Pred) bool {
		if p == nil {
			return true
		}
		v := snap[p.Field] != 0
		if p.Negate {
			return !v
		}
		return v
	}
	write := func(f FieldRef, v uint64) {
		fd := k.Fields[f]
		phv[f] = normalize(v, fd.Bits, fd.Signed)
	}

	for _, tb := range st.Tables {
		key := read(tb.Key)
		entries := rf.tables[tb.Name]
		val, hit := entries[key]
		if tb.Hit != NoField {
			write(tb.Hit, boolBit(hit))
		}
		if tb.Val != NoField && hit {
			write(tb.Val, val)
		} else if tb.Val != NoField {
			write(tb.Val, 0)
		}
	}

	for _, sa := range st.SALUs {
		if suppress && saluMutates(sa) {
			continue
		}
		if !predOK(sa.Pred) {
			continue
		}
		if err := rf.execSALU(k, sa, snap, phv); err != nil {
			return err
		}
	}

	for _, op := range st.VLIW {
		v, err := evalAction(op, read, k.Fields[op.Dst].Bits)
		if err != nil {
			return err
		}
		write(op.Dst, v)
	}
	return nil
}

// execSALU runs one atomic stateful read-modify-write with the original
// map-based slot file.
func (rf *Reference) execSALU(k *Kernel, sa *SALU, snap, phv []uint64) error {
	reg, ok := rf.regs[sa.Global]
	if !ok {
		return fmt.Errorf("pisa: register %s not allocated", sa.Global)
	}
	def := rf.program.registerByName(sa.Global)
	idxv := sa.Index.Const
	if !sa.Index.IsConst {
		idxv = snap[sa.Index.Field]
	}
	if idxv >= uint64(len(reg)) {
		return fmt.Errorf("pisa: register %s index %d out of range (%d elements)", sa.Global, idxv, len(reg))
	}
	slots := map[MSlot]uint64{MReg: reg[idxv]}
	readM := func(o MOperand) uint64 {
		switch o.Kind {
		case MFromSlot:
			return slots[o.Slot]
		case MFromField:
			return snap[o.Field]
		default:
			return o.Const
		}
	}
	for _, mo := range sa.Prog {
		var v uint64
		switch mo.Op {
		case "mov":
			v = readM(mo.A)
		case "sel":
			if readM(mo.C) != 0 {
				v = readM(mo.A)
			} else {
				v = readM(mo.B)
			}
		default:
			var err error
			v, err = alu(mo.Op, mo.Signed, readM(mo.A), readM(mo.B), def.Bits)
			if err != nil {
				return fmt.Errorf("pisa: salu %s: %w", sa.Global, err)
			}
		}
		slots[mo.Dst] = normalize(v, def.Bits, def.Signed)
	}
	reg[idxv] = normalize(slots[MReg], def.Bits, def.Signed)
	if sa.Out != NoField {
		fd := k.Fields[sa.Out]
		phv[sa.Out] = normalize(slots[MOut], fd.Bits, fd.Signed)
	}
	return nil
}

// evalAction evaluates one VLIW op, dispatching on its name; read resolves
// an operand against the stage snapshot. dstBits is the destination field
// width, which scopes shift counts the way the IR's type widths do. The
// oracle's alone: the plan runs interned opcodes (plan.go) and shares no
// arithmetic with it.
func evalAction(op ActionOp, read func(Operand) uint64, dstBits int) (uint64, error) {
	switch op.Op {
	case "mov":
		return read(op.A), nil
	case "not":
		return boolBit(read(op.A) == 0), nil
	case "csel":
		if read(op.C) != 0 {
			return read(op.A), nil
		}
		return read(op.B), nil
	case "hash":
		return uint64(interp.BloomBit(read(op.A), op.HashSeed, op.HashBits)), nil
	}
	return alu(op.Op, op.Signed, read(op.A), read(op.B), dstBits)
}

// alu is the oracle's two-operand ALU for VLIW and SALU ops over
// canonical 64-bit values. Division by zero yields zero (the documented
// NCL runtime semantics); shifts mask their count to the operand width,
// matching the IR's type-width shift semantics.
func alu(op string, signed bool, a, b uint64, bits int) (uint64, error) {
	shmask := uint64(bits - 1)
	switch op {
	case "add":
		return a + b, nil
	case "sub":
		return a - b, nil
	case "mul":
		return a * b, nil
	case "div":
		if b == 0 {
			return 0, nil
		}
		if signed {
			return uint64(int64(a) / int64(b)), nil
		}
		return a / b, nil
	case "mod":
		if b == 0 {
			return 0, nil
		}
		if signed {
			return uint64(int64(a) % int64(b)), nil
		}
		return a % b, nil
	case "and":
		return a & b, nil
	case "or":
		return a | b, nil
	case "xor":
		return a ^ b, nil
	case "shl":
		return a << (b & shmask), nil
	case "shr":
		if signed {
			return uint64(int64(a) >> (b & shmask)), nil
		}
		return (a & types.TruncMask(bits)) >> (b & shmask), nil
	case "eq":
		return boolBit(a == b), nil
	case "ne":
		return boolBit(a != b), nil
	case "lt":
		if signed {
			return boolBit(int64(a) < int64(b)), nil
		}
		return boolBit(a < b), nil
	case "gt":
		if signed {
			return boolBit(int64(a) > int64(b)), nil
		}
		return boolBit(a > b), nil
	case "le":
		if signed {
			return boolBit(int64(a) <= int64(b)), nil
		}
		return boolBit(a <= b), nil
	case "ge":
		if signed {
			return boolBit(int64(a) >= int64(b)), nil
		}
		return boolBit(a >= b), nil
	}
	return 0, fmt.Errorf("unknown ALU op %q", op)
}
