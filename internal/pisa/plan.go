package pisa

import (
	"encoding/binary"
	"fmt"
	"sort"

	"ncl/internal/ncl/interp"
)

// This file is the compile-at-load half of the device model. Load turns a
// validated Program into a plan: every name (register, table, meta field)
// is resolved to a dense index, every opcode string is interned to a small
// integer, and every operand — field, immediate or SALU micro slot — becomes
// one index into the kernel's value file, so the per-window executor
// compares no strings, touches no maps but the match tables, and allocates
// nothing. The plan takes no lock: the Switch that holds it runs every
// batch and control operation under its one mutex.

// regArray is one register array's mutable state.
type regArray struct {
	vals   []uint64
	bits   int
	signed bool
}

// plan is a compiled program plus its mutable device state: register
// arrays and exact-match tables. Load swaps in a fresh plan (fresh
// state).
type plan struct {
	program    *Program
	labels     []string
	regs       []*regArray
	regIdx     map[string]int
	tables     []map[uint64]uint64
	tableIdx   map[string]int
	kernels    map[uint32]*kernelPlan
	userFields []string     // NCP wire order for WindowMeta.User
	shadow     *shadowState // exactly-once duplicate filter (state, reset by Load)
}

// metaBind sources for the slot-bound fast path: an index into the
// window's builtin values (execBatch), or metaUser0+i.
const (
	metaSeq = iota
	metaLen
	metaFrom
	metaSender
	metaWid
	metaMissing // name not carried on the wire: binds zero
	metaUser0   // metaUser0+i reads WindowMeta.User[i]
)

var builtinMeta = map[string]int{"seq": metaSeq, "len": metaLen, "from": metaFrom, "sender": metaSender, "wid": metaWid}

// norm is a destination's canonical form, precomputed from its (bits,
// signed) as a shift pair: left by 64-bits, then back arithmetically
// (sign-extend) or logically (truncate). Width 64 is the identity.
type norm struct {
	sh     uint8
	signed bool
}

func normOf(bits int, signed bool) norm { return norm{uint8(64 - bits), signed} }

func (n norm) apply(v uint64) uint64 {
	if n.signed {
		return uint64(int64(v<<(n.sh&63)) >> (n.sh & 63))
	}
	return v << (n.sh & 63) >> (n.sh & 63)
}

// opcode is an operation interned at Load from ActionOp.Op / MicroOp.Op.
// Signedness is part of the opcode, so the executor branches on neither a
// string nor a flag. Validate admits exactly the names in vliwOpcodes and
// microOpcodes: a plan cannot hold an unknown operation.
type opcode uint8

const (
	opMov opcode = iota
	opNot
	opSel // "csel" in a VLIW slot, "sel" in a SALU: C ? A : B
	opHash
	opAdd
	opSub
	opMul
	opDiv
	opMod
	opAnd
	opOr
	opXor
	opShl
	opShr
	opEq
	opNe
	opLt
	opGt
	opLe
	opGe
	opDivS // signed variants, chosen when the op's Signed flag is set
	opModS
	opShrS
	opLtS
	opGtS
	opLeS
	opGeS
)

var (
	aluOpcodes = map[string]opcode{
		"add": opAdd, "sub": opSub, "mul": opMul, "div": opDiv, "mod": opMod,
		"and": opAnd, "or": opOr, "xor": opXor, "shl": opShl, "shr": opShr,
		"eq": opEq, "ne": opNe, "lt": opLt, "gt": opGt, "le": opLe, "ge": opGe,
	}
	signedOpcodes = map[opcode]opcode{
		opDiv: opDivS, opMod: opModS, opShr: opShrS, opLt: opLtS, opGt: opGtS, opLe: opLeS, opGe: opGeS,
	}
	vliwOpcodes  = withALU(map[string]opcode{"mov": opMov, "not": opNot, "csel": opSel, "hash": opHash})
	microOpcodes = withALU(map[string]opcode{"mov": opMov, "sel": opSel})
)

func withALU(unit map[string]opcode) map[string]opcode {
	for name, op := range aluOpcodes {
		unit[name] = op
	}
	return unit
}

// instr is one lowered VLIW op or SALU micro-op: v[dst] = norm(op(v[a],
// v[b], v[c])) over the kernel's value file v (see execScratch.vals).
// Shift counts wrap at the destination width, which norm already carries.
type instr struct {
	op      opcode
	norm    norm
	dst     int32
	a, b, c int32
}

// metaBind writes one window-metadata value into a PHV field without
// consulting a name map.
type metaBind struct {
	src  int
	f    FieldRef
	norm norm
}

// elemPlan binds one window element to its PHV field and to payload bytes
// [off, off+size), big-endian (hostgen's opElem reads Raw the same way).
type elemPlan struct {
	f         FieldRef
	off, size int
	norm      norm
	boolP     bool
}

func (e *elemPlan) load(raw []byte) (v uint64) {
	b := raw[e.off : e.off+e.size]
	if e.size == 4 { // int, unsigned: the common case
		return uint64(binary.BigEndian.Uint32(b))
	}
	for _, c := range b {
		v = v<<8 | uint64(c)
	}
	return v
}

func (e *elemPlan) store(raw []byte, v uint64) {
	b := raw[e.off : e.off+e.size]
	if e.size == 4 {
		binary.BigEndian.PutUint32(b, uint32(v))
		return
	}
	for i := len(b) - 1; i >= 0; i-- {
		b[i], v = byte(v), v>>8
	}
}

// PayloadBytes is the size of one window of the kernel on the wire: its
// parameters' elements back to back (NCL types are whole bytes; a
// narrower hand-built field travels in one).
func (k *Kernel) PayloadBytes() (n int) {
	for _, p := range k.Params {
		n += p.Elems * ((p.Bits + 7) / 8)
	}
	return n
}

// tableInstr is one match-table access: key is a value-file slot, hit and
// val are pending slots (-1 when the table has no such output).
type tableInstr struct {
	tbl              map[uint64]uint64
	key, hit, val    int32
	hitNorm, valNorm norm
}

// saluInstr is one stateful-ALU access bound to its register array. Its
// micro-program runs over the value file's micro slots at register width.
type saluInstr struct {
	reg     *regArray
	name    string
	index   int32 // value-file slot of the element index
	pred    int32 // field predicating the access, -1 when unconditional
	negate  bool
	mutates bool // micro-program writes MReg: suppressed on duplicates
	prog    []instr
	out     int32 // field receiving MOut, -1 when unused
	outNorm norm
	norm    norm // register width
}

// stagePlan is one flattened match-action stage. writes is its write set:
// units write a field's pending slot, and the stage ends by committing
// exactly these fields, so every unit read the stage-input values (the
// VLIW parallel-read rule) without the PHV ever being copied.
type stagePlan struct {
	tables []tableInstr
	salus  []saluInstr
	vliw   []instr
	writes []int32
}

// kernelPlan is one kernel's closure-free instruction stream.
type kernelPlan struct {
	k             *Kernel
	numFields     int
	elems         []elemPlan // every parameter element, in payload order
	payloadBytes  int
	metaBind      []metaBind
	locField      FieldRef
	fwdField      FieldRef
	fwdLabelField FieldRef
	labels        []string // $fwdlabel space (kernel override or program's)
	userFields    []string // wire order of WindowMeta.User (kernel override or program's)
	tenant        uint32   // tenant slot from the kernel id (0 untenanted)
	passes        [][]stagePlan
	maxStages     int              // longest pass, sizes the per-batch stage counters
	consts        map[uint64]int32 // immediate -> slot while lowering
	scratch       execScratch
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
		pl.tables = append(pl.tables, map[uint64]uint64{})
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
			if _, builtin := builtinMeta[name]; !builtin && !seen[name] {
				seen[name] = true
				out = append(out, name)
			}
		}
	}
	sort.Strings(out)
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
		consts:        map[uint64]int32{},
		scratch:       execScratch{vals: make([]uint64, 2*len(k.Fields)+numMSlots), shadowSlots: -1},
	}
	if k.Labels != nil {
		kp.labels = k.Labels
	}
	kp.userFields = pl.userFields
	if k.UserFields != nil {
		kp.userFields = k.UserFields
	}
	for _, p := range k.Params {
		if len(p.Fields) != p.Elems {
			return nil, fmt.Errorf("param %s has %d fields for %d elements", p.Name, len(p.Fields), p.Elems)
		}
		size := (p.Bits + 7) / 8
		for _, f := range p.Fields {
			kp.elems = append(kp.elems, elemPlan{f: f, off: kp.payloadBytes, size: size, norm: normOf(p.Bits, p.Signed), boolP: p.Bool})
			kp.payloadBytes += size
		}
	}
	for name, f := range k.WinMeta {
		mb := metaBind{f: f, norm: kp.fieldNorm(f)}
		if src, ok := builtinMeta[name]; ok {
			mb.src = src
		} else {
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
			sp, err := pl.compileStage(kp, st)
			if err != nil {
				return nil, err
			}
			sps = append(sps, sp)
		}
		kp.passes = append(kp.passes, sps)
		kp.maxStages = max(kp.maxStages, len(sps))
	}
	kp.consts = nil // lowering is over
	kp.scratch.raw = make([]byte, kp.payloadBytes)
	kp.scratch.stageExecs = make([]uint64, kp.maxStages)
	return kp, nil
}

func (kp *kernelPlan) fieldNorm(f FieldRef) norm {
	return normOf(kp.k.Fields[f].Bits, kp.k.Fields[f].Signed)
}

// konst interns an immediate at the value file's tail.
func (kp *kernelPlan) konst(c uint64) int32 {
	slot, ok := kp.consts[c]
	if !ok {
		slot = int32(len(kp.scratch.vals))
		kp.scratch.vals = append(kp.scratch.vals, c)
		kp.consts[c] = slot
	}
	return slot
}

// operand resolves a VLIW/table operand to its value-file slot.
func (kp *kernelPlan) operand(o Operand) int32 {
	if o.IsConst {
		return kp.konst(o.Const)
	}
	return int32(o.Field)
}

// moperand resolves a SALU micro-operand to its value-file slot.
func (kp *kernelPlan) moperand(o MOperand) int32 {
	switch o.Kind {
	case MFromSlot:
		return int32(2*kp.numFields) + int32(o.Slot)
	case MFromField:
		return int32(o.Field)
	}
	return kp.konst(o.Const)
}

// intern picks the opcode for a validated op name of one unit.
func intern(unit map[string]opcode, name string, signed bool) opcode {
	op := unit[name]
	if s, ok := signedOpcodes[op]; ok && signed {
		return s
	}
	return op
}

func (pl *plan) compileStage(kp *kernelPlan, st *Stage) (stagePlan, error) {
	var sp stagePlan
	// pending adds f to the stage's write set and returns where its writer
	// puts the value.
	pending := func(f FieldRef) (int32, norm) {
		if f == NoField {
			return -1, norm{}
		}
		sp.writes = append(sp.writes, int32(f))
		return int32(kp.numFields) + int32(f), kp.fieldNorm(f)
	}
	for _, tb := range st.Tables {
		ti := tableInstr{key: kp.operand(tb.Key)}
		// An undeclared table keeps tbl nil: the old engine looked it up in
		// a nil map and always missed, and so does this one.
		if i, ok := pl.tableIdx[tb.Name]; ok {
			ti.tbl = pl.tables[i]
		}
		ti.hit, ti.hitNorm = pending(tb.Hit)
		ti.val, ti.valNorm = pending(tb.Val)
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
			index:   kp.operand(sa.Index),
			pred:    -1,
			mutates: saluMutates(sa),
			out:     int32(sa.Out),
			norm:    normOf(reg.bits, reg.signed),
		}
		if sa.Pred != nil {
			si.pred, si.negate = int32(sa.Pred.Field), sa.Pred.Negate
		}
		_, si.outNorm = pending(sa.Out)
		for _, mo := range sa.Prog {
			si.prog = append(si.prog, instr{
				op:   intern(microOpcodes, mo.Op, mo.Signed),
				norm: si.norm,
				dst:  kp.moperand(SlotOperand(mo.Dst)),
				a:    kp.moperand(mo.A), b: kp.moperand(mo.B), c: kp.moperand(mo.C),
			})
		}
		sp.salus = append(sp.salus, si)
	}
	for _, op := range st.VLIW {
		in := instr{op: intern(vliwOpcodes, op.Op, op.Signed), a: kp.operand(op.A), b: kp.operand(op.B), c: kp.operand(op.C)}
		if in.op == opHash {
			in.b, in.c = kp.konst(uint64(op.HashSeed)), kp.konst(uint64(op.HashBits))
		}
		in.dst, in.norm = pending(op.Dst)
		sp.vliw = append(sp.vliw, in)
	}
	return sp, nil
}

// ---------------------------------------------------------------------------
// Execution

// run executes a lowered instruction sequence over the value file: a
// stage's VLIW slots (writing pending slots) or one SALU micro-program
// (writing micro slots). Division by zero yields zero (the documented NCL
// runtime semantics); shift counts wrap at the destination width, matching
// the IR's type-width shift semantics.
func run(code []instr, v []uint64) {
	for i := range code {
		in := &code[i]
		a, b := v[in.a], v[in.b]
		sh := in.norm.sh & 63
		cnt := b & uint64(63-sh)
		var r uint64
		switch in.op {
		case opMov:
			r = a
		case opNot:
			r = boolBit(a == 0)
		case opSel:
			if r = b; v[in.c] != 0 {
				r = a
			}
		case opHash:
			r = uint64(interp.BloomBit(a, int(b), int(v[in.c])))
		case opAdd:
			r = a + b
		case opSub:
			r = a - b
		case opMul:
			r = a * b
		case opDiv:
			if b != 0 {
				r = a / b
			}
		case opDivS:
			if b != 0 {
				r = uint64(int64(a) / int64(b))
			}
		case opMod:
			if b != 0 {
				r = a % b
			}
		case opModS:
			if b != 0 {
				r = uint64(int64(a) % int64(b))
			}
		case opAnd:
			r = a & b
		case opOr:
			r = a | b
		case opXor:
			r = a ^ b
		case opShl:
			r = a << cnt
		case opShr:
			r = a << sh >> sh >> cnt
		case opShrS:
			r = uint64(int64(a) >> cnt)
		case opEq:
			r = boolBit(a == b)
		case opNe:
			r = boolBit(a != b)
		case opLt:
			r = boolBit(a < b)
		case opLtS:
			r = boolBit(int64(a) < int64(b))
		case opGt:
			r = boolBit(a > b)
		case opGtS:
			r = boolBit(int64(a) > int64(b))
		case opLe:
			r = boolBit(a <= b)
		case opLeS:
			r = boolBit(int64(a) <= int64(b))
		case opGe:
			r = boolBit(a >= b)
		case opGeS:
			r = boolBit(int64(a) >= int64(b))
		}
		v[in.dst] = in.norm.apply(r)
	}
}

// execPasses runs the kernel's pipeline passes over the value file in s,
// counting into s. Within a stage every unit reads fields and writes
// pending slots; the stage's write set is committed when it ends. suppress
// skips state-mutating SALUs (exactly-once duplicate windows): the register
// keeps its value and the SALU's Out field keeps its own, so a duplicate
// contribution neither re-applies nor re-triggers the kernel's completion
// path. The caller holds the device lock.
func (kp *kernelPlan) execPasses(s *execScratch, suppress bool) error {
	v, n := s.vals, int32(kp.numFields)
	micro := v[2*n : 2*n+numMSlots]
	for _, pass := range kp.passes {
		s.passes++
		for si := range pass {
			sp := &pass[si]
			s.stageExecs[si]++
			for i := range sp.tables {
				ti := &sp.tables[i]
				val, hit := ti.tbl[v[ti.key]]
				if hit {
					s.tableHits++
				} else {
					s.tableMisses++
				}
				if ti.hit >= 0 {
					v[ti.hit] = ti.hitNorm.apply(boolBit(hit))
				}
				if ti.val >= 0 {
					v[ti.val] = ti.valNorm.apply(val)
				}
			}
			for i := range sp.salus {
				sa := &sp.salus[i]
				if suppress && sa.mutates || sa.pred >= 0 && (v[sa.pred] != 0) == sa.negate {
					if sa.out >= 0 {
						v[n+sa.out] = v[sa.out]
					}
					continue
				}
				// One stateful read-modify-write, atomic under the device
				// lock.
				idx := v[sa.index]
				if idx >= uint64(len(sa.reg.vals)) {
					return fmt.Errorf("pisa: register %s index %d out of range (%d elements)", sa.name, idx, len(sa.reg.vals))
				}
				clear(micro)
				micro[MReg] = sa.reg.vals[idx]
				run(sa.prog, v)
				sa.reg.vals[idx] = sa.norm.apply(micro[MReg])
				if sa.out >= 0 {
					v[n+sa.out] = sa.outNorm.apply(micro[MOut])
				}
			}
			run(sp.vliw, v)
			for _, f := range sp.writes {
				v[f] = v[n+f]
			}
		}
	}
	return nil
}

// parse is the parser half of the pipeline: every window element straight
// from the payload bytes into its PHV field.
func (kp *kernelPlan) parse(raw []byte, phv []uint64) {
	for i := range kp.elems {
		e := &kp.elems[i]
		v := e.norm.apply(e.load(raw))
		if e.boolP {
			v = boolBit(v != 0)
		}
		phv[e.f] = v
	}
}

// deparse writes every element back into its bytes, so a non-canonical
// bool byte leaves as 0 or 1 whether or not the kernel wrote it.
func (kp *kernelPlan) deparse(raw []byte, phv []uint64) {
	for i := range kp.elems {
		kp.elems[i].store(raw, phv[kp.elems[i].f])
	}
}

// encode lays a Data job out as the bytes the core runs on; decode reads
// them back, each element canonical for its parameter's type.
func (kp *kernelPlan) encode(data [][]uint64, raw []byte) error {
	params, i := kp.k.Params, 0
	if len(data) != len(params) {
		return fmt.Errorf("pisa: window has %d params, kernel %s expects %d", len(data), kp.k.Name, len(params))
	}
	for pi, p := range params {
		if len(data[pi]) != p.Elems {
			return fmt.Errorf("pisa: param %s has %d elements, expected %d", p.Name, len(data[pi]), p.Elems)
		}
		for _, v := range data[pi] {
			kp.elems[i].store(raw, v)
			i++
		}
	}
	return nil
}

func (kp *kernelPlan) decode(raw []byte, data [][]uint64) {
	i := 0
	for _, vals := range data {
		for ei := range vals {
			vals[ei] = kp.elems[i].norm.apply(kp.elems[i].load(raw))
			i++
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
