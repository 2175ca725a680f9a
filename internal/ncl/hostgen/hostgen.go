// Package hostgen is the host half of the compiler's dual pipeline
// (Fig. 6): it lowers an incoming (_in_) kernel once into a flat plan —
// a linear array of ops over dense uint64 value slots — that the runtime
// executes per received window. The switch half (package codegen) fits
// kernels to PISA stages; a host has no stages to fit, so this lowering
// is one pass over the IR:
//
//   - every SSA value and every constant gets a slot; a window's run
//     starts from a precomputed slot image, so constants cost nothing;
//   - window elements are parsed straight from the payload bytes at
//     offsets and widths fixed here (element indices are compile-time
//     constants and loops are fully unrolled by lowering);
//   - blocks are laid out in reverse postorder, so the acyclic CFG
//     becomes forward jumps only and a run always terminates; φs become
//     moves on the incoming edges;
//   - window metadata and _ext_ parameters are bound by index.
//
// The arithmetic is interp's (EvalBin, EvalCmp) and types.Normalize:
// package interp is the oracle the plan is tested against, and sharing
// the operator semantics keeps the two from drifting. Everything the
// interpreter checks per window is checked here too: payload size, _ext_
// buffer count, and every _ext_ index, reported as errors.
package hostgen

import (
	"fmt"
	"sync"

	"ncl/internal/ncl/interp"
	"ncl/internal/ncl/ir"
	"ncl/internal/ncl/token"
	"ncl/internal/ncl/types"
)

// Window is one received window as a plan sees it: the payload bytes as
// they arrived, the NCP header's window metadata, the _win_ field values
// in wire order, and the host buffers bound to the kernel's _ext_
// parameters (in parameter order; written in place).
type Window struct {
	Raw                         []byte
	Seq, Len, From, Sender, Wid uint64
	User                        []uint64
	Ext                         [][]uint64
}

type opcode uint8

const (
	opElem     opcode = iota // dst = window element at raw[a : a+b], canonical for ty
	opMeta                   // dst = ty.Normalize(metadata source a)
	opBin                    // dst = a kind b, in ty
	opCmp                    // dst = a kind b, operands typed ty
	opNot                    // dst = !a
	opSelect                 // dst = ty.Normalize(a != 0 ? b : c)
	opNorm                   // dst = ty.Normalize(a): convert, φ edge move, window load/store
	opExtLoad                // dst = ty.Normalize(ext[b][a])
	opExtStore               // ext[b][a] = ty.Normalize(c)
	opJump                   // pc = a
	opJumpZero               // if a == 0 { pc = b }
	opRet
)

// op is one plan instruction. dst, a, b and c are slot indices unless the
// opcode says otherwise.
type op struct {
	code         opcode
	kind         token.Kind // opBin, opCmp operator
	dst, a, b, c int32
	ty           *types.Type
}

// Metadata sources of opMeta, bound at lowering like pisa's metaBind.
const (
	metaSeq = iota
	metaLen
	metaFrom
	metaSender
	metaWid
	metaMissing // name not carried on the wire: reads zero
	metaUser0   // metaUser0+i reads Window.User[i]
)

// stackSlots is how many value slots a run keeps on its own stack; wider
// plans borrow pooled scratch.
const stackSlots = 128

// Plan is one lowered incoming kernel. It is immutable after Lower and
// safe for concurrent Run calls.
type Plan struct {
	name        string
	err         error // lowering failed: Run reports this
	ops         []op
	init        []uint64 // slot image a run starts from (constants set)
	payloadSize int
	extNames    []string  // _ext_ parameters, in parameter order
	wide        sync.Pool // *[]uint64 scratch when len(init) > stackSlots
}

// Err reports why the function could not be lowered (nil if it could).
func (p *Plan) Err() error { return p.err }

// Lower compiles incoming kernel f. userFields is the NCP wire order of
// the module's _win_ fields. The result is never nil: a function the host
// cannot execute (an op that only exists on switches, control flow that
// is not a DAG) yields a plan whose Run — and Err — report why.
func Lower(f *ir.Func, userFields []string) *Plan {
	lw := &lowerer{
		f:          f,
		userFields: userFields,
		slot:       map[*ir.Instr]int32{},
		consts:     map[uint64]int32{},
		elems:      map[elemKey]*elem{},
		payloadOff: map[*ir.Param]int{},
		extIndex:   map[*ir.Param]int32{},
		blockPC:    map[*ir.Block]int32{},
	}
	p := &Plan{name: f.Name}
	if err := lw.lower(p); err != nil {
		return &Plan{name: f.Name, err: fmt.Errorf("hostgen: %s: %w", f.Name, err)}
	}
	p.ops, p.init = lw.ops, lw.init
	n := len(p.init)
	p.wide.New = func() any { s := make([]uint64, n); return &s }
	return p
}

// elemKey names one window element: a window parameter and a constant
// index into it.
type elemKey struct {
	param *ir.Param
	idx   uint64
}

// elem is a window element's slot. A loaded element is parsed from the
// payload before the body runs; a stored one changes during the run, so
// loads of it copy instead of aliasing the slot.
type elem struct {
	slot           int32
	loaded, stored bool
}

// fixup is a jump whose target pc is known once every block is placed.
type fixup struct {
	op int // index into ops: an opJump, patched in its a field
	to *ir.Block
}

type lowerer struct {
	f          *ir.Func
	userFields []string

	ops    []op
	init   []uint64
	slot   map[*ir.Instr]int32
	consts map[uint64]int32
	elems  map[elemKey]*elem

	payloadOff map[*ir.Param]int // byte offset of a window param's first element
	extIndex   map[*ir.Param]int32

	blockPC map[*ir.Block]int32
	fixups  []fixup
}

func (lw *lowerer) newSlot() int32 {
	lw.init = append(lw.init, 0)
	return int32(len(lw.init) - 1)
}

// value returns the slot holding v. Definitions precede uses in reverse
// postorder, except a φ reached from the edge that feeds it: its slot is
// made on first sight.
func (lw *lowerer) value(v ir.Value) (int32, error) {
	switch v := v.(type) {
	case *ir.Const:
		s, ok := lw.consts[v.Val]
		if !ok {
			s = lw.newSlot()
			lw.init[s] = v.Val
			lw.consts[v.Val] = s
		}
		return s, nil
	case *ir.Instr:
		s, ok := lw.slot[v]
		if !ok {
			if v.Op != ir.Phi {
				return 0, fmt.Errorf("use of %s before its definition", v.Name())
			}
			s = lw.newSlot()
			lw.slot[v] = s
		}
		return s, nil
	case *ir.Param:
		return 0, fmt.Errorf("raw parameter %s has no value", v.Name())
	}
	return 0, fmt.Errorf("unknown value kind %T", v)
}

func (lw *lowerer) emit(o op) int {
	lw.ops = append(lw.ops, o)
	return len(lw.ops) - 1
}

// reversePostorder lists the blocks reachable from the entry so that, in
// a DAG, every edge points forward.
func reversePostorder(f *ir.Func) []*ir.Block {
	var post []*ir.Block
	seen := map[*ir.Block]bool{}
	var visit func(b *ir.Block)
	visit = func(b *ir.Block) {
		seen[b] = true
		for _, s := range b.Succs() {
			if !seen[s] {
				visit(s)
			}
		}
		post = append(post, b)
	}
	visit(f.Entry())
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

func (lw *lowerer) lower(p *Plan) error {
	f := lw.f
	if f.Kind != ir.InKernel {
		return fmt.Errorf("not an incoming kernel")
	}
	if len(f.Blocks) == 0 {
		return fmt.Errorf("no body")
	}
	for _, pm := range f.Params {
		if pm.Ext {
			lw.extIndex[pm] = int32(len(p.extNames))
			p.extNames = append(p.extNames, pm.Nm)
			continue
		}
		lw.payloadOff[pm] = p.payloadSize
		p.payloadSize += pm.Elems(f.WindowLen) * (pm.ElemType().BitWidth() / 8)
	}
	order := reversePostorder(f)

	// The plan opens by parsing every window element some reachable load
	// reads, once each however many loads CSE left. Whether a store
	// targets an element decides how its loads read the slot, so that is
	// collected before any body op is emitted.
	var loads []elemKey
	for _, b := range order {
		for _, in := range b.Instrs {
			if in.Op != ir.WinLoad && in.Op != ir.WinStore {
				continue
			}
			key, err := lw.elemOf(in)
			if err != nil {
				return fmt.Errorf("%s: %w", in, err)
			}
			e := lw.elems[key]
			if e == nil {
				e = &elem{slot: lw.newSlot()}
				lw.elems[key] = e
			}
			if in.Op == ir.WinStore {
				e.stored = true
			} else if !e.loaded {
				e.loaded = true
				loads = append(loads, key)
			}
		}
	}
	for _, key := range loads {
		et := key.param.ElemType()
		bytes := et.BitWidth() / 8
		lw.emit(op{code: opElem, dst: lw.elems[key].slot, ty: et,
			a: int32(lw.payloadOff[key.param] + int(key.idx)*bytes), b: int32(bytes)})
	}

	for i, b := range order {
		lw.blockPC[b] = int32(len(lw.ops))
		var next *ir.Block
		if i+1 < len(order) {
			next = order[i+1]
		}
		if err := lw.block(b, next); err != nil {
			return err
		}
	}
	for _, fx := range lw.fixups {
		pc, ok := lw.blockPC[fx.to]
		if !ok || int(pc) <= fx.op {
			return fmt.Errorf("control flow is not acyclic (the edge into %s goes backward)", fx.to.Name)
		}
		lw.ops[fx.op].a = pc
	}
	return nil
}

// elemOf names the window element a WinLoad/WinStore touches.
func (lw *lowerer) elemOf(in *ir.Instr) (elemKey, error) {
	if _, ok := lw.payloadOff[in.Param]; !ok {
		return elemKey{}, fmt.Errorf("not a window parameter of %s", lw.f.Name)
	}
	if len(in.Args) == 0 {
		return elemKey{}, fmt.Errorf("missing element index")
	}
	idx, ok := ir.IsConst(in.Args[0])
	if !ok {
		return elemKey{}, fmt.Errorf("window element index must be constant")
	}
	if n := in.Param.Elems(lw.f.WindowLen); idx >= uint64(n) {
		return elemKey{}, fmt.Errorf("window element %d out of range (param %s has %d)", idx, in.Param.Nm, n)
	}
	return elemKey{in.Param, idx}, nil
}

// block emits b's non-φ instructions and its terminator. next is the
// block laid out after b (nil for the last): a trailing jump to it is
// left out.
func (lw *lowerer) block(b, next *ir.Block) error {
	for _, in := range b.Instrs {
		if in.Op == ir.Phi {
			continue // filled by moves on the incoming edges
		}
		if err := lw.instr(b, in, next); err != nil {
			return fmt.Errorf("%s: %w", in, err)
		}
		if in.Op.IsTerminator() {
			return nil
		}
	}
	return fmt.Errorf("block %s falls through", b.Name)
}

// arity is the argument count of every op an incoming kernel may hold.
var arity = map[ir.Op]int{
	ir.BinOp: 2, ir.Cmp: 2, ir.Not: 1, ir.Select: 3, ir.Convert: 1,
	ir.WinLoad: 1, ir.WinStore: 2, ir.ExtLoad: 1, ir.ExtStore: 2,
	ir.WinMeta: 0, ir.Br: 0, ir.CondBr: 1, ir.Ret: 0,
}

func (lw *lowerer) instr(b *ir.Block, in *ir.Instr, next *ir.Block) error {
	n, ok := arity[in.Op]
	if !ok {
		return fmt.Errorf("op %s does not exist on hosts", in.Op)
	}
	if len(in.Args) < n {
		return fmt.Errorf("expected %d args, got %d", n, len(in.Args))
	}
	var arg [3]int32
	for i := 0; i < n; i++ {
		if i == 0 && (in.Op == ir.WinLoad || in.Op == ir.WinStore) {
			continue // the element index, a constant elemOf consumed
		}
		s, err := lw.value(in.Args[i])
		if err != nil {
			return err
		}
		arg[i] = s
	}
	var dst int32
	if in.Op.HasResult() {
		dst = lw.newSlot()
		lw.slot[in] = dst
	}
	switch in.Op {
	case ir.BinOp:
		lw.emit(op{code: opBin, kind: in.Kind, dst: dst, a: arg[0], b: arg[1], ty: in.Ty})
	case ir.Cmp:
		lw.emit(op{code: opCmp, kind: in.Kind, dst: dst, a: arg[0], b: arg[1], ty: in.Args[0].Type()})
	case ir.Not:
		lw.emit(op{code: opNot, dst: dst, a: arg[0]})
	case ir.Select:
		lw.emit(op{code: opSelect, dst: dst, a: arg[0], b: arg[1], c: arg[2], ty: in.Ty})
	case ir.Convert:
		lw.emit(op{code: opNorm, dst: dst, a: arg[0], ty: in.Ty})
	case ir.WinLoad:
		key, _ := lw.elemOf(in) // checked when the elements were collected
		e := lw.elems[key]
		if !e.stored && types.Equal(in.Ty, key.param.ElemType()) {
			lw.slot[in] = e.slot // nothing overwrites the element: the load is its slot
			break
		}
		lw.emit(op{code: opNorm, dst: dst, a: e.slot, ty: in.Ty})
	case ir.WinStore:
		key, _ := lw.elemOf(in)
		lw.emit(op{code: opNorm, dst: lw.elems[key].slot, a: arg[1], ty: key.param.ElemType()})
	case ir.ExtLoad, ir.ExtStore:
		x, ok := lw.extIndex[in.Param]
		if !ok {
			return fmt.Errorf("not an _ext_ parameter of %s", lw.f.Name)
		}
		if in.Op == ir.ExtLoad {
			lw.emit(op{code: opExtLoad, dst: dst, a: arg[0], b: x, ty: in.Ty})
		} else {
			lw.emit(op{code: opExtStore, a: arg[0], b: x, c: arg[1], ty: in.Param.ElemType()})
		}
	case ir.WinMeta:
		lw.emit(op{code: opMeta, dst: dst, a: lw.metaSource(in.Field), ty: in.Ty})
	case ir.Br:
		if err := lw.edge(b, in.Target, next); err != nil {
			return err
		}
	case ir.CondBr:
		// if !cond goto else; true edge; else: false edge.
		jz := lw.emit(op{code: opJumpZero, a: arg[0]})
		if err := lw.edge(b, in.Target, nil); err != nil {
			return err
		}
		lw.ops[jz].b = int32(len(lw.ops))
		if err := lw.edge(b, in.Else, next); err != nil {
			return err
		}
	case ir.Ret:
		lw.emit(op{code: opRet})
	}
	return nil
}

// metaSource binds a window field name to where Run reads it.
func (lw *lowerer) metaSource(field string) int32 {
	switch field {
	case "seq":
		return metaSeq
	case "len":
		return metaLen
	case "from":
		return metaFrom
	case "sender":
		return metaSender
	case "wid":
		return metaWid
	}
	for i, uf := range lw.userFields {
		if uf == field {
			return int32(metaUser0 + i)
		}
	}
	return metaMissing
}

// edge emits the control transfer from → to: the moves that give to's φs
// their values for this edge, then a jump — left out when to is next, the
// block laid out right after. The moves run one after another although φs
// read simultaneously: the CFG is a DAG, so none of to's φs can be
// defined, let alone be another φ's argument, while control is still
// leaving from.
func (lw *lowerer) edge(from, to, next *ir.Block) error {
	pred := -1
	for i, p := range to.Preds {
		if p == from {
			pred = i
			break
		}
	}
	for _, in := range to.Instrs {
		if in.Op != ir.Phi {
			break
		}
		if pred < 0 || pred >= len(in.Args) {
			return fmt.Errorf("φ in %s has no edge from %s", to.Name, from.Name)
		}
		src, err := lw.value(in.Args[pred])
		if err != nil {
			return err
		}
		dst, _ := lw.value(in)
		lw.emit(op{code: opNorm, dst: dst, a: src, ty: in.Ty})
	}
	if to != next {
		lw.fixups = append(lw.fixups, fixup{op: lw.emit(op{code: opJump}), to: to})
	}
	return nil
}

// Run executes the plan on one window. Window elements the kernel writes
// live in the run's slots only (w.Raw is never modified); _ext_ stores
// land in w.Ext as they execute, so a failing run leaves the stores that
// preceded the failure, as the interpreter does.
func (p *Plan) Run(w *Window) error {
	if p.err != nil {
		return p.err
	}
	if len(w.Raw) != p.payloadSize {
		return fmt.Errorf("hostgen: window does not match kernel %s: payload is %d bytes, its parameters take %d", p.name, len(w.Raw), p.payloadSize)
	}
	if len(w.Ext) != len(p.extNames) {
		return fmt.Errorf("hostgen: kernel %s has %d _ext_ parameters, got %d host buffers", p.name, len(p.extNames), len(w.Ext))
	}
	var stack [stackSlots]uint64
	slots := stack[:]
	if len(p.init) > stackSlots {
		wide := p.wide.Get().(*[]uint64)
		defer p.wide.Put(wide)
		slots = *wide
	}
	slots = slots[:len(p.init)]
	copy(slots, p.init)

	for pc := 0; pc < len(p.ops); pc++ {
		o := &p.ops[pc]
		switch o.code {
		case opElem:
			var v uint64
			for _, c := range w.Raw[o.a : o.a+o.b] {
				v = v<<8 | uint64(c)
			}
			// Canonical form, as the wire decode followed by the
			// interpreter's entry normalisation produces it: truncated or
			// sign-extended to the element width; a bool is its one byte,
			// boolified.
			slots[o.dst] = o.ty.Normalize(v)
		case opMeta:
			var v uint64
			switch o.a {
			case metaSeq:
				v = w.Seq
			case metaLen:
				v = w.Len
			case metaFrom:
				v = w.From
			case metaSender:
				v = w.Sender
			case metaWid:
				v = w.Wid
			case metaMissing:
			default:
				if ui := int(o.a - metaUser0); ui < len(w.User) {
					v = w.User[ui]
				}
			}
			slots[o.dst] = o.ty.Normalize(v)
		case opBin:
			slots[o.dst] = interp.EvalBin(o.kind, slots[o.a], slots[o.b], o.ty)
		case opCmp:
			slots[o.dst] = interp.EvalCmp(o.kind, slots[o.a], slots[o.b], o.ty)
		case opNot:
			if slots[o.a] == 0 {
				slots[o.dst] = 1
			} else {
				slots[o.dst] = 0
			}
		case opSelect:
			v := slots[o.c]
			if slots[o.a] != 0 {
				v = slots[o.b]
			}
			slots[o.dst] = o.ty.Normalize(v)
		case opNorm:
			slots[o.dst] = o.ty.Normalize(slots[o.a])
		case opExtLoad:
			mem, idx := w.Ext[o.b], slots[o.a]
			if idx >= uint64(len(mem)) {
				return p.extRange(o.b, idx, len(mem))
			}
			slots[o.dst] = o.ty.Normalize(mem[idx])
		case opExtStore:
			mem, idx := w.Ext[o.b], slots[o.a]
			if idx >= uint64(len(mem)) {
				return p.extRange(o.b, idx, len(mem))
			}
			mem[idx] = o.ty.Normalize(slots[o.c])
		case opJump:
			pc = int(o.a) - 1
		case opJumpZero:
			if slots[o.a] == 0 {
				pc = int(o.b) - 1
			}
		case opRet:
			return nil
		}
	}
	return nil
}

func (p *Plan) extRange(ext int32, idx uint64, n int) error {
	return fmt.Errorf("hostgen: %s: host memory index %d out of range (%s has %d)", p.name, idx, p.extNames[ext], n)
}
