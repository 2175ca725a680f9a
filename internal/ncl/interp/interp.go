// Package interp executes IR kernels directly, one tree-walked instruction
// at a time. It is the semantic oracle of the NCL system and nothing on a
// serving path calls Exec: codegen'd PISA programs (the switch half) and
// hostgen plans (the host half, what Host.In runs) must agree with the
// interpreter on every window, which the differential tests enforce. Its
// operator semantics (EvalBin, EvalCmp, BloomBit) are shared with those
// engines so there is one definition of the arithmetic.
package interp

import (
	"fmt"
	"hash/fnv"

	"ncl/internal/ncl/ir"
	"ncl/internal/ncl/sema"
	"ncl/internal/ncl/token"
	"ncl/internal/ncl/types"
)

// State holds the mutable device state a kernel executes against: register
// arrays (switch memory), Maps (control-plane MATs), and Bloom filters.
type State struct {
	Regs     map[*ir.Global][]uint64
	Maps     map[*ir.Global]map[uint64]uint64
	Blooms   map[*ir.Global][]uint64 // bitset words
	Sketches map[*ir.Global][]uint64 // rows*cols counters, row-major
}

// NewState allocates state for every global of m, applying initializers.
func NewState(m *ir.Module) *State {
	st := &State{
		Regs:     map[*ir.Global][]uint64{},
		Maps:     map[*ir.Global]map[uint64]uint64{},
		Blooms:   map[*ir.Global][]uint64{},
		Sketches: map[*ir.Global][]uint64{},
	}
	for _, g := range m.Globals {
		st.AddGlobal(g)
	}
	return st
}

// AddGlobal allocates backing storage for one global.
func (st *State) AddGlobal(g *ir.Global) {
	switch {
	case g.IsMap():
		st.Maps[g] = map[uint64]uint64{}
	case g.IsBloom():
		words := (g.Type.Bits + 63) / 64
		st.Blooms[g] = make([]uint64, words)
	case g.IsSketch():
		st.Sketches[g] = make([]uint64, g.Type.Hashes*g.Type.Bits)
	default:
		vals := make([]uint64, g.ElemCount())
		copy(vals, g.Init)
		st.Regs[g] = vals
	}
}

// MapInsert installs a Map entry (control-plane operation, §4.3).
func (st *State) MapInsert(g *ir.Global, key, val uint64) error {
	m, ok := st.Maps[g]
	if !ok {
		return fmt.Errorf("interp: %s is not a Map in this state", g.Name)
	}
	if _, exists := m[key]; !exists && len(m) >= g.Type.Cap {
		return fmt.Errorf("interp: Map %s is full (capacity %d)", g.Name, g.Type.Cap)
	}
	m[key] = g.Type.Val.Normalize(val)
	return nil
}

// MapDelete removes a Map entry (cache eviction in Fig. 5's discussion).
func (st *State) MapDelete(g *ir.Global, key uint64) {
	if m, ok := st.Maps[g]; ok {
		delete(m, key)
	}
}

// CtrlWrite sets a control variable (host-written, switch-read-only).
func (st *State) CtrlWrite(g *ir.Global, idx int, val uint64) error {
	r, ok := st.Regs[g]
	if !ok {
		return fmt.Errorf("interp: %s has no register state", g.Name)
	}
	if idx < 0 || idx >= len(r) {
		return fmt.Errorf("interp: ctrl write to %s[%d] out of range", g.Name, idx)
	}
	r[idx] = g.ElemType().Normalize(val)
	return nil
}

// Decision is a kernel's forwarding decision (§4.1). The zero value is
// Pass with no label (the default behavior the paper specifies).
type Decision struct {
	Kind  DecisionKind
	Label string // _pass(label) target
	// Suppressed reports that the window was recognized as a duplicate of
	// one already applied (exactly-once shadow state, pisa package): its
	// state-mutating ops were skipped. The decision itself is still the
	// kernel's output over the suppressed execution, so forwarding
	// behavior stays programmable.
	Suppressed bool
}

// DecisionKind enumerates forwarding outcomes.
type DecisionKind int

const (
	Pass DecisionKind = iota
	Drop
	Reflect
	Bcast
)

func (k DecisionKind) String() string {
	switch k {
	case Pass:
		return "pass"
	case Drop:
		return "drop"
	case Reflect:
		return "reflect"
	case Bcast:
		return "bcast"
	}
	return "?"
}

// Window is one window's data and metadata as seen by a kernel. Data is
// indexed by window-parameter order (pointer params hold WindowLen
// elements, scalars one); Ext is indexed by ext-parameter order and
// references host memory directly.
//
// The Meta map is the interpreter's (and the host runtime's) metadata
// convention. The switch data plane does not build it per packet: the
// compiled PISA plan binds header and user fields to PHV slots at load
// time and executes via pisa.WindowMeta (see pisa.Switch.ExecWindowBatch).
type Window struct {
	Data [][]uint64
	Ext  [][]uint64
	Meta map[string]uint64 // seq, from, sender, wid, plus _win_ fields
	Loc  uint32            // location.id of the executing device
	// ExactlyOnce asks the executing device to consult its duplicate
	// shadow state (keyed on Meta's seq/sender/wid) before running
	// state-mutating ops; duplicates execute with those ops suppressed.
	ExactlyOnce bool
}

// NewWindow allocates a zeroed window shaped for kernel f: one data slice
// per window parameter (W elements for pointers, 1 for scalars) and empty
// metadata. Ext slices must be bound by the caller for incoming kernels.
func NewWindow(f *ir.Func) *Window {
	w := &Window{Meta: map[string]uint64{}}
	for _, p := range f.WindowSig() {
		w.Data = append(w.Data, make([]uint64, p.Elems(f.WindowLen)))
	}
	return w
}

// Exec runs kernel f against st and win, returning the forwarding
// decision. Window data is modified in place; Ext slices reference host
// memory and are written directly.
func Exec(f *ir.Func, st *State, win *Window) (Decision, error) {
	// Canonicalize window data to each parameter's element width, exactly
	// as the wire (NCP encoding) and the PISA parser do — values wider
	// than the element type cannot exist on a real packet.
	for pi, p := range f.WindowSig() {
		if pi >= len(win.Data) {
			break
		}
		et := p.ElemType()
		for i := range win.Data[pi] {
			v := win.Data[pi][i]
			if et.Kind == types.Bool {
				// Wire semantics: a bool is one byte; truncate first, then
				// boolify (0x100 arrives as byte 0, i.e. false).
				v &= 0xFF
			}
			win.Data[pi][i] = et.Normalize(v)
		}
	}
	ex := &executor{f: f, st: st, win: win, vals: map[*ir.Instr]uint64{}}
	return ex.run()
}

type executor struct {
	f    *ir.Func
	st   *State
	win  *Window
	vals map[*ir.Instr]uint64
	dec  Decision
}

// winIndex maps a param to its index among window (non-ext) params, and
// ext params to their index among ext params.
func paramSlot(f *ir.Func, p *ir.Param) int {
	slot := 0
	for _, q := range f.Params {
		if q == p {
			return slot
		}
		if q.Ext == p.Ext {
			slot++
		}
	}
	return -1
}

func (ex *executor) run() (Decision, error) {
	var prev *ir.Block
	blk := ex.f.Entry()
	steps := 0
	for {
		steps++
		if steps > 1_000_000 {
			return ex.dec, fmt.Errorf("interp: runaway execution in %s", ex.f.Name)
		}
		// φs evaluate simultaneously from the incoming edge.
		phiVals := map[*ir.Instr]uint64{}
		for _, in := range blk.Instrs {
			if in.Op != ir.Phi {
				break
			}
			idx := -1
			for i, p := range blk.Preds {
				if p == prev {
					idx = i
					break
				}
			}
			if idx < 0 {
				return ex.dec, fmt.Errorf("interp: φ in %s has no edge from %v", blk.Name, prevName(prev))
			}
			v, err := ex.value(in.Args[idx])
			if err != nil {
				return ex.dec, err
			}
			phiVals[in] = in.Ty.Normalize(v)
		}
		for in, v := range phiVals {
			ex.vals[in] = v
		}

		var next *ir.Block
		for _, in := range blk.Instrs {
			if in.Op == ir.Phi {
				continue
			}
			n, err := ex.step(in)
			if err != nil {
				return ex.dec, fmt.Errorf("interp: %s: %w", in, err)
			}
			if in.Op == ir.Ret {
				return ex.dec, nil
			}
			if n != nil {
				next = n
			}
		}
		if next == nil {
			return ex.dec, fmt.Errorf("interp: block %s fell through", blk.Name)
		}
		prev, blk = blk, next
	}
}

func prevName(b *ir.Block) string {
	if b == nil {
		return "<entry>"
	}
	return b.Name
}

func (ex *executor) value(v ir.Value) (uint64, error) {
	switch v := v.(type) {
	case *ir.Const:
		return v.Val, nil
	case *ir.Instr:
		val, ok := ex.vals[v]
		if !ok {
			return 0, fmt.Errorf("use of unevaluated value %s", v.Name())
		}
		return val, nil
	case *ir.Param:
		return 0, fmt.Errorf("raw parameter %s has no value", v.Name())
	}
	return 0, fmt.Errorf("unknown value kind %T", v)
}

// step executes one instruction, returning the next block for terminators.
func (ex *executor) step(in *ir.Instr) (*ir.Block, error) {
	set := func(v uint64) {
		ex.vals[in] = in.Ty.Normalize(v)
	}
	switch in.Op {
	case ir.BinOp:
		x, err := ex.value(in.Args[0])
		if err != nil {
			return nil, err
		}
		y, err := ex.value(in.Args[1])
		if err != nil {
			return nil, err
		}
		set(EvalBin(in.Kind, x, y, in.Ty))
	case ir.Cmp:
		x, err := ex.value(in.Args[0])
		if err != nil {
			return nil, err
		}
		y, err := ex.value(in.Args[1])
		if err != nil {
			return nil, err
		}
		set(EvalCmp(in.Kind, x, y, in.Args[0].Type()))
	case ir.Not:
		x, err := ex.value(in.Args[0])
		if err != nil {
			return nil, err
		}
		if x == 0 {
			set(1)
		} else {
			set(0)
		}
	case ir.Select:
		c, err := ex.value(in.Args[0])
		if err != nil {
			return nil, err
		}
		var v uint64
		if c != 0 {
			v, err = ex.value(in.Args[1])
		} else {
			v, err = ex.value(in.Args[2])
		}
		if err != nil {
			return nil, err
		}
		set(v)
	case ir.Convert:
		x, err := ex.value(in.Args[0])
		if err != nil {
			return nil, err
		}
		set(x)
	case ir.WinLoad:
		idx, err := ex.value(in.Args[0])
		if err != nil {
			return nil, err
		}
		slot := paramSlot(ex.f, in.Param)
		if slot < 0 || slot >= len(ex.win.Data) {
			return nil, fmt.Errorf("window param %s not bound", in.Param.Nm)
		}
		d := ex.win.Data[slot]
		if idx >= uint64(len(d)) {
			return nil, fmt.Errorf("window element %d out of range (param %s has %d)", idx, in.Param.Nm, len(d))
		}
		set(d[idx])
	case ir.WinStore:
		idx, err := ex.value(in.Args[0])
		if err != nil {
			return nil, err
		}
		v, err := ex.value(in.Args[1])
		if err != nil {
			return nil, err
		}
		slot := paramSlot(ex.f, in.Param)
		if slot < 0 || slot >= len(ex.win.Data) {
			return nil, fmt.Errorf("window param %s not bound", in.Param.Nm)
		}
		d := ex.win.Data[slot]
		if idx >= uint64(len(d)) {
			return nil, fmt.Errorf("window element %d out of range", idx)
		}
		d[idx] = in.Param.ElemType().Normalize(v)
	case ir.ExtLoad:
		idx, err := ex.value(in.Args[0])
		if err != nil {
			return nil, err
		}
		slot := paramSlot(ex.f, in.Param)
		if slot < 0 || slot >= len(ex.win.Ext) {
			return nil, fmt.Errorf("ext param %s not bound", in.Param.Nm)
		}
		d := ex.win.Ext[slot]
		if idx >= uint64(len(d)) {
			return nil, fmt.Errorf("host memory index %d out of range (%s has %d)", idx, in.Param.Nm, len(d))
		}
		set(d[idx])
	case ir.ExtStore:
		idx, err := ex.value(in.Args[0])
		if err != nil {
			return nil, err
		}
		v, err := ex.value(in.Args[1])
		if err != nil {
			return nil, err
		}
		slot := paramSlot(ex.f, in.Param)
		if slot < 0 || slot >= len(ex.win.Ext) {
			return nil, fmt.Errorf("ext param %s not bound", in.Param.Nm)
		}
		d := ex.win.Ext[slot]
		if idx >= uint64(len(d)) {
			return nil, fmt.Errorf("host memory index %d out of range (%s has %d)", idx, in.Param.Nm, len(d))
		}
		d[idx] = in.Param.ElemType().Normalize(v)
	case ir.RegLoad:
		idx, err := ex.value(in.Args[0])
		if err != nil {
			return nil, err
		}
		r, ok := ex.st.Regs[in.Global]
		if !ok {
			return nil, fmt.Errorf("global %s not in state", in.Global.Name)
		}
		if idx >= uint64(len(r)) {
			return nil, fmt.Errorf("register index %d out of range (%s has %d)", idx, in.Global.Name, len(r))
		}
		set(r[idx])
	case ir.RegStore:
		idx, err := ex.value(in.Args[0])
		if err != nil {
			return nil, err
		}
		v, err := ex.value(in.Args[1])
		if err != nil {
			return nil, err
		}
		r, ok := ex.st.Regs[in.Global]
		if !ok {
			return nil, fmt.Errorf("global %s not in state", in.Global.Name)
		}
		if idx >= uint64(len(r)) {
			return nil, fmt.Errorf("register index %d out of range (%s has %d)", idx, in.Global.Name, len(r))
		}
		r[idx] = in.Global.ElemType().Normalize(v)
	case ir.MapFound:
		key, err := ex.value(in.Args[0])
		if err != nil {
			return nil, err
		}
		_, found := ex.st.Maps[in.Global][key]
		set(boolVal(found))
	case ir.MapValue:
		key, err := ex.value(in.Args[0])
		if err != nil {
			return nil, err
		}
		set(ex.st.Maps[in.Global][key]) // zero when absent; guarded by MapFound
	case ir.BloomAdd:
		key, err := ex.value(in.Args[0])
		if err != nil {
			return nil, err
		}
		bits := ex.st.Blooms[in.Global]
		for h := 0; h < in.Global.Type.Hashes; h++ {
			b := BloomBit(key, h, in.Global.Type.Bits)
			bits[b/64] |= 1 << (b % 64)
		}
	case ir.BloomTest:
		key, err := ex.value(in.Args[0])
		if err != nil {
			return nil, err
		}
		bits := ex.st.Blooms[in.Global]
		all := true
		for h := 0; h < in.Global.Type.Hashes; h++ {
			b := BloomBit(key, h, in.Global.Type.Bits)
			if bits[b/64]&(1<<(b%64)) == 0 {
				all = false
				break
			}
		}
		set(boolVal(all))
	case ir.SketchAdd:
		key, err := ex.value(in.Args[0])
		if err != nil {
			return nil, err
		}
		amt, err := ex.value(in.Args[1])
		if err != nil {
			return nil, err
		}
		rows, cols := in.Global.Type.Hashes, in.Global.Type.Bits
		sk := ex.st.Sketches[in.Global]
		for r := 0; r < rows; r++ {
			col := BloomBit(key, r, cols)
			idx := r*cols + col
			sk[idx] = types.U32.Normalize(sk[idx] + amt)
		}
	case ir.SketchEst:
		key, err := ex.value(in.Args[0])
		if err != nil {
			return nil, err
		}
		rows, cols := in.Global.Type.Hashes, in.Global.Type.Bits
		sk := ex.st.Sketches[in.Global]
		est := ^uint64(0)
		for r := 0; r < rows; r++ {
			v := sk[r*cols+BloomBit(key, r, cols)]
			if v < est {
				est = v
			}
		}
		set(est)
	case ir.WinMeta:
		set(ex.win.Meta[in.Field])
	case ir.LocMeta:
		set(uint64(ex.win.Loc))
	case ir.Fwd:
		switch in.Field {
		case "pass":
			ex.dec = Decision{Kind: Pass, Label: in.Label}
		case "drop":
			ex.dec = Decision{Kind: Drop}
		case "reflect":
			ex.dec = Decision{Kind: Reflect}
		case "bcast":
			ex.dec = Decision{Kind: Bcast}
		}
	case ir.Br:
		return in.Target, nil
	case ir.CondBr:
		c, err := ex.value(in.Args[0])
		if err != nil {
			return nil, err
		}
		if c != 0 {
			return in.Target, nil
		}
		return in.Else, nil
	case ir.Ret:
		return nil, nil
	default:
		return nil, fmt.Errorf("unexecutable op %s", in.Op)
	}
	return nil, nil
}

func boolVal(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// EvalBin evaluates a binary arithmetic op with NCL runtime semantics:
// wraparound arithmetic, division/modulo by zero yields 0 (hardware-like,
// documented in DESIGN.md §5), shifts masked to the width.
func EvalBin(kind token.Kind, x, y uint64, t *types.Type) uint64 {
	switch kind {
	case token.DIV:
		if y == 0 {
			return 0
		}
	case token.MOD:
		if y == 0 {
			return 0
		}
	}
	if v, ok := sema.EvalArith(kind, x, y, t); ok {
		return v
	}
	return 0
}

// EvalCmp evaluates a comparison over canonical values typed by argTy.
func EvalCmp(kind token.Kind, x, y uint64, argTy *types.Type) uint64 {
	signed := argTy.Kind == types.Int && argTy.Signed
	var b bool
	if signed {
		sx, sy := int64(x), int64(y)
		switch kind {
		case token.EQ:
			b = sx == sy
		case token.NE:
			b = sx != sy
		case token.LT:
			b = sx < sy
		case token.GT:
			b = sx > sy
		case token.LE:
			b = sx <= sy
		case token.GE:
			b = sx >= sy
		}
	} else {
		switch kind {
		case token.EQ:
			b = x == y
		case token.NE:
			b = x != y
		case token.LT:
			b = x < y
		case token.GT:
			b = x > y
		case token.LE:
			b = x <= y
		case token.GE:
			b = x >= y
		}
	}
	return boolVal(b)
}

// BloomBit computes the bit index for hash round h of key, shared by the
// interpreter and the PISA simulator so Bloom semantics agree everywhere.
func BloomBit(key uint64, h int, bits int) int {
	f := fnv.New64a()
	var buf [9]byte
	buf[0] = byte(h)
	for i := 0; i < 8; i++ {
		buf[1+i] = byte(key >> (8 * i))
	}
	f.Write(buf[:])
	return int(f.Sum64() % uint64(bits))
}
