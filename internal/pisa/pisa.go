// Package pisa implements a software model of a protocol-independent
// switch architecture (Fig. 1a of the paper): a programmable parser
// feeding a packet header vector (PHV) through a pipeline of match-action
// stages with per-stage VLIW action units, match tables, and stateful
// ALUs over register arrays, followed by a deparser.
//
// The model enforces the architectural constraints that make PISA
// compilation hard, so that nclc's code generator faces the same shape of
// problem as a real backend:
//
//   - ops within a stage execute in parallel against the stage's input
//     PHV snapshot: a value producer and its consumer must sit in
//     different stages;
//   - each PHV field has at most one writer per stage;
//   - a register array lives in exactly one stage and supports one
//     stateful-ALU access per pipeline pass (recirculation passes revisit
//     the same stage);
//   - stage count, per-stage VLIW width, table count, stateful-ALU count,
//     PHV bits, and recirculation depth are all bounded by the target.
//
// The simulator plays the role of the proprietary P4 backend+ASIC pair
// the paper depends on (§5): it is the accept/reject oracle and the
// execution engine.
package pisa

import (
	"fmt"
)

// TargetConfig describes one PISA target's resources. The defaults are
// loosely Tofino-1-shaped without reproducing any proprietary datasheet.
type TargetConfig struct {
	Name            string
	Stages          int // match-action stages per pass
	PHVBits         int // total PHV capacity in bits
	ActionsPerStage int // VLIW action slots per stage
	SALUsPerStage   int // stateful ALUs per stage
	TablesPerStage  int // match tables per stage
	MaxSALUOps      int // micro-ops per stateful-ALU program
	MaxRecirc       int // extra pipeline passes allowed
	RegBitsPerStage int // register-array SRAM bits per stage
}

// DefaultTarget returns the default simulation target.
func DefaultTarget() TargetConfig {
	return TargetConfig{
		Name:            "pisa-sim",
		Stages:          12,
		PHVBits:         8 * 4096,
		ActionsPerStage: 224,
		SALUsPerStage:   4,
		TablesPerStage:  16,
		MaxSALUOps:      6,
		MaxRecirc:       3,
		RegBitsPerStage: 8 * 1024 * 1024,
	}
}

// FieldRef indexes a PHV field within a compiled kernel.
type FieldRef int

// NoField marks an unused field slot.
const NoField FieldRef = -1

// Field declares one PHV field.
type Field struct {
	Name   string
	Bits   int
	Signed bool
}

// Standard metadata field names used by every compiled kernel.
const (
	FieldFwd      = "$fwd"      // forwarding decision (0 pass, 1 drop, 2 reflect, 3 bcast)
	FieldFwdLabel = "$fwdlabel" // index+1 into Program.Labels for _pass(label); 0 = none
	FieldSeq      = "$seq"
	FieldFrom     = "$from"
	FieldSender   = "$sender"
	FieldWid      = "$wid"
	FieldLoc      = "$loc"
)

// Operand is a VLIW/SALU operand: a PHV field or an immediate.
type Operand struct {
	IsConst bool
	Field   FieldRef
	Const   uint64
}

// FieldOperand returns a field operand.
func FieldOperand(f FieldRef) Operand { return Operand{Field: f} }

// ConstOperand returns an immediate operand.
func ConstOperand(v uint64) Operand { return Operand{IsConst: true, Const: v} }

// Pred predicates an op on a PHV bool field.
type Pred struct {
	Field  FieldRef
	Negate bool
}

// ActionOp is one VLIW action slot: Dst = Op(A, B[, C]). All operands read
// the stage's input snapshot. Ops: mov, add, sub, mul, div, mod, and, or,
// xor, shl, shr, not, eq, ne, lt, gt, le, ge, csel (C ? A : B), hash
// (bloom/bucket hashing: Dst = BloomBit(A, HashSeed, HashBits)). Validate
// rejects any other name.
type ActionOp struct {
	Op       string
	Signed   bool // signed variants of div/mod/shr/lt/gt/le/ge
	Dst      FieldRef
	A, B, C  Operand
	HashSeed int
	HashBits int
}

// MSlot addresses a slot inside a stateful-ALU micro-program.
type MSlot int

const (
	MReg MSlot = iota // the register element (read: old value, write: new value)
	MOut              // the output forwarded to the PHV (via SALU.Out)
	MTmp0
	MTmp1
	MTmp2
	MTmp3
)

// MOperand is a micro-op operand.
type MOperand struct {
	Kind  MOperandKind
	Slot  MSlot
	Field FieldRef
	Const uint64
}

// MOperandKind enumerates micro-operand kinds.
type MOperandKind int

const (
	MFromSlot MOperandKind = iota
	MFromField
	MFromConst
)

// SlotOperand reads a micro slot.
func SlotOperand(s MSlot) MOperand { return MOperand{Kind: MFromSlot, Slot: s} }

// PhvOperand reads a PHV field captured at stage entry.
func PhvOperand(f FieldRef) MOperand { return MOperand{Kind: MFromField, Field: f} }

// ImmOperand is an immediate.
func ImmOperand(v uint64) MOperand { return MOperand{Kind: MFromConst, Const: v} }

// MicroOp is one stateful-ALU micro-instruction: Dst = Op(A, B). Ops as in
// ActionOp (minus not/hash/csel) plus "sel" (Dst = A if tmp-cond else B,
// with the condition in C).
type MicroOp struct {
	Op      string
	Signed  bool
	Dst     MSlot
	A, B, C MOperand
}

// SALU is one stateful-ALU access: an atomic read-modify-write of one
// register-array element per pass.
type SALU struct {
	Global string // register array name
	Index  Operand
	Pred   *Pred
	Prog   []MicroOp
	Out    FieldRef // PHV destination for the MOut slot; NoField if unused
}

// Table is an exact-match table (MAT). Entries are installed by the
// control plane; a hit writes the value into Val and 1 into Hit.
type Table struct {
	Name string
	Key  Operand
	Hit  FieldRef // NoField if unused
	Val  FieldRef // NoField if unused
}

// Stage is one match-action stage.
type Stage struct {
	Tables []*Table
	SALUs  []*SALU
	VLIW   []ActionOp
}

// RegisterDef declares a register array and its home stage.
type RegisterDef struct {
	Name   string
	Elems  int
	Bits   int
	Signed bool
	Init   []uint64
	Stage  int // pinned stage index
	Ctrl   bool
}

// ParamLayout describes one window parameter's PHV data fields.
type ParamLayout struct {
	Name   string
	Elems  int
	Bits   int
	Signed bool
	Bool   bool       // canonicalize ingested bytes to 0/1 (C bool semantics)
	Fields []FieldRef // len == Elems (Load checks)
}

// Kernel is one compiled outgoing kernel.
type Kernel struct {
	Name      string
	ID        uint32
	WindowLen int
	Fields    []Field
	Params    []ParamLayout
	WinMeta   map[string]FieldRef // builtin + _win_ fields by name
	Passes    [][]*Stage          // pass 0 plus recirculation passes
	// Labels, when non-nil, overrides Program.Labels for this kernel's
	// $fwdlabel resolution. Merged multi-tenant programs set it so each
	// tenant's kernels resolve label constants against the tenant's own
	// label space instead of the (meaningless) merged one.
	Labels []string
	// UserFields, when non-nil, overrides the program-level NCP wire
	// order for this kernel's WinMeta binding. Merged multi-tenant
	// programs set it because each tenant's hosts serialize their own
	// module's sorted user-field list.
	UserFields []string
}

// FieldByName returns the field ref with the given name, or NoField.
func (k *Kernel) FieldByName(name string) FieldRef {
	for i, f := range k.Fields {
		if f.Name == name {
			return FieldRef(i)
		}
	}
	return NoField
}

// Program is a loadable switch program: all kernels of one location plus
// the register/table declarations they share.
type Program struct {
	Name      string
	Loc       string
	LocID     uint32
	Labels    []string // _pass(label) targets, indexed by $fwdlabel-1
	Registers []RegisterDef
	Tables    []string // Map-backed table names (entries from control plane)
	Kernels   []*Kernel
	// UserFields lists the module's user _win_ field names in NCP wire
	// order (sorted). Switch nodes use it to bind packet user values to
	// PHV meta slots; it must cover every field on the wire even when no
	// kernel at this location reads it. Optional for hand-built programs
	// (the plan falls back to the union of kernel WinMeta names).
	UserFields []string
	// Tenants records, on a merged multi-tenant program, the tenant
	// slices in slot order (see MergePrograms). nil on single-tenant
	// programs.
	Tenants []TenantInfo
}

// TenantInfo names one tenant slice of a merged program.
type TenantInfo struct {
	ID       string
	Slot     int // kernel-id tag, 1-based; 0 means untenanted
	Priority int
}

// KernelByID returns the kernel with the given id, or nil.
func (p *Program) KernelByID(id uint32) *Kernel {
	for _, k := range p.Kernels {
		if k.ID == id {
			return k
		}
	}
	return nil
}

// KernelByName returns the kernel with the given name, or nil.
func (p *Program) KernelByName(name string) *Kernel {
	for _, k := range p.Kernels {
		if k.Name == name {
			return k
		}
	}
	return nil
}

// registerByName finds a register definition.
func (p *Program) registerByName(name string) *RegisterDef {
	for i := range p.Registers {
		if p.Registers[i].Name == name {
			return &p.Registers[i]
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Load-time validation

// Validate checks the program against the target's resources and the PISA
// structural rules. A program that validates is guaranteed to execute
// without structural errors (only data-dependent traps like out-of-range
// indices remain).
func (p *Program) Validate(t TargetConfig) error {
	regStage := map[string]int{}
	regBitsPerStage := map[int]int{}
	for _, r := range p.Registers {
		if r.Elems <= 0 || r.Bits <= 0 || r.Bits > 64 {
			return fmt.Errorf("pisa: register %s has invalid shape", r.Name)
		}
		if _, dup := regStage[r.Name]; dup {
			return fmt.Errorf("pisa: duplicate register %s", r.Name)
		}
		if r.Stage < 0 || r.Stage >= t.Stages {
			return fmt.Errorf("pisa: register %s pinned to stage %d outside pipeline (%d stages)", r.Name, r.Stage, t.Stages)
		}
		regStage[r.Name] = r.Stage
		regBitsPerStage[r.Stage] += r.Elems * r.Bits
	}
	for st, bits := range regBitsPerStage {
		if bits > t.RegBitsPerStage {
			return fmt.Errorf("pisa: stage %d register SRAM over budget: %d > %d bits", st, bits, t.RegBitsPerStage)
		}
	}
	for _, k := range p.Kernels {
		if err := p.validateKernel(k, t, regStage); err != nil {
			return fmt.Errorf("pisa: kernel %s: %w", k.Name, err)
		}
	}
	return nil
}

func (p *Program) validateKernel(k *Kernel, t TargetConfig, regStage map[string]int) error {
	phvBits := 0
	for _, f := range k.Fields {
		if f.Bits <= 0 || f.Bits > 64 {
			return fmt.Errorf("field %s has invalid width %d", f.Name, f.Bits)
		}
		phvBits += f.Bits
	}
	if phvBits > t.PHVBits {
		return fmt.Errorf("PHV needs %d bits, target has %d", phvBits, t.PHVBits)
	}
	if len(k.Passes) == 0 {
		return fmt.Errorf("no pipeline passes")
	}
	if len(k.Passes) > t.MaxRecirc+1 {
		return fmt.Errorf("%d passes exceed recirculation budget (%d passes max)", len(k.Passes), t.MaxRecirc+1)
	}
	checkRef := func(r FieldRef, what string) error {
		if r == NoField {
			return nil
		}
		if int(r) < 0 || int(r) >= len(k.Fields) {
			return fmt.Errorf("%s references field %d of %d", what, r, len(k.Fields))
		}
		return nil
	}
	checkOperand := func(o Operand, what string) error {
		if o.IsConst {
			return nil
		}
		return checkRef(o.Field, what)
	}
	for pi, pass := range k.Passes {
		if len(pass) > t.Stages {
			return fmt.Errorf("pass %d uses %d stages, target has %d", pi, len(pass), t.Stages)
		}
		arraysThisPass := map[string]bool{}
		for si, st := range pass {
			if len(st.VLIW) > t.ActionsPerStage {
				return fmt.Errorf("pass %d stage %d: %d VLIW ops exceed %d", pi, si, len(st.VLIW), t.ActionsPerStage)
			}
			if len(st.SALUs) > t.SALUsPerStage {
				return fmt.Errorf("pass %d stage %d: %d stateful ALUs exceed %d", pi, si, len(st.SALUs), t.SALUsPerStage)
			}
			if len(st.Tables) > t.TablesPerStage {
				return fmt.Errorf("pass %d stage %d: %d tables exceed %d", pi, si, len(st.Tables), t.TablesPerStage)
			}
			writers := map[FieldRef]string{}
			noteWrite := func(f FieldRef, what string) error {
				if f == NoField {
					return nil
				}
				if prev, dup := writers[f]; dup {
					return fmt.Errorf("pass %d stage %d: field %s written by both %s and %s",
						pi, si, k.Fields[f].Name, prev, what)
				}
				writers[f] = what
				return nil
			}
			for _, tb := range st.Tables {
				if err := checkOperand(tb.Key, "table "+tb.Name+" key"); err != nil {
					return err
				}
				if err := checkRef(tb.Hit, "table "+tb.Name+" hit"); err != nil {
					return err
				}
				if err := checkRef(tb.Val, "table "+tb.Name+" val"); err != nil {
					return err
				}
				if err := noteWrite(tb.Hit, "table "+tb.Name); err != nil {
					return err
				}
				if err := noteWrite(tb.Val, "table "+tb.Name); err != nil {
					return err
				}
			}
			for _, sa := range st.SALUs {
				home, known := regStage[sa.Global]
				if !known {
					return fmt.Errorf("stateful op on undeclared register %s", sa.Global)
				}
				if home != si {
					return fmt.Errorf("register %s lives in stage %d but is accessed in stage %d (arrays are pinned)", sa.Global, home, si)
				}
				if arraysThisPass[sa.Global] {
					return fmt.Errorf("pass %d: register %s accessed twice in one pass (one stateful access per array per pass)", pi, sa.Global)
				}
				arraysThisPass[sa.Global] = true
				if len(sa.Prog) > t.MaxSALUOps {
					return fmt.Errorf("stateful program on %s has %d micro-ops, max %d", sa.Global, len(sa.Prog), t.MaxSALUOps)
				}
				if err := checkOperand(sa.Index, "salu "+sa.Global+" index"); err != nil {
					return err
				}
				if sa.Pred != nil {
					if err := checkRef(sa.Pred.Field, "salu pred"); err != nil {
						return err
					}
				}
				for _, mo := range sa.Prog {
					if _, ok := microOpcodes[mo.Op]; !ok {
						return fmt.Errorf("salu %s: unknown micro-op %q", sa.Global, mo.Op)
					}
					if mo.Dst < 0 || mo.Dst >= numMSlots {
						return fmt.Errorf("salu %s micro-op writes slot %d of %d", sa.Global, mo.Dst, numMSlots)
					}
					for _, op := range []MOperand{mo.A, mo.B, mo.C} {
						if op.Kind == MFromSlot && (op.Slot < 0 || op.Slot >= numMSlots) {
							return fmt.Errorf("salu %s micro-op reads slot %d of %d", sa.Global, op.Slot, numMSlots)
						}
						if op.Kind == MFromField {
							if err := checkRef(op.Field, "salu operand"); err != nil {
								return err
							}
						}
					}
				}
				if err := checkRef(sa.Out, "salu "+sa.Global+" out"); err != nil {
					return err
				}
				if err := noteWrite(sa.Out, "salu "+sa.Global); err != nil {
					return err
				}
			}
			for _, op := range st.VLIW {
				if _, ok := vliwOpcodes[op.Op]; !ok {
					return fmt.Errorf("pass %d stage %d: unknown VLIW op %q", pi, si, op.Op)
				}
				if op.Op == "hash" && op.HashBits <= 0 {
					return fmt.Errorf("pass %d stage %d: hash into %d buckets", pi, si, op.HashBits)
				}
				if op.Dst == NoField {
					return fmt.Errorf("pass %d stage %d: vliw %s has no destination", pi, si, op.Op)
				}
				if err := checkRef(op.Dst, "vliw dst"); err != nil {
					return err
				}
				for _, o := range []Operand{op.A, op.B, op.C} {
					if err := checkOperand(o, "vliw operand"); err != nil {
						return err
					}
				}
				if err := noteWrite(op.Dst, "vliw "+op.Op); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
