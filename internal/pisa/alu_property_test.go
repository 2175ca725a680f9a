package pisa

import (
	"testing"
	"testing/quick"

	"ncl/internal/ncl/interp"
	"ncl/internal/ncl/token"
	"ncl/internal/ncl/types"
)

// planALU runs one op through the plan's executor: a one-slot VLIW program
// over the value file {a, b, dst}, lowered the way compileStage lowers it.
// The result is normalised to (bits, dstSigned), as every plan write is.
func planALU(op string, signed bool, a, b uint64, bits int, dstSigned bool) uint64 {
	v := []uint64{a, b, 0}
	run([]instr{{op: intern(vliwOpcodes, op, signed), norm: normOf(bits, dstSigned), dst: 2, a: 0, b: 1}}, v)
	return v[2]
}

// TestALUAgreesWithInterpreter is the cross-engine semantics property:
// for arbitrary operands, widths, and signedness, the switch ALU followed
// by field normalization computes exactly what the IR interpreter's
// arithmetic computes — the oracle's string ALU and the plan's opcode ALU
// each on their own, since they share no code. This is what makes compiled
// pipelines and interpreted kernels interchangeable.
func TestALUAgreesWithInterpreter(t *testing.T) {
	ops := []struct {
		name string
		kind token.Kind
	}{
		{"add", token.ADD}, {"sub", token.SUB}, {"mul", token.MUL},
		{"div", token.DIV}, {"mod", token.MOD},
		{"and", token.AND}, {"or", token.OR}, {"xor", token.XOR},
		{"shl", token.SHL}, {"shr", token.SHR},
	}
	widths := []int{8, 16, 32, 64}

	f := func(rawA, rawB uint64, opPick, widthPick, signedPick uint8) bool {
		op := ops[int(opPick)%len(ops)]
		width := widths[int(widthPick)%len(widths)]
		signed := signedPick%2 == 0
		ty := types.IntType(width, signed)
		// Canonicalize operands the way PHV fields store them.
		a, b := ty.Normalize(rawA), ty.Normalize(rawB)

		want := interp.EvalBin(op.kind, a, b, ty)

		got, err := alu(op.name, signed, a, b, width)
		if err != nil {
			return false
		}
		return normalize(got, width, signed) == want && planALU(op.name, signed, a, b, width, signed) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// TestCmpAgreesWithInterpreter: same property for comparisons.
func TestCmpAgreesWithInterpreter(t *testing.T) {
	ops := []struct {
		name string
		kind token.Kind
	}{
		{"eq", token.EQ}, {"ne", token.NE}, {"lt", token.LT},
		{"gt", token.GT}, {"le", token.LE}, {"ge", token.GE},
	}
	widths := []int{8, 16, 32, 64}
	f := func(rawA, rawB uint64, opPick, widthPick, signedPick uint8) bool {
		op := ops[int(opPick)%len(ops)]
		width := widths[int(widthPick)%len(widths)]
		signed := signedPick%2 == 0
		ty := types.IntType(width, signed)
		a, b := ty.Normalize(rawA), ty.Normalize(rawB)

		want := interp.EvalCmp(op.kind, a, b, ty)
		got, err := alu(op.name, signed, a, b, width)
		if err != nil {
			return false
		}
		return got == want && planALU(op.name, signed, a, b, width, false) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}
