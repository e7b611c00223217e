package gpu

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"cudaadvisor/internal/ir"
)

// aluCases lists one function per row-wise operation, as a parameter
// list and the instruction under test (always the function's first). dst
// is %d unless the instruction overwrites an operand.
func aluCases() [][2]string {
	var cases [][2]string
	add := func(params, instr string) { cases = append(cases, [2]string{params, instr}) }
	for _, ty := range []string{"i32", "i64"} {
		ab := fmt.Sprintf("%%a: %s, %%b: %s", ty, ty)
		for _, op := range []string{"add", "sub", "mul", "sdiv", "srem", "and", "or", "xor", "shl", "lshr", "ashr", "smin", "smax"} {
			add(ab, fmt.Sprintf("%%d = %s %s %%a, %%b", op, ty))
			add(ab, fmt.Sprintf("%%d = %s %s %%a, 37", op, ty))  // constant row; shift count ≥ 32
			add(ab, fmt.Sprintf("%%d = %s %s -5, %%b", op, ty))  // constant on the left
			add(ab, fmt.Sprintf("%%a = %s %s %%a, %%b", op, ty)) // dst aliases an operand
		}
		add(ab, fmt.Sprintf("%%d = mov %s %%a", ty))
		add(ab, fmt.Sprintf("%%d = mov %s 7", ty))
		add("%p: i1, "+ab, fmt.Sprintf("%%d = select %s %%p, %%a, %%b", ty))
		add("%p: ptr, %i: "+ty, "%d = gep %p, %i, 12")
		add("%p: ptr, %i: "+ty, "%d = gep %p, -3, 8")
	}
	for _, ty := range []string{"i32", "i64", "ptr"} {
		for _, pred := range []string{"eq", "ne", "lt", "le", "gt", "ge"} {
			add(fmt.Sprintf("%%a: %s, %%b: %s", ty, ty), fmt.Sprintf("%%d = icmp %s %s %%a, %%b", pred, ty))
		}
	}
	ff := "%a: f32, %b: f32"
	for _, pred := range []string{"eq", "ne", "lt", "le", "gt", "ge"} {
		add(ff, fmt.Sprintf("%%d = fcmp %s f32 %%a, %%b", pred))
		add(ff, fmt.Sprintf("%%d = fcmp %s f32 %%a, 0.0", pred))
	}
	for _, op := range []string{"fadd", "fsub", "fmul", "fdiv", "fmin", "fmax"} {
		add(ff, fmt.Sprintf("%%d = %s f32 %%a, %%b", op))
		add(ff, fmt.Sprintf("%%a = %s f32 %%a, 0.5", op))
	}
	for _, op := range []string{"fneg", "fabs", "fsqrt", "fexp", "flog"} {
		add(ff, fmt.Sprintf("%%d = %s f32 %%a", op))
	}
	add("%p: i1, "+ff, "%d = select f32 %p, %a, %b")
	add(ff, "%d = mov f32 %a")
	add("%a: i32", "%d = sitofp %a")
	add("%a: f32", "%d = fptosi %a")
	add("%a: i32", "%d = sext %a")
	add("%a: i64", "%d = trunc %a")
	add("%a: i1", "%d = zext %a")
	return cases
}

// edgeBits are operand patterns the random draw would rarely hit: integer
// extremes and wrap points, shift counts at and past the width, I32
// values with garbage above bit 31, and the float specials.
var edgeBits = []uint64{
	0, 1, 2, 31, 32, 33, 63, 64, 65, 255,
	math.MaxInt32, 1 << 31, math.MaxUint32, 1 << 32, math.MaxInt64, 1 << 63, math.MaxUint64,
	0xdeadbeef_00000000, 0xdeadbeef_ffffffff, 0xdeadbeef_80000000,
	uint64(math.Float32bits(float32(math.Copysign(0, -1)))),
	uint64(math.Float32bits(float32(math.Inf(1)))), uint64(math.Float32bits(float32(math.Inf(-1)))),
	uint64(math.Float32bits(float32(math.NaN()))), 0x7fa00001, 0xffc00000, // NaNs with payloads
	uint64(math.Float32bits(1)), uint64(math.Float32bits(-1.5)), 1, // a denormal
	uint64(math.Float32bits(3e9)), uint64(math.Float32bits(-3e9)), // beyond int32 for fptosi
}

func randBits(r *rand.Rand) uint64 {
	switch r.Intn(4) {
	case 0:
		return edgeBits[r.Intn(len(edgeBits))]
	case 1:
		return uint64(r.Int63n(64)) - 32 // small signed values
	case 2:
		return uint64(math.Float32bits(float32(r.NormFloat64() * 100)))
	}
	return r.Uint64()
}

// evalScalar is the reference: the scalar evaluator package ir shares
// with the constant folder, applied to one lane's operand values.
func evalScalar(in *ir.Instr, v []uint64) (uint64, error) {
	switch op := in.Op; {
	case op.IsIntBinary():
		return ir.EvalIntBin(op, in.Type, v[0], v[1])
	case op.IsFloatBinary():
		return ir.EvalFloatBin(op, v[0], v[1])
	case op.IsFloatUnary():
		return ir.EvalFloatUn(op, v[0])
	case op == ir.OpICmp:
		return ir.EvalICmp(in.Pred, in.Type, v[0], v[1])
	case op == ir.OpFCmp:
		return ir.EvalFCmp(in.Pred, v[0], v[1])
	case op == ir.OpSelect:
		if v[0]&1 == 1 {
			return v[1], nil
		}
		return v[2], nil
	case op == ir.OpMov:
		return v[0], nil
	case op == ir.OpGEP:
		idx := int64(v[1])
		if in.Args[1].Type == ir.I32 {
			idx = int64(int32(uint32(v[1])))
		}
		return uint64(int64(v[0]) + idx*in.Scale), nil
	}
	return ir.EvalCvt(in.Op, v[0])
}

// TestALUMatchesScalarEvaluator: every row-wise kernel, reached through
// the decoder exactly as step reaches it, equals the scalar evaluator
// lane by lane over random operands and masks; lanes outside the mask are
// not written; and a zero divisor is reported at the first active lane
// that has one.
func TestALUMatchesScalarEvaluator(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	masks := []uint32{FullMask, 1, 1 << 31, 0xAAAAAAAA, 0x0000FFFF}
	for _, tc := range aluCases() {
		src := fmt.Sprintf("module alu\nfunc @f(%s): i32 {\nentry:\n  %s\n  ret 0\n}\n", tc[0], tc[1])
		m := parseKernel(t, src)
		df := decodeModule(m).funcs[m.Func("f")]
		di := &df.code[0]
		in := di.in
		if di.kind >= aluEnd {
			t.Fatalf("%s: decoded to non-ALU kind %d", tc[1], di.kind)
		}
		canFault := strings.Contains(tc[1], "sdiv") || strings.Contains(tc[1], "srem")
		for trial := 0; trial < 40; trial++ {
			mask := r.Uint32()
			if trial < len(masks) {
				mask = masks[trial]
			}
			fr := new(framePool).newFrame(df, mask, -1)
			for i := range fr.regs {
				fr.regs[i] = randBits(r)
			}
			before := append([]uint64(nil), fr.regs...)
			var tmp row
			got := alu(di.kind, fr.row(di.dst), fr.row(di.a), fr.row(di.b), fr.row(di.c), mask, di.imm, &tmp)

			wantFault := -1
			for lane := 0; lane < WarpSize && wantFault < 0; lane++ {
				vals := make([]uint64, len(in.Args))
				for i, a := range in.Args {
					vals[i] = ir.ConstBits(a)
					if a.Kind == ir.KReg {
						vals[i] = before[a.Reg*WarpSize+lane]
					}
				}
				want, err := evalScalar(in, vals)
				have := fr.regs[in.DstReg*WarpSize+lane]
				switch {
				case mask&(1<<uint(lane)) == 0:
					if have != before[in.DstReg*WarpSize+lane] {
						t.Fatalf("%s mask %#x: inactive lane %d written", tc[1], mask, lane)
					}
				case err != nil:
					if !canFault {
						t.Fatalf("%s: evaluator failed: %v", tc[1], err)
					}
					wantFault = lane
				case have != want:
					t.Fatalf("%s mask %#x lane %d: operands %#x: row kernel %#x, evaluator %#x",
						tc[1], mask, lane, vals, have, want)
				}
			}
			if got != wantFault {
				t.Fatalf("%s mask %#x: fault lane %d, want %d", tc[1], mask, got, wantFault)
			}
		}
	}
}
