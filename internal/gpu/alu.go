package gpu

import (
	"math"

	"cudaadvisor/internal/ir"
)

// alu executes one pure row operation: d = k(a, b, c) on the lanes of
// mask, leaving every other lane of d untouched. It returns the first
// lane that divided by zero, or -1 (only sdiv/srem can fault).
//
// Semantics are ir.EvalIntBin/EvalFloatBin/EvalFloatUn/EvalICmp/EvalFCmp/
// EvalCvt lane for lane (a test holds the two together); every float op
// rounds to float32 once, as one IR instruction does.
//
// The kernels for cheap ops compute all 32 lanes without a per-lane mask
// test — inactive lanes hold stale but harmless bits, and none of these
// ops can trap — writing straight into d under a full mask and into tmp,
// blended into d afterwards, under a partial one. Ops that can fault or
// are expensive per lane (division, the SFU functions) visit active lanes
// only.
func alu(k kind, d, a, b, c *row, mask uint32, imm int64, tmp *row) int {
	out := d
	if mask != FullMask {
		out = tmp
	}
	switch k {
	case kAdd32:
		for l := range out {
			out[l] = uint64(uint32(a[l]) + uint32(b[l]))
		}
	case kSub32:
		for l := range out {
			out[l] = uint64(uint32(a[l]) - uint32(b[l]))
		}
	case kMul32:
		for l := range out {
			out[l] = uint64(uint32(a[l]) * uint32(b[l]))
		}
	case kAnd32:
		for l := range out {
			out[l] = uint64(uint32(a[l] & b[l]))
		}
	case kOr32:
		for l := range out {
			out[l] = uint64(uint32(a[l] | b[l]))
		}
	case kXor32:
		for l := range out {
			out[l] = uint64(uint32(a[l] ^ b[l]))
		}
	case kShl32:
		for l := range out {
			out[l] = uint64(uint32(a[l]) << (b[l] & 31))
		}
	case kLShr32:
		for l := range out {
			out[l] = uint64(uint32(a[l]) >> (b[l] & 31))
		}
	case kAShr32:
		for l := range out {
			out[l] = uint64(uint32(int32(uint32(a[l])) >> (b[l] & 31)))
		}
	case kSMin32:
		for l := range out {
			out[l] = uint64(uint32(min(int32(uint32(a[l])), int32(uint32(b[l])))))
		}
	case kSMax32:
		for l := range out {
			out[l] = uint64(uint32(max(int32(uint32(a[l])), int32(uint32(b[l])))))
		}

	case kAdd64:
		for l := range out {
			out[l] = a[l] + b[l]
		}
	case kSub64:
		for l := range out {
			out[l] = a[l] - b[l]
		}
	case kMul64:
		for l := range out {
			out[l] = a[l] * b[l]
		}
	case kAnd64:
		for l := range out {
			out[l] = a[l] & b[l]
		}
	case kOr64:
		for l := range out {
			out[l] = a[l] | b[l]
		}
	case kXor64:
		for l := range out {
			out[l] = a[l] ^ b[l]
		}
	case kShl64:
		for l := range out {
			out[l] = a[l] << (b[l] & 63)
		}
	case kLShr64:
		for l := range out {
			out[l] = a[l] >> (b[l] & 63)
		}
	case kAShr64:
		for l := range out {
			out[l] = uint64(int64(a[l]) >> (b[l] & 63))
		}
	case kSMin64:
		for l := range out {
			out[l] = uint64(min(int64(a[l]), int64(b[l])))
		}
	case kSMax64:
		for l := range out {
			out[l] = uint64(max(int64(a[l]), int64(b[l])))
		}

	case kSDiv32, kSRem32, kSDiv64, kSRem64:
		return divide(k, d, a, b, mask)

	case kFAdd:
		for l := range out {
			out[l] = ir.F32Bits(ir.F32FromBits(a[l]) + ir.F32FromBits(b[l]))
		}
	case kFSub:
		for l := range out {
			out[l] = ir.F32Bits(ir.F32FromBits(a[l]) - ir.F32FromBits(b[l]))
		}
	case kFMul:
		for l := range out {
			out[l] = ir.F32Bits(ir.F32FromBits(a[l]) * ir.F32FromBits(b[l]))
		}
	case kFDiv:
		for l := range out {
			out[l] = ir.F32Bits(ir.F32FromBits(a[l]) / ir.F32FromBits(b[l])) // IEEE: inf/NaN, no trap
		}
	case kFMin:
		for l := range out {
			out[l] = ir.F32Bits(float32(math.Min(float64(ir.F32FromBits(a[l])), float64(ir.F32FromBits(b[l])))))
		}
	case kFMax:
		for l := range out {
			out[l] = ir.F32Bits(float32(math.Max(float64(ir.F32FromBits(a[l])), float64(ir.F32FromBits(b[l])))))
		}

	case kFNeg:
		for l := range out {
			out[l] = ir.F32Bits(float32(-float64(ir.F32FromBits(a[l]))))
		}
	case kFAbs:
		for l := range out {
			out[l] = ir.F32Bits(float32(math.Abs(float64(ir.F32FromBits(a[l])))))
		}
	case kFSqrt, kFExp, kFLog:
		f := math.Sqrt
		switch k {
		case kFExp:
			f = math.Exp
		case kFLog:
			f = math.Log
		}
		for l := 0; l < WarpSize; l++ {
			if mask&(1<<uint(l)) != 0 {
				d[l] = ir.F32Bits(float32(f(float64(ir.F32FromBits(a[l])))))
			}
		}
		return -1

	case kEq32:
		for l := range out {
			out[l] = b2u(uint32(a[l]) == uint32(b[l]))
		}
	case kNe32:
		for l := range out {
			out[l] = b2u(uint32(a[l]) != uint32(b[l]))
		}
	case kLt32:
		for l := range out {
			out[l] = b2u(int32(uint32(a[l])) < int32(uint32(b[l])))
		}
	case kLe32:
		for l := range out {
			out[l] = b2u(int32(uint32(a[l])) <= int32(uint32(b[l])))
		}
	case kEq64:
		for l := range out {
			out[l] = b2u(a[l] == b[l])
		}
	case kNe64:
		for l := range out {
			out[l] = b2u(a[l] != b[l])
		}
	case kLt64:
		for l := range out {
			out[l] = b2u(int64(a[l]) < int64(b[l]))
		}
	case kLe64:
		for l := range out {
			out[l] = b2u(int64(a[l]) <= int64(b[l]))
		}
	case kLtU64:
		for l := range out {
			out[l] = b2u(a[l] < b[l])
		}
	case kLeU64:
		for l := range out {
			out[l] = b2u(a[l] <= b[l])
		}
	// Go's float compares are the ordered ones (false on NaN) and its !=
	// is true on NaN: exactly fcmp's predicates.
	case kFEq:
		for l := range out {
			out[l] = b2u(ir.F32FromBits(a[l]) == ir.F32FromBits(b[l]))
		}
	case kFNe:
		for l := range out {
			out[l] = b2u(ir.F32FromBits(a[l]) != ir.F32FromBits(b[l]))
		}
	case kFLt:
		for l := range out {
			out[l] = b2u(ir.F32FromBits(a[l]) < ir.F32FromBits(b[l]))
		}
	case kFLe:
		for l := range out {
			out[l] = b2u(ir.F32FromBits(a[l]) <= ir.F32FromBits(b[l]))
		}

	case kSelect:
		for l := range out {
			if a[l]&1 == 1 {
				out[l] = b[l]
			} else {
				out[l] = c[l]
			}
		}
	case kMov:
		*out = *a

	case kSitofp:
		for l := range out {
			out[l] = ir.F32Bits(float32(int32(uint32(a[l]))))
		}
	case kFptosi:
		for l := range out {
			out[l] = fptosi(ir.F32FromBits(a[l]))
		}
	case kSext:
		for l := range out {
			out[l] = uint64(int64(int32(uint32(a[l]))))
		}
	case kTrunc:
		for l := range out {
			out[l] = uint64(uint32(a[l]))
		}
	case kZext:
		for l := range out {
			out[l] = a[l] & 1
		}

	case kGEP32:
		for l := range out {
			out[l] = uint64(int64(a[l]) + int64(int32(uint32(b[l])))*imm)
		}
	case kGEP64:
		for l := range out {
			out[l] = uint64(int64(a[l]) + int64(b[l])*imm)
		}
	}
	if mask != FullMask {
		copyLanes(d, tmp, mask)
	}
	return -1
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// fptosi is the saturating float-to-int conversion: NaN gives 0.
func fptosi(f float32) uint64 {
	switch {
	case f != f:
		return 0
	case f >= math.MaxInt32:
		return ir.I32Bits(math.MaxInt32)
	case f <= math.MinInt32:
		return ir.I32Bits(math.MinInt32)
	}
	return ir.I32Bits(int32(f))
}

// divide executes sdiv/srem lane by lane in lane order, stopping at the
// first active lane whose divisor is zero.
func divide(k kind, d, a, b *row, mask uint32) int {
	for l := 0; l < WarpSize; l++ {
		if mask&(1<<uint(l)) == 0 {
			continue
		}
		if k == kSDiv32 || k == kSRem32 {
			x, y := int32(uint32(a[l])), int32(uint32(b[l]))
			if y == 0 {
				return l
			}
			if k == kSDiv32 {
				d[l] = ir.I32Bits(x / y)
			} else {
				d[l] = ir.I32Bits(x % y)
			}
			continue
		}
		x, y := int64(a[l]), int64(b[l])
		if y == 0 {
			return l
		}
		if k == kSDiv64 {
			d[l] = uint64(x / y)
		} else {
			d[l] = uint64(x % y)
		}
	}
	return -1
}

// copyLanes copies the lanes of mask from src to dst.
func copyLanes(dst, src *row, mask uint32) {
	if mask == FullMask {
		*dst = *src
		return
	}
	for l := 0; l < WarpSize; l++ {
		if mask&(1<<uint(l)) != 0 {
			dst[l] = src[l]
		}
	}
}
