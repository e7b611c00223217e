package gpu

import (
	"fmt"

	"cudaadvisor/internal/ir"
)

// row is one register (or one broadcast constant) across the lanes of a
// warp: the unit the executor's ALU works on.
type row = [WarpSize]uint64

// kind is the dense opcode of a decoded instruction: ir.Op with the
// operation type and compare predicate folded in, so step dispatches on
// one small integer. Kinds below aluEnd are pure row operations executed
// by alu; the blocks mirror the order of the ir opcodes they decode from,
// which lets decode map an opcode by offset.
type kind uint8

const (
	// Integer binary on I32, in ir.OpAdd..ir.OpSMax order.
	kAdd32 kind = iota
	kSub32
	kMul32
	kSDiv32
	kSRem32
	kAnd32
	kOr32
	kXor32
	kShl32
	kLShr32
	kAShr32
	kSMin32
	kSMax32
	// The same on I64.
	kAdd64
	kSub64
	kMul64
	kSDiv64
	kSRem64
	kAnd64
	kOr64
	kXor64
	kShl64
	kLShr64
	kAShr64
	kSMin64
	kSMax64
	// Float binary, ir.OpFAdd..ir.OpFMax.
	kFAdd
	kFSub
	kFMul
	kFDiv
	kFMin
	kFMax
	// Float unary, ir.OpFNeg..ir.OpFLog.
	kFNeg
	kFAbs
	kFSqrt
	kFExp
	kFLog
	// Compares as eq, ne, lt, le; gt and ge decode to lt and le with the
	// operands swapped. Pointers order unsigned and share eq/ne with I64.
	kEq32
	kNe32
	kLt32
	kLe32
	kEq64
	kNe64
	kLt64
	kLe64
	kLtU64
	kLeU64
	kFEq
	kFNe
	kFLt
	kFLe
	kSelect
	kMov // also shptr: a move of the array's constant offset
	// Conversions, ir.OpSitofp..ir.OpZext.
	kSitofp
	kFptosi
	kSext
	kTrunc
	kZext
	kGEP32 // I32 index, sign-extended
	kGEP64
	aluEnd

	kSReg
	kLd
	kSt
	kAtom
	kBar
	kHook
	kCall
	kBr
	kCBr
	kRet
	kFault // raises msg when executed (unknown opcode or predicate)
)

// dinstr is one decoded instruction. Operands a, b, c and dst are row
// references: a value ≥ 0 is a word offset into the frame's register
// file, a value < 0 is the complement of a word offset into the
// function's broadcast-constant pool (see frame.row). An operand the
// instruction does not have is 0 — register 0's row — so step can resolve
// all of them without asking the kind how many there are.
type dinstr struct {
	kind      kind
	mem       ir.MemType
	sreg      ir.SRegKind
	shared    bool // ld/st address space
	nonCached bool // ld.cg
	dst       int32
	a, b, c   int32

	cost int64 // model cycles beyond the issue cost, when fixed at decode
	imm  int64 // gep scale

	// Control flow, as indices into dfunc.code. cbr carries its
	// reconvergence point inline: reconv is the immediate post-dominator's
	// first instruction (reconvNever when the arms only meet at the exit)
	// and cont is where the diverged entry resumes (deadPC likewise).
	then, els    int32
	reconv, cont int32

	args   []int32 // call and hook operands
	callee *dfunc

	in  *ir.Instr // source instruction: location, hook identity
	msg string    // kFault text
}

// dfunc is the decoded form of one function: its blocks flattened into
// one instruction array, plus the pool of constant rows its operands
// reference.
type dfunc struct {
	fn     *ir.Function
	code   []dinstr
	consts []uint64 // WarpSize copies of each distinct constant
}

// dmodule is a module decoded for execution, valid for one generation of
// the module (ir.Module.Generation).
type dmodule struct {
	generation uint64
	funcs      map[*ir.Function]*dfunc
	// atomics reports a global atomic anywhere in the module. Atomics are
	// read-modify-write communication between SMs whose results depend on
	// cross-SM interleaving, so such kernels keep the serial SM order.
	atomics bool
	// hooks reports a hook call anywhere in the module. A launch that can
	// deliver one keeps the serial SM order too unless its Hooks records
	// per SM (SMHooks), so a plain sink sees every OnHook inline, in
	// order, on the launching goroutine.
	hooks bool
}

// decoded returns the module's decoded form, decoding it on the first
// launch from it and again only after the module is re-finalized. A
// Device is not safe for concurrent launches, so the cache needs no lock.
func (d *Device) decoded(m *ir.Module) *dmodule {
	if dm := d.modules[m]; dm != nil && dm.generation == m.Generation() {
		return dm
	}
	dm := decodeModule(m)
	if d.modules[m] != nil {
		d.frames = nil // idle activations of the superseded decode
	}
	if d.modules == nil {
		d.modules = map[*ir.Module]*dmodule{}
	}
	d.modules[m] = dm
	return dm
}

func decodeModule(m *ir.Module) *dmodule {
	dm := &dmodule{generation: m.Generation(), funcs: make(map[*ir.Function]*dfunc, len(m.Funcs))}
	for _, f := range m.Funcs {
		dm.funcs[f] = &dfunc{fn: f}
	}
	for _, f := range m.Funcs {
		dm.funcs[f].decode(dm)
	}
	return dm
}

// decode fills in df.code and df.consts, and notes on dm an atomic or a
// hook call in the function.
func (df *dfunc) decode(dm *dmodule) {
	f := df.fn
	start := make([]int32, len(f.Blocks))
	n := 0
	for i, b := range f.Blocks {
		start[i] = int32(n)
		n += len(b.Instrs)
	}
	pcOf := func(block int, none int32) int32 {
		if block < 0 || block >= len(start) {
			return none
		}
		return start[block]
	}
	ipdom := ir.PostDominators(f)
	constRow := map[uint64]int32{}
	opnd := func(o *ir.Operand) int32 {
		if o.Kind == ir.KReg {
			return int32(o.Reg * WarpSize)
		}
		return df.constant(constRow, ir.ConstBits(*o))
	}

	df.code = make([]dinstr, 0, n)
	for bi, b := range f.Blocks {
		for _, in := range b.Instrs {
			di := dinstr{in: in, mem: in.Mem, dst: int32(in.DstReg * WarpSize)}
			if in.DstReg < 0 {
				di.dst = -1
			}
			if in.Op != ir.OpCall {
				refs := [...]*int32{&di.a, &di.b, &di.c}
				for i := 0; i < len(in.Args) && i < len(refs); i++ {
					*refs[i] = opnd(&in.Args[i])
				}
			}
			switch op := in.Op; {
			case op.IsIntBinary():
				di.kind = kAdd64 + kind(op-ir.OpAdd)
				if in.Type == ir.I32 {
					di.kind = kAdd32 + kind(op-ir.OpAdd)
				}
			case op.IsFloatBinary():
				di.kind = kFAdd + kind(op-ir.OpFAdd)
			case op.IsFloatUnary():
				di.kind = kFNeg + kind(op-ir.OpFNeg)
				di.cost = 2 // SFU ops are slower
			case op == ir.OpICmp || op == ir.OpFCmp:
				decodeCompare(&di)
			case op == ir.OpSelect:
				di.kind = kSelect
			case op == ir.OpMov:
				di.kind = kMov
			case op >= ir.OpSitofp && op <= ir.OpZext:
				di.kind = kSitofp + kind(op-ir.OpSitofp)
			case op == ir.OpGEP:
				di.kind, di.imm = kGEP64, in.Scale
				if in.Args[1].Type == ir.I32 {
					di.kind = kGEP32
				}
			case op == ir.OpShPtr:
				sd := f.SharedArray(in.Callee)
				if sd == nil {
					di.kind, di.msg = kFault, fmt.Sprintf("undeclared shared array @%s", in.Callee)
					break
				}
				di.kind, di.a = kMov, df.constant(constRow, uint64(sd.Offset))
			case op == ir.OpSReg:
				di.kind, di.sreg = kSReg, in.SReg
			case op == ir.OpLd:
				di.kind, di.shared, di.nonCached = kLd, in.Space == ir.Shared, in.NonCached
			case op == ir.OpSt:
				di.kind, di.shared = kSt, in.Space == ir.Shared
			case op == ir.OpAtom:
				di.kind, dm.atomics = kAtom, true
			case op == ir.OpBar:
				di.kind = kBar
			case op == ir.OpCall:
				for i := range in.Args {
					di.args = append(di.args, opnd(&in.Args[i]))
				}
				switch {
				case in.IsHookCall():
					di.kind, dm.hooks = kHook, true
				case dm.funcs[in.CalleeFn] == nil:
					di.kind, di.msg = kFault, fmt.Sprintf("call to undefined function @%s", in.Callee)
				default:
					di.kind, di.callee, di.cost = kCall, dm.funcs[in.CalleeFn], 4 // call overhead
				}
			case op == ir.OpBr:
				di.kind, di.then = kBr, pcOf(in.ThenIdx, deadPC)
			case op == ir.OpCBr:
				di.kind = kCBr
				di.then, di.els = pcOf(in.ThenIdx, deadPC), pcOf(in.ElseIdx, deadPC)
				// A negative ipdom is the virtual exit or an unreachable
				// block: the diverged entry drains via rets and never
				// reconverges.
				di.reconv, di.cont = pcOf(ipdom[bi], reconvNever), pcOf(ipdom[bi], deadPC)
			case op == ir.OpRet:
				di.kind = kRet
			default:
				di.kind, di.msg = kFault, fmt.Sprintf("unimplemented opcode %s", in.Op)
			}
			df.code = append(df.code, di)
		}
	}
}

// decodeCompare picks the compare kind for an icmp/fcmp: the predicate
// reduces to eq/ne/lt/le (gt and ge swap the operands), the operand type
// picks the block.
func decodeCompare(di *dinstr) {
	in := di.in
	var off kind
	switch in.Pred {
	case ir.PredEQ:
		off = 0
	case ir.PredNE:
		off = 1
	case ir.PredLT:
		off = 2
	case ir.PredLE:
		off = 3
	case ir.PredGT:
		off, di.a, di.b = 2, di.b, di.a
	case ir.PredGE:
		off, di.a, di.b = 3, di.b, di.a
	default:
		di.kind, di.msg = kFault, "bad predicate"
		return
	}
	switch {
	case in.Op == ir.OpFCmp:
		di.kind = kFEq + off
	case in.Type == ir.I32:
		di.kind = kEq32 + off
	case in.Type == ir.Ptr && off >= 2:
		di.kind = kLtU64 + off - 2
	default:
		di.kind = kEq64 + off
	}
}

// constant returns the row reference of a broadcast constant, adding its
// row to the pool on first use.
func (df *dfunc) constant(index map[uint64]int32, bits uint64) int32 {
	ref, ok := index[bits]
	if !ok {
		ref = ^int32(len(df.consts))
		for lane := 0; lane < WarpSize; lane++ {
			df.consts = append(df.consts, bits)
		}
		index[bits] = ref
	}
	return ref
}
