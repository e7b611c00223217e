package ir

import "fmt"

// Op is an instruction opcode.
type Op uint8

// Opcodes. The set mirrors the subset of LLVM/PTX the paper's
// instrumentation engine distinguishes: arithmetic operations, memory
// operations, control-flow operations, calls/returns, and barriers.
const (
	OpInvalid Op = iota

	// Integer binary arithmetic (I32 or I64 operands, same-type result).
	OpAdd
	OpSub
	OpMul
	OpSDiv
	OpSRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpLShr
	OpAShr
	OpSMin
	OpSMax

	// Float binary arithmetic (F32).
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpFMin
	OpFMax

	// Float unary (F32).
	OpFNeg
	OpFAbs
	OpFSqrt
	OpFExp
	OpFLog

	// Comparisons: result I1. Pred selects the predicate.
	OpICmp
	OpFCmp

	// Select: dst = pred ? a : b (operands of any one type).
	OpSelect

	// Move: dst = src (register or immediate). Used to initialise loop
	// registers in the non-SSA IR.
	OpMov

	// Conversions.
	OpSitofp // I32 -> F32
	OpFptosi // F32 -> I32 (truncating)
	OpSext   // I32 -> I64
	OpTrunc  // I64 -> I32
	OpZext   // I1 -> I32

	// Address computation: dst(Ptr) = base(Ptr) + sext(index) * Scale.
	OpGEP

	// Memory operations.
	OpLd   // dst = load MemType Space [addr]
	OpSt   // store MemType Space [addr], val
	OpAtom // dst = atomic add MemType(Global) [addr], val; returns old value

	// Special registers (threadIdx/blockIdx/blockDim/gridDim). SReg field
	// selects which; result I32.
	OpSReg

	// Shared-memory base: dst(Ptr) = offset of the named shared array in
	// the CTA's shared space. Callee holds the array name.
	OpShPtr

	// Control flow (terminators).
	OpBr  // unconditional branch to Then
	OpCBr // conditional branch: Args[0] (I1) ? Then : Else
	OpRet // return, optionally with Args[0]

	// Device-function call: Dst (optional) = Callee(Args...).
	OpCall

	// CTA-wide barrier (__syncthreads).
	OpBar

	opCount // sentinel
)

// Form is the syntax of an instruction's text after its mnemonic. The
// forms that end in an operand list do not fix its length: how many
// operands an instruction takes is its signature's to say.
type Form uint8

// Syntax forms.
const (
	FormPlain Form = iota // a, b, ...
	FormTyped             // T a, b, ...
	FormCmp               // pred [T] a, b, ...; T defaults to f32
	FormGEP               // base, index, scale; scale a literal
	FormMem               // M S [addr], b, ...
	FormSReg              // special register
	FormShPtr             // @array
	FormBr                // label
	FormCBr               // cond, label, label
	FormRet               // [value]
	FormCall              // @callee(a, b, ...)
)

// opTable holds each opcode's mnemonic and syntax form. The parser and
// the printer read it; an instruction's types are its signature's.
var opTable = [opCount]struct {
	name string
	form Form
}{
	OpInvalid: {"invalid", FormPlain},
	OpAdd:     {"add", FormTyped}, OpSub: {"sub", FormTyped}, OpMul: {"mul", FormTyped},
	OpSDiv: {"sdiv", FormTyped}, OpSRem: {"srem", FormTyped},
	OpAnd: {"and", FormTyped}, OpOr: {"or", FormTyped}, OpXor: {"xor", FormTyped},
	OpShl: {"shl", FormTyped}, OpLShr: {"lshr", FormTyped}, OpAShr: {"ashr", FormTyped},
	OpSMin: {"smin", FormTyped}, OpSMax: {"smax", FormTyped},
	OpFAdd: {"fadd", FormTyped}, OpFSub: {"fsub", FormTyped}, OpFMul: {"fmul", FormTyped},
	OpFDiv: {"fdiv", FormTyped}, OpFMin: {"fmin", FormTyped}, OpFMax: {"fmax", FormTyped},
	OpFNeg: {"fneg", FormTyped}, OpFAbs: {"fabs", FormTyped}, OpFSqrt: {"fsqrt", FormTyped},
	OpFExp: {"fexp", FormTyped}, OpFLog: {"flog", FormTyped},
	OpICmp: {"icmp", FormCmp}, OpFCmp: {"fcmp", FormCmp},
	OpSelect: {"select", FormTyped}, OpMov: {"mov", FormTyped},
	OpSitofp: {"sitofp", FormPlain}, OpFptosi: {"fptosi", FormPlain},
	OpSext: {"sext", FormPlain}, OpTrunc: {"trunc", FormPlain}, OpZext: {"zext", FormPlain},
	OpGEP: {"gep", FormGEP},
	OpLd:  {"ld", FormMem}, OpSt: {"st", FormMem}, OpAtom: {"atomadd", FormMem},
	OpSReg: {"sreg", FormSReg}, OpShPtr: {"shptr", FormShPtr},
	OpBr: {"br", FormBr}, OpCBr: {"cbr", FormCBr}, OpRet: {"ret", FormRet},
	OpCall: {"call", FormCall}, OpBar: {"bar", FormPlain},
}

// opByName maps each mnemonic but "invalid" to its opcode.
var opByName = func() map[string]Op {
	m := make(map[string]Op, opCount)
	for o := OpInvalid + 1; o < opCount; o++ {
		m[opTable[o].name] = o
	}
	return m
}()

// OpFromString returns the opcode a mnemonic names.
func OpFromString(s string) (Op, bool) {
	o, ok := opByName[s]
	return o, ok
}

func (o Op) String() string {
	if o < opCount {
		return opTable[o].name
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Form returns the opcode's syntax form (FormPlain out of range).
func (o Op) Form() Form {
	if o < opCount {
		return opTable[o].form
	}
	return FormPlain
}

// IsTerminator reports whether the opcode ends a basic block.
func (o Op) IsTerminator() bool { return o == OpBr || o == OpCBr || o == OpRet }

// IsIntBinary reports whether the opcode is a two-operand integer
// arithmetic operation.
func (o Op) IsIntBinary() bool { return o >= OpAdd && o <= OpSMax }

// IsFloatBinary reports whether the opcode is a two-operand float
// arithmetic operation.
func (o Op) IsFloatBinary() bool { return o >= OpFAdd && o <= OpFMax }

// IsFloatUnary reports whether the opcode is a one-operand float operation.
func (o Op) IsFloatUnary() bool { return o >= OpFNeg && o <= OpFLog }

// IsArith reports whether the opcode is an arithmetic computation in the
// paper's sense (category for optional arithmetic instrumentation).
func (o Op) IsArith() bool {
	return o.IsIntBinary() || o.IsFloatBinary() || o.IsFloatUnary() ||
		o == OpICmp || o == OpFCmp || o == OpSelect ||
		o == OpSitofp || o == OpFptosi
}

// IsMemAccess reports whether the opcode reads or writes memory.
func (o Op) IsMemAccess() bool { return o == OpLd || o == OpSt || o == OpAtom }

// CmpPred is a comparison predicate for OpICmp/OpFCmp.
type CmpPred uint8

// Comparison predicates. Integer compares are signed; float compares are
// ordered (NaN compares false).
const (
	PredInvalid CmpPred = iota
	PredEQ
	PredNE
	PredLT
	PredLE
	PredGT
	PredGE
)

var predNames = [...]string{
	PredInvalid: "??",
	PredEQ:      "eq", PredNE: "ne", PredLT: "lt", PredLE: "le", PredGT: "gt", PredGE: "ge",
}

func (p CmpPred) String() string { return nameOf(predNames[:], p, "pred") }

// PredFromString parses a predicate mnemonic ("??" is not one).
func PredFromString(s string) (CmpPred, bool) { return lookup(predNames[:], PredEQ, s) }

// SRegKind selects a special register.
type SRegKind uint8

// Special registers, mirroring PTX %tid/%ctaid/%ntid/%nctaid.
const (
	SRegTidX SRegKind = iota
	SRegTidY
	SRegTidZ
	SRegCtaidX
	SRegCtaidY
	SRegCtaidZ
	SRegNtidX
	SRegNtidY
	SRegNtidZ
	SRegNctaidX
	SRegNctaidY
	SRegNctaidZ
)

var sregNames = [...]string{
	SRegTidX: "tid.x", SRegTidY: "tid.y", SRegTidZ: "tid.z",
	SRegCtaidX: "ctaid.x", SRegCtaidY: "ctaid.y", SRegCtaidZ: "ctaid.z",
	SRegNtidX: "ntid.x", SRegNtidY: "ntid.y", SRegNtidZ: "ntid.z",
	SRegNctaidX: "nctaid.x", SRegNctaidY: "nctaid.y", SRegNctaidZ: "nctaid.z",
}

func (s SRegKind) String() string { return nameOf(sregNames[:], s, "sreg") }

// SRegFromString parses a special-register name like "tid.x".
func SRegFromString(s string) (SRegKind, bool) { return lookup(sregNames[:], SRegTidX, s) }

// nameOf returns names[v], or kind(v) past the end of names.
func nameOf[T ~uint8](names []string, v T, kind string) string {
	if int(v) < len(names) {
		return names[v]
	}
	return fmt.Sprintf("%s(%d)", kind, uint8(v))
}

// lookup returns the T whose name is s, searching names from first on.
func lookup[T ~uint8](names []string, first T, s string) (T, bool) {
	for i := int(first); i < len(names); i++ {
		if names[i] == s {
			return T(i), true
		}
	}
	return 0, false
}
