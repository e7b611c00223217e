package ir

import (
	"fmt"
	"strconv"
	"strings"
)

// OperandKind discriminates Operand.
type OperandKind uint8

// Operand kinds.
const (
	KReg        OperandKind = iota // virtual register reference
	KConstInt                      // integer immediate (I1/I32/I64/Ptr)
	KConstFloat                    // float immediate (F32)
)

// Operand is an instruction operand: a register reference or an immediate.
type Operand struct {
	Kind OperandKind
	Name string  // register name, without '%' (KReg)
	Reg  int     // register index; resolved by Function.Finalize
	Int  int64   // immediate value (KConstInt)
	F    float64 // immediate value (KConstFloat)
	Type Type    // static type; for KReg filled in by Finalize
}

// RegOp returns a register operand by name.
func RegOp(name string) Operand { return Operand{Kind: KReg, Name: name, Reg: -1} }

// IntOp returns an integer immediate of the given type.
func IntOp(v int64, t Type) Operand { return Operand{Kind: KConstInt, Int: v, Type: t} }

// I32Op returns an I32 immediate.
func I32Op(v int64) Operand { return IntOp(v, I32) }

// FloatOp returns an F32 immediate.
func FloatOp(v float64) Operand { return Operand{Kind: KConstFloat, F: v, Type: F32} }

func (o Operand) String() string {
	switch o.Kind {
	case KReg:
		return "%" + o.Name
	case KConstInt:
		if o.Type == I1 && o.Int&^1 == 0 {
			return strconv.FormatBool(o.Int == 1)
		}
		return strconv.FormatInt(o.Int, 10)
	case KConstFloat:
		s := strconv.FormatFloat(o.F, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") && !strings.Contains(s, "Inf") && !strings.Contains(s, "NaN") {
			s += ".0"
		}
		return s
	}
	return "?"
}

// Instr is a single IR instruction. One struct covers all opcodes; which
// fields are meaningful depends on Op (see the opcode documentation).
type Instr struct {
	Op   Op
	Pred CmpPred // OpICmp/OpFCmp predicate

	// Type is the operation type: operand type for arithmetic/compare,
	// result type for conversions and select.
	Type Type

	// Mem is the element type and Space the address space for OpLd/OpSt/OpAtom.
	Mem   MemType
	Space Space

	// NonCached marks a load that bypasses the L1 cache (PTX ld.global.cg,
	// the mechanism behind vertical bypassing). Only meaningful on OpLd
	// with Space Global.
	NonCached bool

	// Dst names the result register ("" if none). DstReg is the resolved
	// index after Finalize, or -1.
	Dst    string
	DstReg int

	// Args are the value operands, in the order the instruction's text
	// spells them (opTable); how many and of what type, its signature
	// ((*Function).signature) says.
	Args []Operand

	Scale int64    // OpGEP element size in bytes
	SReg  SRegKind // OpSReg selector

	// Callee is the callee function name for OpCall, or the shared-array
	// name for OpShPtr. CalleeFn is resolved by Module.Finalize for
	// device-function calls; it stays nil for hook intrinsics (names with
	// the HookPrefix), which the executor dispatches specially.
	Callee   string
	CalleeFn *Function

	// Branch targets by block name; indices resolved by Finalize.
	Then, Else       string
	ThenIdx, ElseIdx int

	Loc Loc // source location (debug info)
}

// HookPrefix marks callee names that are interpreter intrinsics inserted by
// the instrumentation engine (the paper's Record()/passBasicBlock()/...
// device analysis functions) rather than device functions defined in IR.
const HookPrefix = "__advisor_"

// IsHookCall reports whether the instruction calls an instrumentation hook.
func (in *Instr) IsHookCall() bool {
	return in.Op == OpCall && strings.HasPrefix(in.Callee, HookPrefix)
}

// String renders the instruction in the textual IR syntax (without
// location comment), as its opcode's form spells it. It prints what the
// instruction holds: an operand or target it lacks prints as <missing>.
func (in *Instr) String() string {
	var b strings.Builder
	if in.Dst != "" {
		fmt.Fprintf(&b, "%%%s = ", in.Dst)
	}
	b.WriteString(in.Op.String())
	if in.NonCached {
		b.WriteString(".cg")
	}
	n, _ := in.Arity()
	args := make([]string, max(n, len(in.Args)))
	for i := range args {
		args[i] = missing
		if i < len(in.Args) {
			args[i] = in.Args[i].String()
		}
	}
	sep := " " // before the operands the form leaves to the end
	switch in.Op.Form() {
	case FormTyped:
		fmt.Fprintf(&b, " %s", in.Type)
	case FormCmp:
		fmt.Fprintf(&b, " %s %s", in.Pred, in.Type)
	case FormGEP:
		args = append(args, strconv.FormatInt(in.Scale, 10))
	case FormMem:
		fmt.Fprintf(&b, " %s %s [%s]", in.Mem, in.Space, first(args))
		args, sep = args[min(1, len(args)):], ", "
	case FormSReg:
		fmt.Fprintf(&b, " %s", in.SReg)
	case FormShPtr:
		fmt.Fprintf(&b, " @%s", in.Callee)
	case FormBr:
		fmt.Fprintf(&b, " %s", label(in.Then))
	case FormCBr:
		fmt.Fprintf(&b, " %s, %s, %s", first(args), label(in.Then), label(in.Else))
		args, sep = args[min(1, len(args)):], ", "
	case FormCall:
		fmt.Fprintf(&b, " @%s(%s)", in.Callee, strings.Join(args, ", "))
		return b.String()
	}
	if len(args) > 0 {
		b.WriteString(sep + strings.Join(args, ", "))
	}
	return b.String()
}

// missing stands in for an operand or target an instruction lacks.
const missing = "<missing>"

func first(args []string) string {
	if len(args) == 0 {
		return missing
	}
	return args[0]
}

func label(name string) string {
	if name == "" {
		return missing
	}
	return name
}
