package ir

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// regTypes are the register types, and regOf names the host parameter
// of each type.
var (
	regTypes = []Type{I1, I32, I64, F32, Ptr}
	regOf    = map[Type]string{I1: "c", I32: "i", I64: "l", F32: "f", Ptr: "p"}
)

func typeOfReg(name string) Type {
	for t, n := range regOf {
		if n == name {
			return t
		}
	}
	return Void
}

var errPanic = errors.New("panic")

// verdict places a copy of in at the head of @host, a kernel (a device
// function returning f32 when dev is set) with one parameter of each
// register type, a shared array @s and a block "exit", beside the callees
// @sq (f32 -> f32), @sink (i32 -> void) and the kernel @kern. It returns
// the module, Finalize's or else Verify's error, and a panic of either as
// errPanic.
func verdict(in Instr, dev bool) (m *Module, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", errPanic, r)
		}
	}()
	in.Args = slices.Clone(in.Args)
	host := &Function{Name: "host", IsKernel: !dev, Shared: []SharedDecl{{Name: "s", Elem: MemI32, Count: 4}}}
	for _, t := range regTypes {
		host.Params = append(host.Params, Param{Name: regOf[t], Type: t})
	}
	ret := func() *Instr {
		if dev {
			return &Instr{Op: OpRet, Args: []Operand{RegOp("f")}}
		}
		return &Instr{Op: OpRet}
	}
	if dev {
		host.Result = F32
	}
	entry := &Block{Name: "entry", Instrs: []*Instr{&in}}
	if !in.Op.IsTerminator() {
		entry.Instrs = append(entry.Instrs, ret())
	}
	host.Blocks = []*Block{entry, {Name: "exit", Instrs: []*Instr{ret()}}}
	m = NewModule("verdict")
	m.AddFunc(host)
	m.AddFunc(&Function{Name: "sq", Params: []Param{{Name: "x", Type: F32}}, Result: F32,
		Blocks: []*Block{{Name: "entry", Instrs: []*Instr{{Op: OpRet, Args: []Operand{RegOp("x")}}}}}})
	m.AddFunc(&Function{Name: "sink", Params: []Param{{Name: "x", Type: I32}},
		Blocks: []*Block{{Name: "entry", Instrs: []*Instr{{Op: OpRet}}}}})
	m.AddFunc(&Function{Name: "kern", IsKernel: true,
		Blocks: []*Block{{Name: "entry", Instrs: []*Instr{{Op: OpRet}}}}})
	if err = m.Finalize(); err == nil {
		err = Verify(m)
	}
	return m, err
}

// opForm is the well-typed form of an opcode, every operand a register.
type opForm struct {
	name string
	in   Instr
	dev  bool // hosted in a device function returning f32
}

func opForms() []opForm {
	r := RegOp
	var fs []opForm
	for op := OpAdd; op <= OpSMax; op++ {
		fs = append(fs, opForm{name: op.String(), in: Instr{Op: op, Type: I64, Dst: "x", Args: []Operand{r("l"), r("l")}}})
	}
	for op := OpFAdd; op <= OpFMax; op++ {
		fs = append(fs, opForm{name: op.String(), in: Instr{Op: op, Type: F32, Dst: "x", Args: []Operand{r("f"), r("f")}}})
	}
	for op := OpFNeg; op <= OpFLog; op++ {
		fs = append(fs, opForm{name: op.String(), in: Instr{Op: op, Type: F32, Dst: "x", Args: []Operand{r("f")}}})
	}
	return append(fs,
		opForm{name: "icmp", in: Instr{Op: OpICmp, Pred: PredLT, Type: Ptr, Dst: "x", Args: []Operand{r("p"), r("p")}}},
		opForm{name: "fcmp", in: Instr{Op: OpFCmp, Pred: PredGE, Type: F32, Dst: "x", Args: []Operand{r("f"), r("f")}}},
		opForm{name: "select", in: Instr{Op: OpSelect, Type: I64, Dst: "x", Args: []Operand{r("c"), r("l"), r("l")}}},
		opForm{name: "mov", in: Instr{Op: OpMov, Type: I1, Dst: "x", Args: []Operand{r("c")}}},
		opForm{name: "sitofp", in: Instr{Op: OpSitofp, Dst: "x", Args: []Operand{r("i")}}},
		opForm{name: "fptosi", in: Instr{Op: OpFptosi, Dst: "x", Args: []Operand{r("f")}}},
		opForm{name: "sext", in: Instr{Op: OpSext, Dst: "x", Args: []Operand{r("i")}}},
		opForm{name: "trunc", in: Instr{Op: OpTrunc, Dst: "x", Args: []Operand{r("l")}}},
		opForm{name: "zext", in: Instr{Op: OpZext, Dst: "x", Args: []Operand{r("c")}}},
		opForm{name: "gep", in: Instr{Op: OpGEP, Dst: "x", Args: []Operand{r("p"), r("l")}, Scale: 4}},
		opForm{name: "ld.cg", in: Instr{Op: OpLd, Mem: MemF32, Space: Global, NonCached: true, Dst: "x", Args: []Operand{r("p")}}},
		opForm{name: "st", in: Instr{Op: OpSt, Mem: MemI8, Space: Shared, Args: []Operand{r("p"), r("i")}}},
		opForm{name: "atomadd", in: Instr{Op: OpAtom, Mem: MemF32, Space: Global, Dst: "x", Args: []Operand{r("p"), r("f")}}},
		opForm{name: "sreg", in: Instr{Op: OpSReg, SReg: SRegNctaidZ, Dst: "x"}},
		opForm{name: "shptr", in: Instr{Op: OpShPtr, Callee: "s", Dst: "x"}},
		opForm{name: "br", in: Instr{Op: OpBr, Then: "exit"}},
		opForm{name: "cbr", in: Instr{Op: OpCBr, Args: []Operand{r("c")}, Then: "exit", Else: "exit"}},
		opForm{name: "ret", in: Instr{Op: OpRet}},
		opForm{name: "ret value", in: Instr{Op: OpRet, Args: []Operand{r("f")}}, dev: true},
		opForm{name: "call", in: Instr{Op: OpCall, Callee: "sq", Dst: "x", Args: []Operand{r("f")}}},
		opForm{name: "void call", in: Instr{Op: OpCall, Callee: "sink", Args: []Operand{r("i")}}},
		opForm{name: "bar", in: Instr{Op: OpBar}},
	)
}

// looser reports the two operands that take more than their constant
// type: a trunc source may be a ptr, and a gep index any integer.
func looser(op Op, i int, t Type) bool {
	return op == OpTrunc && t == Ptr || op == OpGEP && i == 1 && t.IsInt()
}

func wantRejected(t *testing.T, what string, in Instr, dev bool) {
	t.Helper()
	if _, err := verdict(in, dev); err == nil {
		t.Errorf("%s: %s accepted", what, &in)
	} else if errors.Is(err, errPanic) {
		t.Errorf("%s: %s: %v", what, &in, err)
	}
}

func withArgs(in Instr, args ...Operand) Instr {
	in.Args = args
	return in
}

// TestOpcodeVerdicts checks each opcode's well-typed form, every operand
// retyped, one operand too few and one too many, the typing of a constant
// in every operand position, and each rule the types cannot express.
// Neither Finalize nor Verify may panic. Rows marked "tightened" were
// accepted (a branch without a target: panicked) before Finalize and
// Verify read one signature per opcode.
func TestOpcodeVerdicts(t *testing.T) {
	covered := map[Op]bool{}
	for _, fm := range opForms() {
		covered[fm.in.Op] = true
		if _, err := verdict(fm.in, fm.dev); err != nil {
			t.Errorf("%s: well-typed %s rejected: %v", fm.name, &fm.in, err)
			continue
		}
		args := fm.in.Args
		for i, a := range args {
			want := typeOfReg(a.Name)
			for _, rt := range regTypes {
				bad := withArgs(fm.in, slices.Clone(args)...)
				bad.Args[i] = RegOp(regOf[rt])
				switch {
				case rt == want:
				case looser(fm.in.Op, i, rt):
					if _, err := verdict(bad, fm.dev); err != nil {
						t.Errorf("%s: operand %d as %s rejected: %v", fm.name, i, rt, err)
					}
				default:
					wantRejected(t, fmt.Sprintf("%s: operand %d retyped %s", fm.name, i, rt), bad, fm.dev)
				}
			}
			lit := withArgs(fm.in, slices.Clone(args)...)
			lit.Args[i] = Operand{Kind: KConstInt, Int: 3}
			m, err := verdict(lit, fm.dev)
			if err != nil {
				t.Errorf("%s: literal operand %d rejected: %v", fm.name, i, err)
				continue
			}
			got := m.Func("host").Blocks[0].Instrs[0].Args[i]
			if got.Type != want || (want == F32) != (got.Kind == KConstFloat) {
				t.Errorf("%s: literal operand %d typed %s (kind %d), want %s", fm.name, i, got.Type, got.Kind, want)
			}
			if want != F32 {
				lit.Args[i] = FloatOp(0.5)
				wantRejected(t, fmt.Sprintf("%s: float literal operand %d", fm.name, i), lit, fm.dev)
			}
		}
		if n := len(args); n > 0 {
			wantRejected(t, fm.name+": one operand too few", withArgs(fm.in, args[:n-1]...), fm.dev)
		}
		// Tightened for br, bar and shptr.
		wantRejected(t, fm.name+": one operand too many", withArgs(fm.in, append(slices.Clone(args), RegOp("i"))...), fm.dev)
	}
	for op := OpAdd; op < opCount; op++ {
		if !covered[op] {
			t.Errorf("%s: no well-typed form", op)
		}
	}

	r, lit := RegOp, Operand{Kind: KConstInt}
	rules := []struct {
		name string
		in   Instr
		dev  bool
	}{
		{"integer op typed f32", Instr{Op: OpAdd, Type: F32, Dst: "x", Args: []Operand{r("f"), r("f")}}, false},
		{"integer op typed f32 without a destination", Instr{Op: OpAdd, Type: F32, Args: []Operand{r("f"), r("f")}}, false},
		{"float op typed i32", Instr{Op: OpFAdd, Type: I32, Dst: "x", Args: []Operand{r("f"), r("f")}}, false},
		// Tightened: float ops typed other than f32 without a destination.
		{"float op typed i32 without a destination", Instr{Op: OpFAdd, Type: I32, Args: []Operand{r("f"), r("f")}}, false},
		{"unary float op typed void without a destination", Instr{Op: OpFNeg, Args: []Operand{r("f")}}, false},
		{"icmp typed f32", Instr{Op: OpICmp, Pred: PredEQ, Type: F32, Dst: "x", Args: []Operand{r("f"), r("f")}}, false},
		// Tightened: an fcmp typed other than f32 was accepted.
		{"fcmp typed i64", Instr{Op: OpFCmp, Pred: PredLT, Type: I64, Dst: "x", Args: []Operand{r("f"), r("f")}}, false},
		{"icmp without predicate", Instr{Op: OpICmp, Type: I32, Dst: "x", Args: []Operand{r("i"), r("i")}}, false},
		{"fcmp without predicate", Instr{Op: OpFCmp, Type: F32, Dst: "x", Args: []Operand{r("f"), r("f")}}, false},
		{"gep scale 0", Instr{Op: OpGEP, Dst: "x", Args: []Operand{r("p"), r("i")}}, false},
		{"ld.cg on shared", Instr{Op: OpLd, Mem: MemI32, Space: Shared, NonCached: true, Dst: "x", Args: []Operand{r("p")}}, false},
		// Tightened: only a global ld may bypass L1 (.cg was ignored elsewhere).
		{"st.cg", Instr{Op: OpSt, Mem: MemI32, NonCached: true, Args: []Operand{r("p"), r("i")}}, false},
		{"add.cg", Instr{Op: OpAdd, Type: I32, NonCached: true, Dst: "x", Args: []Operand{r("i"), r("i")}}, false},
		{"atomadd on i64", Instr{Op: OpAtom, Mem: MemI64, Dst: "x", Args: []Operand{r("p"), r("l")}}, false},
		{"atomadd on shared", Instr{Op: OpAtom, Mem: MemI32, Space: Shared, Args: []Operand{r("p"), r("i")}}, false},
		{"shptr to an undeclared array", Instr{Op: OpShPtr, Callee: "t", Dst: "x"}, false},
		{"call to a kernel", Instr{Op: OpCall, Callee: "kern"}, false},
		{"call to an undefined function", Instr{Op: OpCall, Callee: "nope"}, false},
		{"void call with a destination", Instr{Op: OpCall, Callee: "sink", Dst: "x", Args: []Operand{r("i")}}, false},
		{"hook call with a destination", Instr{Op: OpCall, Callee: HookPrefix + "h", Dst: "x"}, false},
		{"bar in a device function", Instr{Op: OpBar}, true},
		{"ret without a value in a device function", Instr{Op: OpRet}, true},
		// Tightened: mov and select typed void with a destination.
		{"mov typed void with a destination", Instr{Op: OpMov, Dst: "x", Args: []Operand{lit}}, false},
		{"select typed void with a destination", Instr{Op: OpSelect, Dst: "x", Args: []Operand{r("c"), lit, lit}}, false},
		// Tightened: these panicked in Finalize.
		{"br without a target", Instr{Op: OpBr}, false},
		{"cbr without a target", Instr{Op: OpCBr, Args: []Operand{r("c")}, Else: "exit"}, false},
		{"cbr without an else target", Instr{Op: OpCBr, Args: []Operand{r("c")}, Then: "exit"}, false},
		{"br to an unknown block", Instr{Op: OpBr, Then: "nowhere"}, false},
		{"invalid opcode", Instr{Op: OpInvalid}, false},
		{"opcode out of range", Instr{Op: opCount}, false},
	}
	for _, rc := range rules {
		wantRejected(t, rc.name, rc.in, rc.dev)
	}

	// A short instruction is refused in its printed form, <missing>
	// marking what it lacks (before, the error held a recovered panic).
	short := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: OpAdd, Type: I32, Args: []Operand{r("i")}}, ": add i32 %i, <missing>: "},
		{Instr{Op: OpCBr}, ": cbr <missing>, <missing>, <missing>: "},
	}
	for _, c := range short {
		if _, err := verdict(c.in, false); err == nil || !strings.Contains(err.Error(), c.want) || strings.Contains(err.Error(), "PANIC=") {
			t.Errorf("error %v does not hold %q", err, c.want)
		}
	}
	// Every opcode, and one out of range, prints with any operand count.
	for op := OpInvalid; op <= opCount; op++ {
		for n := 0; n <= 3; n++ {
			in := &Instr{Op: op}
			for range n {
				in.Args = append(in.Args, r("i"))
			}
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("%s with %d operands: print panicked: %v", op, n, p)
					}
				}()
				_ = in.String()
			}()
		}
	}
}
