package ir

import (
	"strings"
	"testing"
)

// buildSimpleKernel builds:
//
//	kernel @k(%p: ptr, %n: i32)
//	entry: %t = sreg tid.x; %c = icmp lt i32 %t, %n; cbr %c, body, exit
//	body:  %a = gep %p, %t, 4; %v = ld f32 global [%a];
//	       %w = fadd f32 %v, 1.0; st f32 global [%a], %w; br exit
//	exit:  ret
func buildSimpleKernel(t *testing.T) *Module {
	t.Helper()
	b := NewKernel("k", P("p", Ptr), P("n", I32))
	b.Blk("entry").
		SReg("t", SRegTidX).
		ICmp("c", PredLT, I32, R("t"), R("n")).
		CBr(R("c"), "body", "exit")
	b.Blk("body").
		GEP("a", R("p"), R("t"), 4).
		Ld("v", MemF32, Global, R("a")).
		FBin("w", OpFAdd, R("v"), FloatOp(1.0)).
		St(MemF32, Global, R("a"), R("w")).
		Br("exit")
	b.Blk("exit").Ret()
	m, err := BuildModule("test", b.Done())
	if err != nil {
		t.Fatalf("BuildModule: %v", err)
	}
	return m
}

func TestFinalizeAssignsRegisters(t *testing.T) {
	m := buildSimpleKernel(t)
	f := m.Func("k")
	if f == nil {
		t.Fatal("kernel not found")
	}
	// Params first.
	if got := f.regIndex["p"]; got != 0 {
		t.Errorf("regIndex[p] = %d, want 0", got)
	}
	if got := f.regIndex["n"]; got != 1 {
		t.Errorf("regIndex[n] = %d, want 1", got)
	}
	if f.NumRegs != 7 {
		t.Errorf("NumRegs = %d, want 7 (p n t c a v w)", f.NumRegs)
	}
	if f.RegTypes[f.regIndex["c"]] != I1 {
		t.Errorf("type of %%c = %s, want i1", f.RegTypes[f.regIndex["c"]])
	}
	if f.RegTypes[f.regIndex["a"]] != Ptr {
		t.Errorf("type of %%a = %s, want ptr", f.RegTypes[f.regIndex["a"]])
	}
	if f.RegTypes[f.regIndex["v"]] != F32 {
		t.Errorf("type of %%v = %s, want f32", f.RegTypes[f.regIndex["v"]])
	}
}

func TestFinalizeResolvesBranches(t *testing.T) {
	m := buildSimpleKernel(t)
	f := m.Func("k")
	cbr := f.Blocks[0].Terminator()
	if cbr.Op != OpCBr {
		t.Fatalf("entry terminator = %s, want cbr", cbr.Op)
	}
	if cbr.ThenIdx != 1 || cbr.ElseIdx != 2 {
		t.Errorf("cbr targets = (%d, %d), want (1, 2)", cbr.ThenIdx, cbr.ElseIdx)
	}
}

func TestCFGEdges(t *testing.T) {
	m := buildSimpleKernel(t)
	f := m.Func("k")
	entry, body, exit := f.Blocks[0], f.Blocks[1], f.Blocks[2]
	if len(entry.Succs) != 2 || entry.Succs[0] != body || entry.Succs[1] != exit {
		t.Errorf("entry succs wrong: %v", names(entry.Succs))
	}
	if preds := predecessors(f)[exit.Index]; len(preds) != 2 || preds[0] != entry || preds[1] != body {
		t.Errorf("exit preds = %v, want [entry body]", names(preds))
	}
}

func names(bs []*Block) []string {
	var out []string
	for _, b := range bs {
		out = append(out, b.Name)
	}
	return out
}

func TestVerifyAcceptsWellTyped(t *testing.T) {
	m := buildSimpleKernel(t)
	if err := Verify(m); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestVerifyRejectsBadTypes(t *testing.T) {
	// fadd of an integer register.
	b := NewKernel("bad", P("n", I32))
	b.Blk("entry").
		FBin("x", OpFAdd, R("n"), R("n")).
		Ret()
	m, err := BuildModule("test", b.Done())
	if err != nil {
		return // rejected at finalize: also acceptable
	}
	if err := Verify(m); err == nil {
		t.Fatal("Verify accepted fadd on i32 operands")
	}
}

func TestVerifyRejectsMidBlockTerminator(t *testing.T) {
	f := &Function{Name: "bad", IsKernel: true}
	f.Blocks = []*Block{{
		Name: "entry",
		Instrs: []*Instr{
			{Op: OpRet},
			{Op: OpRet},
		},
	}}
	m := NewModule("test")
	m.AddFunc(f)
	if err := m.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	if err := Verify(m); err == nil || !strings.Contains(err.Error(), "mid-block") {
		t.Fatalf("Verify = %v, want mid-block terminator error", err)
	}
}

func TestVerifyRejectsUnterminatedBlock(t *testing.T) {
	f := &Function{Name: "bad", IsKernel: true}
	f.Blocks = []*Block{{
		Name:   "entry",
		Instrs: []*Instr{{Op: OpSReg, SReg: SRegTidX, Dst: "t"}},
	}}
	m := NewModule("test")
	m.AddFunc(f)
	if err := m.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	if err := Verify(m); err == nil {
		t.Fatal("Verify accepted unterminated block")
	}
}

func TestFinalizeRejectsUndefinedRegister(t *testing.T) {
	b := NewKernel("bad")
	b.Blk("entry").
		Add("x", R("ghost"), I32Op(1)).
		Ret()
	if _, err := BuildModule("test", b.Done()); err == nil {
		t.Fatal("Finalize accepted use of undefined register")
	}
}

func TestFinalizeRejectsRetypedRegister(t *testing.T) {
	b := NewKernel("bad")
	b.Blk("entry").
		Mov("x", I32, I32Op(1)).
		FBin("x", OpFAdd, FloatOp(1), FloatOp(2)).
		Ret()
	if _, err := BuildModule("test", b.Done()); err == nil {
		t.Fatal("Finalize accepted register retyped i32 -> f32")
	}
}

func TestFinalizeRejectsUnknownTarget(t *testing.T) {
	b := NewKernel("bad")
	b.Blk("entry").Br("nowhere")
	if _, err := BuildModule("test", b.Done()); err == nil {
		t.Fatal("Finalize accepted branch to unknown block")
	}
}

func TestFinalizeRejectsDuplicateBlocks(t *testing.T) {
	f := &Function{Name: "bad", IsKernel: true}
	f.Blocks = []*Block{
		{Name: "entry", Instrs: []*Instr{{Op: OpRet}}},
		{Name: "entry", Instrs: []*Instr{{Op: OpRet}}},
	}
	m := NewModule("test")
	m.AddFunc(f)
	if err := m.Finalize(); err == nil {
		t.Fatal("Finalize accepted duplicate block names")
	}
}

func TestSharedLayout(t *testing.T) {
	b := NewKernel("k")
	b.Shared("a", MemF32, 3) // 12 bytes -> padded start of next at 16
	b.Shared("b", MemI8, 5)  // at offset 16
	b.Shared("c", MemI64, 2) // aligned to 24
	b.Blk("entry").Ret()
	m, err := BuildModule("test", b.Done())
	if err != nil {
		t.Fatalf("BuildModule: %v", err)
	}
	f := m.Func("k")
	if f.Shared[0].Offset != 0 {
		t.Errorf("a offset = %d", f.Shared[0].Offset)
	}
	if f.Shared[1].Offset != 16 {
		t.Errorf("b offset = %d, want 16", f.Shared[1].Offset)
	}
	if f.Shared[2].Offset != 24 {
		t.Errorf("c offset = %d, want 24", f.Shared[2].Offset)
	}
	if f.SharedBytes != 40 {
		t.Errorf("SharedBytes = %d, want 40", f.SharedBytes)
	}
}

func TestConstOperandTyping(t *testing.T) {
	b := NewKernel("k", P("x", F32))
	b.Blk("entry").
		FBin("y", OpFAdd, R("x"), Operand{Kind: KConstInt, Int: 2}). // int literal in float ctx
		Ret()
	m, err := BuildModule("test", b.Done())
	if err != nil {
		t.Fatalf("BuildModule: %v", err)
	}
	in := m.Func("k").Blocks[0].Instrs[0]
	if in.Args[1].Kind != KConstFloat || in.Args[1].F != 2 {
		t.Errorf("int literal not converted to float: %+v", in.Args[1])
	}
	if err := Verify(m); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestDeviceCallResolution(t *testing.T) {
	callee := NewDeviceFunc("sq", F32, P("x", F32))
	callee.Blk("entry").
		FBin("y", OpFMul, R("x"), R("x")).
		RetVal(R("y"))
	b := NewKernel("k", P("v", F32))
	b.Blk("entry").
		Call("r", "sq", R("v")).
		Ret()
	m, err := BuildModule("test", b.Done(), callee.Done())
	if err != nil {
		t.Fatalf("BuildModule: %v", err)
	}
	if err := Verify(m); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	in := m.Func("k").Blocks[0].Instrs[0]
	if in.CalleeFn == nil || in.CalleeFn.Name != "sq" {
		t.Errorf("callee not resolved: %+v", in.CalleeFn)
	}
	if m.Func("k").RegTypes[in.DstReg] != F32 {
		t.Errorf("call result type = %s, want f32", m.Func("k").RegTypes[in.DstReg])
	}
}

func TestVerifyRejectsCallArityMismatch(t *testing.T) {
	callee := NewDeviceFunc("sq", F32, P("x", F32))
	callee.Blk("entry").RetVal(R("x"))
	b := NewKernel("k", P("v", F32))
	b.Blk("entry").
		Call("", "sq", R("v"), R("v")).
		Ret()
	m, err := BuildModule("test", b.Done(), callee.Done())
	if err != nil {
		t.Fatalf("BuildModule: %v", err)
	}
	if err := Verify(m); err == nil {
		t.Fatal("Verify accepted call arity mismatch")
	}
}

func TestVerifyRejectsBarInDeviceFunc(t *testing.T) {
	d := NewDeviceFunc("df", Void)
	d.Blk("entry").Bar().Ret()
	m, err := BuildModule("test", d.Done())
	if err != nil {
		t.Fatalf("BuildModule: %v", err)
	}
	if err := Verify(m); err == nil {
		t.Fatal("Verify accepted bar in device function")
	}
}

func TestHookCallBypassesResolution(t *testing.T) {
	b := NewKernel("k")
	b.Blk("entry").
		Call("", HookPrefix+"record_mem", I32Op(1), FloatOp(2)).
		Ret()
	m, err := BuildModule("test", b.Done())
	if err != nil {
		t.Fatalf("BuildModule with hook call: %v", err)
	}
	if err := Verify(m); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	in := m.Func("k").Blocks[0].Instrs[0]
	if !in.IsHookCall() {
		t.Error("IsHookCall = false")
	}
	if in.Args[0].Type != I32 || in.Args[1].Type != F32 {
		t.Errorf("hook literal types = %s, %s", in.Args[0].Type, in.Args[1].Type)
	}
}

// blockNamed returns f's block of the given name, or nil.
func blockNamed(f *Function, name string) *Block {
	for _, b := range f.Blocks {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// instrCount is the total number of instructions in f.
func instrCount(f *Function) int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

func TestInstrCount(t *testing.T) {
	m := buildSimpleKernel(t)
	if n := instrCount(m.Func("k")); n != 9 {
		t.Errorf("instructions = %d, want 9", n)
	}
}

func TestTypeSizes(t *testing.T) {
	cases := []struct {
		t    MemType
		size int
	}{{MemI8, 1}, {MemI32, 4}, {MemI64, 8}, {MemF32, 4}}
	for _, c := range cases {
		if got := c.t.Size(); got != c.size {
			t.Errorf("%s.Size() = %d, want %d", c.t, got, c.size)
		}
	}
	if MemI8.Bits() != 8 || MemF32.Bits() != 32 || MemI64.Bits() != 64 {
		t.Error("MemType.Bits wrong")
	}
}
