package instrument

import (
	"strings"
	"testing"

	"cudaadvisor/internal/ir"
	"cudaadvisor/internal/irtext"
)

const src = `
module app
func @helper(%x: f32): f32 {
entry:
  %y = fmul f32 %x, 2.0
  ret %y
}
kernel @k(%p: ptr, %n: i32) {
entry:
  %tx = sreg tid.x
  %c  = icmp lt i32 %tx, %n
  cbr %c, body, exit
body:
  %a = gep %p, %tx, 4
  %v = ld f32 global [%a]
  %w = call @helper(%v)
  st f32 global [%a], %w
  br exit
exit:
  ret
}
`

func parse(t *testing.T) *ir.Module {
	t.Helper()
	m, err := irtext.Parse("app.mir", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return m
}

func countHooks(m *ir.Module, name string) int {
	n := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall && in.Callee == name {
					n++
				}
			}
		}
	}
	return n
}

func TestInstrumentMemory(t *testing.T) {
	m := parse(t)
	prog, err := Instrument(m, Options{Memory: true})
	if err != nil {
		t.Fatalf("Instrument: %v", err)
	}
	if got := countHooks(m, HookMem); got != 2 { // one ld + one st
		t.Errorf("mem hooks = %d, want 2", got)
	}
	if got := countHooks(m, HookBB); got != 0 {
		t.Errorf("bb hooks = %d, want 0", got)
	}
	// Mandatory call bracketing is always present.
	if countHooks(m, HookPush) != 1 || countHooks(m, HookPop) != 1 {
		t.Error("device call not bracketed with push/pop")
	}
	if prog.Tables == nil || len(prog.Tables.Funcs) != 2 {
		t.Fatalf("tables = %+v", prog.Tables)
	}
	if err := ir.Verify(m); err != nil {
		t.Fatalf("instrumented module invalid: %v", err)
	}
}

func TestInstrumentMemHookArguments(t *testing.T) {
	m := parse(t)
	if _, err := Instrument(m, Options{Memory: true}); err != nil {
		t.Fatalf("Instrument: %v", err)
	}
	k := m.Func("k")
	var ldHook, stHook *ir.Instr
	for _, b := range k.Blocks {
		for i, in := range b.Instrs {
			if in.Op == ir.OpCall && in.Callee == HookMem {
				prev := b.Instrs[i-1]
				switch prev.Op {
				case ir.OpLd:
					ldHook = in
				case ir.OpSt:
					stHook = in
				default:
					t.Errorf("mem hook does not follow a memory op (follows %s)", prev.Op)
				}
			}
		}
	}
	if ldHook == nil || stHook == nil {
		t.Fatal("missing hooks after ld/st")
	}
	// (addr, bits, kind, space)
	if len(ldHook.Args) != 4 {
		t.Fatalf("ld hook args = %d", len(ldHook.Args))
	}
	if ldHook.Args[0].Kind != ir.KReg || ldHook.Args[0].Name != "a" {
		t.Errorf("ld hook addr operand = %+v", ldHook.Args[0])
	}
	if ldHook.Args[1].Int != 32 {
		t.Errorf("ld hook bits = %d, want 32", ldHook.Args[1].Int)
	}
	if ldHook.Args[2].Int != 0 {
		t.Errorf("ld hook kind = %d, want 0 (load)", ldHook.Args[2].Int)
	}
	if stHook.Args[2].Int != 1 {
		t.Errorf("st hook kind = %d, want 1 (store)", stHook.Args[2].Int)
	}
	// The hook carries the monitored instruction's debug location.
	wantLine := lineOf(src, "ld f32 global")
	if ldHook.Loc.Line != wantLine {
		t.Errorf("ld hook line = %d, want %d", ldHook.Loc.Line, wantLine)
	}
}

func lineOf(s, needle string) int {
	for i, l := range strings.Split(s, "\n") {
		if strings.Contains(l, needle) {
			return i + 1
		}
	}
	return -1
}

func TestInstrumentBlocks(t *testing.T) {
	m := parse(t)
	prog, err := Instrument(m, Options{Blocks: true})
	if err != nil {
		t.Fatalf("Instrument: %v", err)
	}
	// helper has 1 block; k has 3.
	if got := countHooks(m, HookBB); got != 4 {
		t.Errorf("bb hooks = %d, want 4", got)
	}
	if len(prog.Tables.Blocks) != 4 {
		t.Fatalf("block table = %d entries", len(prog.Tables.Blocks))
	}
	// Every block's first instruction must be its hook.
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			first := b.Instrs[0]
			if first.Op != ir.OpCall || first.Callee != HookBB {
				t.Errorf("func %s block %s does not start with bb hook", f.Name, b.Name)
			}
			id := first.Args[0].Int
			info := prog.Tables.Block(int32(id))
			if info.Func != f.Name || info.Block != b.Name {
				t.Errorf("block id %d resolves to %+v, want %s/%s", id, info, f.Name, b.Name)
			}
		}
	}
}

func TestInstrumentArith(t *testing.T) {
	m := parse(t)
	_, err := Instrument(m, Options{Arith: true})
	if err != nil {
		t.Fatalf("Instrument: %v", err)
	}
	// Arith sites: fmul (helper), icmp, gep? gep is not arith; sitofp none.
	// k: icmp. helper: fmul. => 2 hooks.
	if got := countHooks(m, HookArith); got != 2 {
		t.Errorf("arith hooks = %d, want 2", got)
	}
}

func TestInstrumentRejectsDoubleInstrumentation(t *testing.T) {
	m := parse(t)
	if _, err := Instrument(m, Options{Memory: true}); err != nil {
		t.Fatalf("first Instrument: %v", err)
	}
	if _, err := Instrument(m, Options{Memory: true}); err == nil {
		t.Fatal("double instrumentation accepted")
	}
}

func TestInstrumentSharedMemoryOption(t *testing.T) {
	sharedSrc := `
module sh
kernel @k(%p: ptr) {
  shared @tile: f32[32]
entry:
  %tx = sreg tid.x
  %tp = shptr @tile
  %sa = gep %tp, %tx, 4
  st f32 shared [%sa], 1.0
  %ga = gep %p, %tx, 4
  %v  = ld f32 global [%ga]
  ret
}
`
	m, err := irtext.Parse("sh.mir", sharedSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Instrument(m, Options{Memory: true}); err != nil {
		t.Fatal(err)
	}
	if got := countHooks(m, HookMem); got != 1 { // only the global ld
		t.Errorf("hooks without SharedMemory = %d, want 1", got)
	}

	m2, err := irtext.Parse("sh.mir", sharedSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Instrument(m2, Options{Memory: true, SharedMemory: true}); err != nil {
		t.Fatal(err)
	}
	if got := countHooks(m2, HookMem); got != 2 {
		t.Errorf("hooks with SharedMemory = %d, want 2", got)
	}
}

func TestTablesLookups(t *testing.T) {
	m := parse(t)
	prog, err := Instrument(m, Options{Blocks: true})
	if err != nil {
		t.Fatal(err)
	}
	tb := prog.Tables
	if id, ok := tb.funcID["k"]; !ok || tb.FuncName(id) != "k" {
		t.Errorf("funcID/FuncName roundtrip failed: %d", id)
	}
	if _, ok := tb.funcID["ghost"]; ok {
		t.Error("unknown function has an id")
	}
	if got := tb.FuncName(99); !strings.Contains(got, "99") {
		t.Errorf("FuncName(99) = %q", got)
	}
	if got := tb.Block(-1); got.Func != "<?>" {
		t.Errorf("Block(-1) = %+v", got)
	}
}

func TestNativeProgram(t *testing.T) {
	m := parse(t)
	prog := NativeProgram(m)
	if prog.Tables != nil || prog.Module != m {
		t.Errorf("NativeProgram = %+v", prog)
	}
}
