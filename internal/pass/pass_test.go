package pass

import (
	"strings"
	"testing"

	"cudaadvisor/internal/ir"
	"cudaadvisor/internal/irtext"
)

func parse(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := irtext.Parse("test.mir", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return m
}

const foldSrc = `
module fold
kernel @k(%p: ptr) {
entry:
  %a = add i32 3, 4
  %b = fmul f32 2.0, 8.0
  %c = icmp lt i32 1, 2
  %s = select i32 %c, %a, 9
  %d = sitofp 5
  %z = sdiv i32 10, 0
  %addr = gep %p, %a, 4
  st i32 global [%addr], %z
  st f32 global [%addr], %b
  ret
}
`

func TestConstFold(t *testing.T) {
	m := parse(t, foldSrc)
	pm := NewManager(ConstFold())
	if err := pm.Run(m); err != nil {
		t.Fatalf("Run: %v", err)
	}
	k := m.Func("k")
	ins := k.Blocks[0].Instrs
	if ins[0].Op != ir.OpMov || ins[0].Args[0].Int != 7 {
		t.Errorf("add not folded: %s", ins[0])
	}
	if ins[1].Op != ir.OpMov || ins[1].Args[0].F != 16 {
		t.Errorf("fmul not folded: %s", ins[1])
	}
	if ins[2].Op != ir.OpMov || ins[2].Args[0].Int != 1 {
		t.Errorf("icmp not folded: %s", ins[2])
	}
	if ins[4].Op != ir.OpMov || ins[4].Args[0].Kind != ir.KConstFloat {
		t.Errorf("sitofp not folded: %s", ins[4])
	}
	if ins[5].Op != ir.OpSDiv {
		t.Errorf("sdiv by zero was folded away: %s", ins[5])
	}
}

func TestConstFoldSelectNeedsFoldedCond(t *testing.T) {
	// select with constant cond folds even if the arms are registers? No:
	// arms must also be constant because allConst requires every operand.
	src := `
module m
kernel @k(%x: i32, %p: ptr) {
entry:
  %s = select i32 true, %x, 2
  %a = gep %p, %s, 4
  st i32 global [%a], %s
  ret
}
`
	m := parse(t, src)
	if err := NewManager(ConstFold()).Run(m); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if in := m.Func("k").Blocks[0].Instrs[0]; in.Op != ir.OpSelect {
		t.Errorf("select with register arm folded: %s", in)
	}
}

const dceSrc = `
module dce
kernel @k(%p: ptr, %n: i32) {
entry:
  %dead1 = add i32 %n, 1
  %dead2 = fadd f32 1.0, 2.0
  %live  = mul i32 %n, 4
  %chain = add i32 %dead1, 1   // reads dead1: keeps it... unless chain dies too
  %a = gep %p, %live, 4
  %v = ld i32 global [%a]
  st i32 global [%a], %v
  ret
}
`

func TestDCE(t *testing.T) {
	m := parse(t, dceSrc)
	if err := NewManager(DCE()).Run(m); err != nil {
		t.Fatalf("Run: %v", err)
	}
	k := m.Func("k")
	text := ir.PrintFunc(k)
	// chain is unread -> removed; then dead1 becomes unread -> removed.
	for _, gone := range []string{"dead1", "dead2", "chain"} {
		if strings.Contains(text, gone) {
			t.Errorf("dead instruction %%%s survived DCE:\n%s", gone, text)
		}
	}
	for _, kept := range []string{"live", "ld i32", "st i32"} {
		if !strings.Contains(text, kept) {
			t.Errorf("live code %q removed by DCE:\n%s", kept, text)
		}
	}
}

func TestDCEKeepsPossiblyFaultingDiv(t *testing.T) {
	src := `
module m
kernel @k(%n: i32) {
entry:
  %q = sdiv i32 10, %n   // may trap; must stay even though unread
  %r = sdiv i32 10, 2    // pure: removable
  ret
}
`
	m := parse(t, src)
	if err := NewManager(DCE()).Run(m); err != nil {
		t.Fatalf("Run: %v", err)
	}
	text := ir.PrintFunc(m.Func("k"))
	if !strings.Contains(text, "sdiv i32 10, %n") {
		t.Errorf("possibly-trapping sdiv removed:\n%s", text)
	}
	if strings.Contains(text, "sdiv i32 10, 2") {
		t.Errorf("pure sdiv kept:\n%s", text)
	}
}

func TestDCEKeepsLoads(t *testing.T) {
	src := `
module m
kernel @k(%p: ptr) {
entry:
  %v = ld f32 global [%p]   // unread, but loads are never removed
  ret
}
`
	m := parse(t, src)
	if err := NewManager(DCE()).Run(m); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !strings.Contains(ir.PrintFunc(m.Func("k")), "ld f32") {
		t.Error("DCE removed a load")
	}
}

func TestManagerRejectsInvalidInput(t *testing.T) {
	f := &ir.Function{Name: "bad", IsKernel: true}
	f.Blocks = []*ir.Block{{Name: "entry", Instrs: []*ir.Instr{
		{Op: ir.OpSReg, SReg: ir.SRegTidX, Dst: "t"},
	}}}
	m := ir.NewModule("m")
	m.AddFunc(f)
	pm := NewManager(ConstFold())
	if err := pm.Run(m); err == nil {
		t.Fatal("manager accepted unterminated block")
	}
}

func TestManagerPipelineOrder(t *testing.T) {
	// fold then DCE: the folded moves become dead and vanish.
	src := `
module m
kernel @k(%p: ptr) {
entry:
  %a = add i32 3, 4
  %b = mul i32 %a, 0    // not folded (reads %a)
  ret
}
`
	m := parse(t, src)
	if err := NewManager(ConstFold(), DCE()).Run(m); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n := len(m.Func("k").Blocks[0].Instrs); len(m.Func("k").Blocks) != 1 || n != 1 {
		t.Errorf("instructions after fold+dce = %d, want 1 (just ret):\n%s",
			n, ir.PrintFunc(m.Func("k")))
	}
}

func TestVerifyPass(t *testing.T) {
	m := parse(t, foldSrc)
	if _, err := (VerifyPass{}).Run(m); err != nil {
		t.Fatalf("VerifyPass: %v", err)
	}
}
