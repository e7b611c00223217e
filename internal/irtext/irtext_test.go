package irtext_test

import (
	"strings"
	"testing"

	"cudaadvisor/internal/apps"
	"cudaadvisor/internal/instrument"
	"cudaadvisor/internal/ir"
	"cudaadvisor/internal/irtext"
)

const sampleSrc = `
module sample

// a kernel with a loop, shared memory, and a device call
kernel @scale(%in: ptr, %out: ptr, %n: i32, %f: f32) {
  shared @tile: f32[128]
entry:
  %tx   = sreg tid.x
  %bx   = sreg ctaid.x
  %bdim = sreg ntid.x
  %base = mul i32 %bx, %bdim
  %i    = add i32 %base, %tx
  %c    = icmp lt i32 %i, %n
  cbr %c, body, exit
body:
  %a  = gep %in, %i, 4
  %v  = ld f32 global [%a]
  %sp = gep %tile_p, %tx, 4
  st f32 shared [%sp], %v
  bar
  %w  = call @scaleval(%v, %f)
  %o  = gep %out, %i, 4
  st f32 global [%o], %w
  br exit
exit:
  ret
}

func @scaleval(%x: f32, %k: f32): f32 {
entry:
  %y = fmul f32 %x, %k
  ret %y
}
`

// fixupSrc inserts the shptr for %tile_p that the sample uses.
var fixedSampleSrc = strings.Replace(sampleSrc,
	"body:\n  %a  = gep %in, %i, 4",
	"body:\n  %tile_p = shptr @tile\n  %a  = gep %in, %i, 4", 1)

func TestParseSample(t *testing.T) {
	m, err := irtext.Parse("sample.mir", fixedSampleSrc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if err := ir.Verify(m); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if m.Name != "sample" {
		t.Errorf("module name = %q", m.Name)
	}
	k := m.Func("scale")
	if k == nil || !k.IsKernel {
		t.Fatal("kernel @scale missing")
	}
	if len(k.Params) != 4 || k.Params[3].Type != ir.F32 {
		t.Errorf("params wrong: %+v", k.Params)
	}
	if len(k.Blocks) != 3 {
		t.Errorf("blocks = %d, want 3", len(k.Blocks))
	}
	if k.SharedArray("tile") == nil {
		t.Error("shared array missing")
	}
	d := m.Func("scaleval")
	if d == nil || d.IsKernel || d.Result != ir.F32 {
		t.Fatalf("device func wrong: %+v", d)
	}
}

func TestParseAttachesDebugLocations(t *testing.T) {
	m, err := irtext.Parse("sample.mir", fixedSampleSrc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	k := m.Func("scale")
	for _, b := range k.Blocks {
		for _, in := range b.Instrs {
			if in.Loc.File != "sample.mir" || in.Loc.Line == 0 {
				t.Fatalf("instruction %s missing debug location: %v", in, in.Loc)
			}
		}
	}
	// The ld in body must carry the exact source line of "ld f32 global".
	var ld *ir.Instr
	for _, b := range k.Blocks {
		for _, in := range b.Instrs {
			if b.Name == "body" && in.Op == ir.OpLd && ld == nil {
				ld = in
			}
		}
	}
	if ld == nil {
		t.Fatal("no load found")
	}
	wantLine := lineOf(fixedSampleSrc, "ld f32 global")
	if ld.Loc.Line != wantLine {
		t.Errorf("ld line = %d, want %d", ld.Loc.Line, wantLine)
	}
}

func lineOf(src, needle string) int {
	for i, l := range strings.Split(src, "\n") {
		if strings.Contains(l, needle) {
			return i + 1
		}
	}
	return -1
}

// TestPrintParseRoundTrip checks that a module printed and parsed back is
// equal to itself (roundTrip) and still verifies: the sample, every .mir
// under cmd/*/testdata, and each application's source before and after
// the instrumentation engine adds its hook calls.
func TestPrintParseRoundTrip(t *testing.T) {
	mods := map[string]*ir.Module{}
	for _, file := range append(testdataMIR(t), [2]string{"sample.mir", fixedSampleSrc}) {
		m, err := irtext.Parse(file[0], file[1])
		if err != nil {
			t.Fatalf("Parse %s: %v", file[0], err)
		}
		mods[file[0]] = m
	}
	every := instrument.Options{Memory: true, SharedMemory: true, Blocks: true, Arith: true}
	for _, a := range apps.InTableOrder() {
		m, err := a.Module()
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		p, err := a.Instrumented(every)
		if err != nil {
			t.Fatalf("%s: instrument: %v", a.Name, err)
		}
		mods[a.Name], mods[a.Name+" instrumented"] = m, p.Module
	}
	for name, m := range mods {
		m2, err := roundTrip(m)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if err := ir.Verify(m2); err != nil {
			t.Errorf("%s: Verify round-tripped module: %v", name, err)
		}
	}
}

func TestParseOperandForms(t *testing.T) {
	src := `
module ops
kernel @k(%p: ptr, %x: f32) {
entry:
  %a = add i32 1, 2
  %b = add i64 %a64, -7
  %f = fadd f32 %x, 1.5e-3
  %g = fadd f32 %x, 2
  %n = fneg f32 %g
  %c = icmp ge i32 %a, 0
  %s = select f32 %c, %f, %g
  %z = zext %c
  %q = sext %a
  %t = trunc %q
  %d = sitofp %a
  %e = fptosi %d
  %h = atomadd f32 global [%p], %f
  ret
}
`
	src = strings.Replace(src, "%a64", "%q", 1) // forward use is illegal; rewrite
	// The rewritten line uses %q before its definition textually, but the
	// register allocator is flow-insensitive, so this parses and finalizes.
	m, err := irtext.Parse("ops.mir", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if err := ir.Verify(m); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	k := m.Func("k")
	in := k.Blocks[0].Instrs[0]
	if in.Args[0].Kind != ir.KConstInt || in.Args[0].Int != 1 || in.Args[0].Type != ir.I32 {
		t.Errorf("literal 1 parsed as %+v", in.Args[0])
	}
	// fadd with int literal 2 converts to float.
	g := k.Blocks[0].Instrs[3]
	if g.Args[1].Kind != ir.KConstFloat || g.Args[1].F != 2 {
		t.Errorf("fadd int literal = %+v, want float 2", g.Args[1])
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"no module", "kernel @k() {\nentry:\n  ret\n}\n", "expected 'module"},
		{"bad opcode", "module m\nkernel @k() {\nentry:\n  frobnicate %x\n  ret\n}\n", "unknown opcode"},
		{"bad type", "module m\nkernel @k(%x: f99) {\nentry:\n  ret\n}\n", "unknown type"},
		{"void type", "module m\nkernel @k(%x: void) {\nentry:\n  ret\n}\n", "unknown type"},
		{"?? predicate", "module m\nkernel @k(%x: i32) {\nentry:\n  %c = icmp ?? i32 %x, 0\n  ret\n}\n", "unknown comparison predicate"},
		{"instr before label", "module m\nkernel @k() {\n  ret\n}\n", "before first block"},
		{"unclosed func", "module m\nkernel @k() {\nentry:\n  ret\n", "unexpected EOF"},
		{"bad sreg", "module m\nkernel @k() {\nentry:\n  %t = sreg tid.w\n  ret\n}\n", "special register"},
		{"undefined reg", "module m\nkernel @k() {\nentry:\n  %a = add i32 %ghost, 1\n  ret\n}\n", "undefined register"},
		{"kernel returns", "module m\nkernel @k(): i32 {\nentry:\n  ret 0\n}\n", "cannot return"},
		{"operand count", "module m\nkernel @k(%x: i32) {\nentry:\n  %a = add i32 %x\n  ret\n}\n", "x.mir:4: want 2 operands, have 1"},
		{"trailing tokens", "module m\nkernel @k() {\nentry:\n  ret 1 2\n}\n", "trailing"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := irtext.Parse("x.mir", c.src)
			if err == nil {
				t.Fatalf("Parse accepted %s", c.name)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not contain %q", err, c.want)
			}
		})
	}
}

func TestParseComments(t *testing.T) {
	src := `
module m
// leading comment
kernel @k(%n: i32) { // trailing comment
entry:
  %t = sreg tid.x ; semicolon comment
  ret
}
`
	m, err := irtext.Parse("c.mir", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got := m.Func("k").Blocks[0].Instrs[0].Op; got != ir.OpSReg {
		t.Errorf("first instr op = %s", got)
	}
}

func TestParseCallNoArgs(t *testing.T) {
	src := `
module m
func @noop() {
entry:
  ret
}
kernel @k() {
entry:
  call @noop()
  ret
}
`
	m, err := irtext.Parse("c.mir", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if err := ir.Verify(m); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}
