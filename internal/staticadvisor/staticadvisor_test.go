package staticadvisor

import (
	"testing"

	"cudaadvisor/internal/irtext"
)

func analyze(t *testing.T, src string) *ModuleResult {
	t.Helper()
	m, err := irtext.Parse("test.mir", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	res, err := Analyze(m)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return res
}

func TestUniformityBasics(t *testing.T) {
	res := analyze(t, `
module m
kernel @k(%p: ptr, %n: i32) {
entry:
  %tx  = sreg tid.x
  %bx  = sreg ctaid.x
  %bd  = sreg ntid.x
  %b   = mul i32 %bx, %bd
  %tid = add i32 %b, %tx
  %two = mul i32 %tid, 2
  %d   = sub i32 %two, %tid
  %c   = icmp lt i32 %tid, %n
  %u   = icmp lt i32 %two, %two
  ret
}
`)
	fr := FuncNamed(res, "k")
	want := map[string]Value{
		"tx":  affine(1),
		"bx":  uniform(),
		"bd":  uniform(),
		"b":   uniform(),
		"tid": affine(1),
		"two": affine(2),
		"d":   affine(1), // affine(2) - affine(1)
		"c":   varying(), // affine vs uniform bound
		"u":   uniform(), // equal-stride affine comparison
	}
	for reg, w := range want {
		if got := fr.RegValue(reg); got != w {
			t.Errorf("%%%s = %v, want %v", reg, got, w)
		}
	}
}

func TestBranchAndRegionFindings(t *testing.T) {
	res := analyze(t, `
module m
kernel @k(%p: ptr, %n: i32) {
entry:
  %tx = sreg tid.x
  %c  = icmp lt i32 %tx, %n
  cbr %c, inner, join
inner:
  %a = gep %p, %tx, 4
  st i32 global [%a], 1
  br join
join:
  ret
}
`)
	fr := FuncNamed(res, "k")
	if len(fr.Branches) != 1 || fr.Branches[0].Cond != "c" || fr.Branches[0].Block != "entry" {
		t.Fatalf("branches = %+v, want one on %%c in entry", fr.Branches)
	}
	if fr.TotalBranches != 1 {
		t.Errorf("TotalBranches = %d, want 1", fr.TotalBranches)
	}
	// inner is in the influence region; entry and the reconvergence
	// point join are not.
	for name, want := range map[string]bool{"entry": false, "inner": true, "join": false} {
		if got := fr.Divergent[BlockNamed(fr, name).Index]; got != want {
			t.Errorf("Divergent[%s] = %v, want %v", name, got, want)
		}
	}
}

func TestUniformBranchNotFlagged(t *testing.T) {
	res := analyze(t, `
module m
kernel @k(%p: ptr, %n: i32) {
entry:
  %i = mov i32 0
  br head
head:
  %c = icmp lt i32 %i, %n
  cbr %c, body, exit
body:
  %a = gep %p, %i, 4
  st i32 global [%a], %i
  %i = add i32 %i, 1
  br head
exit:
  ret
}
`)
	fr := FuncNamed(res, "k")
	if len(fr.Branches) != 0 {
		t.Fatalf("uniform loop flagged: %+v", fr.Branches)
	}
	if n := fr.DivergentBlockCount(); n != 0 {
		t.Errorf("DivergentBlockCount = %d, want 0", n)
	}
}

// Values assigned on the arms of a divergent branch and read after
// reconvergence mix across lanes: the escape taint must make them
// varying even though each definition is uniform.
func TestDivergentMergeTaint(t *testing.T) {
	res := analyze(t, `
module m
kernel @k(%p: ptr, %n: i32) {
entry:
  %tx = sreg tid.x
  %c  = icmp lt i32 %tx, %n
  cbr %c, a, b
a:
  %x = mov i32 0
  br join
b:
  %x = mov i32 1
  br join
join:
  %c2 = icmp eq i32 %x, 0
  cbr %c2, t, f
t:
  br f
f:
  ret
}
`)
	fr := FuncNamed(res, "k")
	if got := fr.RegValue("x"); got != varying() {
		t.Errorf("%%x = %v, want varying (divergent merge)", got)
	}
	if len(fr.Branches) != 2 {
		t.Errorf("branches = %+v, want both cbrs flagged", fr.Branches)
	}
}

// A loop whose exit condition varies per lane taints loop-carried
// values used after the loop, but a uniform counter stays uniform when
// only read inside.
func TestVaryingLoopEscape(t *testing.T) {
	res := analyze(t, `
module m
kernel @k(%p: ptr, %n: i32) {
entry:
  %tx  = sreg tid.x
  %end = add i32 %tx, %n
  %i   = mov i32 0
  %u   = mov i32 0
  br head
head:
  %c = icmp lt i32 %i, %end
  cbr %c, body, exit
body:
  %i = add i32 %i, 1
  %u = add i32 %u, 2
  br head
exit:
  %a = gep %p, %u, 4
  st i32 global [%a], %u
  ret
}
`)
	fr := FuncNamed(res, "k")
	// %u is defined in the varying loop's influence region and read
	// after it: lanes exit at different trip counts, so it is varying.
	if got := fr.RegValue("u"); got != varying() {
		t.Errorf("%%u = %v, want varying (escapes divergent loop)", got)
	}
	if fr.Accesses[0].Class != ClassDivergent {
		t.Errorf("store class = %v, want divergent", fr.Accesses[0].Class)
	}
}

func TestMemoryClassification(t *testing.T) {
	res := analyze(t, `
module m
kernel @k(%p: ptr, %q: ptr, %n: i32) {
entry:
  %tx  = sreg tid.x
  %u   = gep %p, %n, 4
  %v0  = ld i32 global [%u]
  %a   = gep %p, %tx, 4
  %v1  = ld i32 global [%a]
  %r   = mul i32 %tx, 2
  %b   = gep %p, %r, 4
  %v2  = ld i32 global [%b]
  %c   = gep %q, %v1, 4
  %v3  = ld i32 global [%c]
  st i32 global [%u], %v3
  st i32 global [%a], %v0
  st i32 global [%b], %v2
  ret
}
`)
	fr := FuncNamed(res, "k")
	wantClass := []AccessClass{
		ClassUniform,   // ld [%u]
		ClassCoalesced, // ld [%a] stride 4
		ClassStrided,   // ld [%b] stride 8
		ClassDivergent, // ld [%c] data-dependent
		ClassUniform,   // st [%u]
		ClassCoalesced, // st [%a]
		ClassStrided,   // st [%b]
	}
	if len(fr.Accesses) != len(wantClass) {
		t.Fatalf("got %d accesses, want %d", len(fr.Accesses), len(wantClass))
	}
	for i, want := range wantClass {
		if fr.Accesses[i].Class != want {
			t.Errorf("access %d (%s at %s) class = %v, want %v",
				i, fr.Accesses[i].Op, fr.Accesses[i].Loc, fr.Accesses[i].Class, want)
		}
	}
	// Predicted lines: coalesced 4B stride covers 128B in one Kepler
	// line, four Pascal lines; stride-8 doubles the span.
	if got := fr.Accesses[1].PredictedLines(128); got != 1 {
		t.Errorf("coalesced lines @128B = %d, want 1", got)
	}
	if got := fr.Accesses[1].PredictedLines(32); got != 4 {
		t.Errorf("coalesced lines @32B = %d, want 4", got)
	}
	if got := fr.Accesses[2].PredictedLines(128); got != 2 {
		t.Errorf("stride-8 lines @128B = %d, want 2", got)
	}
	if got := fr.Accesses[3].PredictedLines(128); got != 32 {
		t.Errorf("divergent lines = %d, want 32", got)
	}
}

func TestBarrierLint(t *testing.T) {
	res := analyze(t, `
module m
kernel @k(%p: ptr, %n: i32) {
entry:
  %tx = sreg tid.x
  %c  = icmp lt i32 %tx, %n
  cbr %c, guarded, join
guarded:
  bar
  br join
join:
  bar
  ret
}
`)
	fr := FuncNamed(res, "k")
	if len(fr.Barriers) != 1 || fr.Barriers[0].Block != "guarded" {
		t.Fatalf("barriers = %+v, want exactly the guarded one", fr.Barriers)
	}
}

// Interprocedural: a device function called with varying arguments
// under divergent control is divergent throughout, and its return value
// shape follows its arguments.
func TestInterprocedural(t *testing.T) {
	res := analyze(t, `
module m
func @double(%x: i32): i32 {
entry:
  %r = mul i32 %x, 2
  ret %r
}
func @pick(%x: i32): i32 {
entry:
  %c = icmp lt i32 %x, 0
  cbr %c, neg, pos
neg:
  ret 0
pos:
  ret 1
}
kernel @k(%p: ptr, %n: i32) {
entry:
  %tx = sreg tid.x
  %c  = icmp lt i32 %tx, %n
  cbr %c, work, exit
work:
  %d  = call @double(%tx)
  %s  = call @pick(%n)
  %a  = gep %p, %d, 4
  st i32 global [%a], %s
  br exit
exit:
  ret
}
`)
	// @double is called with an affine argument: its doubling preserves
	// affineness, so the store through %d is strided.
	dbl := FuncNamed(res, "double")
	if got := RetOf(dbl); got != affine(2) {
		t.Errorf("@double ret = %v, want affine(2)", got)
	}
	if !dbl.DivergentEntry {
		t.Error("@double should be marked divergent-entry (called from a guarded block)")
	}
	for _, b := range dbl.Fn.Blocks {
		if !dbl.Divergent[b.Index] {
			t.Errorf("@double block %s should be divergent", b.Name)
		}
	}
	// @pick returns through two divergent rets? No: its condition is
	// uniform (%n), so the two ret sites join to uniform.
	if got := RetOf(FuncNamed(res, "pick")); got != uniform() {
		t.Errorf("@pick ret = %v, want uniform", got)
	}
	fr := FuncNamed(res, "k")
	if got := fr.RegValue("d"); got != affine(2) {
		t.Errorf("%%d = %v, want affine(2)", got)
	}
	if fr.Accesses[0].Class != ClassStrided {
		t.Errorf("store class = %v, want strided", fr.Accesses[0].Class)
	}
}

// A callee that returns different constants on the arms of an
// internally divergent branch must summarize as varying.
func TestDivergentReturnSummary(t *testing.T) {
	res := analyze(t, `
module m
func @sign(%x: i32): i32 {
entry:
  %c = icmp lt i32 %x, 0
  cbr %c, neg, pos
neg:
  ret 0
pos:
  ret 1
}
kernel @k(%p: ptr) {
entry:
  %tx = sreg tid.x
  %h  = sub i32 16, %tx
  %s  = call @sign(%h)
  %a  = gep %p, %s, 4
  st i32 global [%a], %s
  ret
}
`)
	if got := RetOf(FuncNamed(res, "sign")); got != varying() {
		t.Errorf("@sign ret = %v, want varying (divergent rets)", got)
	}
}

func TestSelectAndLoadShapes(t *testing.T) {
	res := analyze(t, `
module m
kernel @k(%p: ptr, %n: i32) {
entry:
  %tx = sreg tid.x
  %cu = icmp lt i32 %n, 8
  %su = select i32 %cu, 3, 4
  %cv = icmp lt i32 %tx, 8
  %sv = select i32 %cv, 3, 4
  %ua = gep %p, %n, 4
  %lu = ld i32 global [%ua]
  %va = gep %p, %tx, 4
  %lv = ld i32 global [%va]
  st i32 global [%ua], %su
  st i32 global [%ua], %sv
  st i32 global [%ua], %lu
  st i32 global [%ua], %lv
  ret
}
`)
	fr := FuncNamed(res, "k")
	for reg, want := range map[string]Value{
		"su": uniform(), // uniform select of uniform arms
		"sv": varying(), // varying predicate
		"lu": uniform(), // broadcast load
		"lv": varying(), // per-lane load
	} {
		if got := fr.RegValue(reg); got != want {
			t.Errorf("%%%s = %v, want %v", reg, got, want)
		}
	}
}
