package main

import (
	"strings"
	"testing"

	"cudaadvisor/internal/ir"
	"cudaadvisor/internal/irtext"
	"cudaadvisor/internal/pass"
)

const lintSrc = `
module lintme
kernel @k(%p: ptr, %n: i32) {
entry:
  %tx = sreg tid.x
  %c  = icmp lt i32 %tx, %n
  cbr %c, guarded, exit
guarded:
  %a = gep %p, %tx, 4
  st i32 global [%a], 1
  bar
  br exit
exit:
  ret
}
`

func parse(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := irtext.Parse("test.mir", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return m
}

// runLint runs the named lint passes over lintSrc in one pipeline and
// returns what they printed and the module.
func runLint(t *testing.T, names ...string) (string, *ir.Module) {
	t.Helper()
	m := parse(t, lintSrc)
	var out strings.Builder
	reg := passRegistry(&out)
	pm := pass.NewManager()
	for _, n := range names {
		pm.Add(reg[n]())
	}
	if err := pm.Run(m); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return out.String(), m
}

func TestLintPasses(t *testing.T) {
	printed := ir.Print(parse(t, lintSrc))
	out, m := runLint(t, "lint")
	for _, want := range []string{
		"lint-branch: @k block entry: divergent branch on %c",
		"lint-mem: @k block guarded: st global 4B: coalesced",
		"lint-barrier: @k block guarded: barrier under divergent control flow",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("lint output missing %q:\n%s", want, out)
		}
	}
	if got := ir.Print(m); got != printed {
		t.Errorf("lint mutated the module:\n--- before\n%s\n--- after\n%s", printed, got)
	}
}

// TestFindingStrings pins the per-kind line format of the single-kind
// passes, run one after another.
func TestFindingStrings(t *testing.T) {
	out, _ := runLint(t, "lint-branch", "lint-mem", "lint-barrier")
	for _, want := range []string{
		"lint-branch: @k block entry: divergent branch on %c (varying) at test.mir:",
		"lint-mem: @k block guarded: st global 4B: coalesced (stride 4B)",
		"lint-barrier: @k block guarded: barrier under divergent control flow",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestLintPassNames(t *testing.T) {
	reg := passRegistry(&strings.Builder{})
	for _, want := range []string{"lint", "lint-branch", "lint-mem", "lint-barrier", "lint-smem"} {
		mk, ok := reg[want]
		if !ok {
			t.Errorf("no pass %q", want)
			continue
		}
		if got := mk().Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
}
