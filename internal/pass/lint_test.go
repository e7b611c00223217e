package pass

import (
	"strings"
	"testing"

	"cudaadvisor/internal/ir"
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

func TestLintPasses(t *testing.T) {
	m := parse(t, lintSrc)
	printed := ir.Print(m)

	var out strings.Builder
	pm := NewManager(Lint(&out))
	if err := pm.Run(m); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, want := range []string{
		"lint-branch: @k block entry: divergent branch on %c",
		"lint-mem: @k block guarded: st global 4B: coalesced",
		"lint-barrier: @k block guarded: barrier under divergent control flow",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("lint output missing %q:\n%s", want, out.String())
		}
	}
	if got := ir.Print(m); got != printed {
		t.Errorf("lint mutated the module:\n--- before\n%s\n--- after\n%s", printed, got)
	}
}

func TestLintPassNames(t *testing.T) {
	var w strings.Builder
	for _, tc := range []struct {
		p    Pass
		want string
	}{
		{Lint(&w), "lint"},
		{LintBranches(&w), "lint-branch"},
		{LintMemory(&w), "lint-mem"},
		{LintBarriers(&w), "lint-barrier"},
	} {
		if got := tc.p.Name(); got != tc.want {
			t.Errorf("Name() = %q, want %q", got, tc.want)
		}
	}
}
