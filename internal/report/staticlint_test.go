package report

import (
	"strings"
	"testing"

	"cudaadvisor/internal/findings"
	"cudaadvisor/internal/irtext"
	"cudaadvisor/internal/staticadvisor"
)

// A 16-way column store, a conflict-free row load and a broadcast load
// of one shared tile.
const bankDegreesSrc = `
module banks
kernel @k(%n: i32) {
  shared @tile: i32[512]
entry:
  %tx = sreg tid.x
  %tp = shptr @tile
  %sa = gep %tp, %tx, 64
  st i32 shared [%sa], %tx
  bar
  %ra = gep %tp, %tx, 4
  %v = ld i32 shared [%ra]
  %b = ld i32 shared [%tp]
  ret
}
`

// TestBankFindingsFilteredOnce: FromStatic keeps every shared access as
// a bank finding, and both the report and the lint text leave out the
// ones of static degree 1 (conflict-free or broadcast).
func TestBankFindingsFilteredOnce(t *testing.T) {
	m, err := irtext.Parse("banks.mir", bankDegreesSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := staticadvisor.Analyze(m)
	if err != nil {
		t.Fatal(err)
	}
	var degrees []int
	for _, f := range findings.FromStatic(res, 128) {
		if f.Kind == findings.KindBankConflict {
			degrees = append(degrees, f.Static.Degree)
		}
	}
	want := res.Funcs[0].SharedAccesses
	if len(degrees) != len(want) || len(want) != 3 {
		t.Fatalf("FromStatic bank findings = %v, want one per shared access (%d)", degrees, len(want))
	}
	for i, sa := range want {
		if degrees[i] != sa.Degree {
			t.Errorf("bank finding %d has degree %d, the analyzer %d", i, degrees[i], sa.Degree)
		}
	}
	if degrees[0] != 16 || degrees[1] != 1 || degrees[2] != 1 || !want[2].Broadcast {
		t.Fatalf("degrees = %v (broadcast %v), want 16-way, conflict-free, broadcast", degrees, want[2].Broadcast)
	}

	rep := findings.NewReport("banks", "kepler-k40c", 128, 0, findings.FromStatic(res, 128))
	var kept []int
	for _, f := range rep.Findings {
		if f.Kind == findings.KindBankConflict {
			kept = append(kept, f.Static.Degree)
		}
	}
	if len(kept) != 1 || kept[0] != 16 {
		t.Errorf("report bank findings have degrees %v, want only the 16-way one", kept)
	}

	var b strings.Builder
	StaticLint(&b, res)
	out := b.String()
	if !strings.Contains(out, "@tile 16-way stride 64B") || strings.Contains(out, " 1-way") {
		t.Errorf("lint text must list the 16-way access and no degree-1 one:\n%s", out)
	}
}
