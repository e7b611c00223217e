package bypass

import (
	"strings"
	"testing"

	"cudaadvisor/internal/analysis"
	"cudaadvisor/internal/apps"
	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/instrument"
	"cudaadvisor/internal/ir"
	"cudaadvisor/internal/irtext"
	"cudaadvisor/internal/profiler"
	"cudaadvisor/internal/rt"
)

func TestVerticalPlanSelection(t *testing.T) {
	streamLoc := ir.Loc{File: "k.mir", Line: 10}
	reuseLoc := ir.Loc{File: "k.mir", Line: 20}
	smallLoc := ir.Loc{File: "k.mir", Line: 30}
	sites := map[ir.Loc]*analysis.SiteReuse{
		streamLoc: {Loc: streamLoc, Samples: 1000, Reused: 5},
		reuseLoc:  {Loc: reuseLoc, Samples: 1000, Reused: 800},
		smallLoc:  {Loc: smallLoc, Samples: 10, Reused: 0},
	}
	plan := VerticalPlan(sites)
	if len(plan) != 1 || plan[0] != streamLoc {
		t.Fatalf("plan = %v, want only the streaming site", plan)
	}
}

func TestApplyVertical(t *testing.T) {
	src := `
module v
kernel @k(%p: ptr, %q: ptr) {
entry:
  %tx = sreg tid.x
  %a  = gep %p, %tx, 4
  %v  = ld f32 global [%a]
  %b  = gep %q, %tx, 4
  %w  = ld f32 global [%b]
  %s  = fadd f32 %v, %w
  st f32 global [%a], %s
  ret
}
`
	m, err := irtext.Parse("v.mir", src)
	if err != nil {
		t.Fatal(err)
	}
	// Bypass only the first load (its source line).
	var firstLoad ir.Loc
	for _, in := range m.Func("k").Blocks[0].Instrs {
		if in.Op == ir.OpLd {
			firstLoad = in.Loc
			break
		}
	}
	n := ApplyVertical(m, []ir.Loc{firstLoad})
	if n != 1 {
		t.Fatalf("rewrote %d loads, want 1", n)
	}
	text := ir.PrintFunc(m.Func("k"))
	if !strings.Contains(text, "ld.cg f32 global") {
		t.Errorf("no ld.cg in printed function:\n%s", text)
	}
	if strings.Count(text, "ld.cg") != 1 {
		t.Errorf("wrong number of ld.cg:\n%s", text)
	}
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	// Idempotence: applying again rewrites nothing.
	if n := ApplyVertical(m, []ir.Loc{firstLoad}); n != 0 {
		t.Errorf("second apply rewrote %d loads, want 0", n)
	}
}

// TestVerticalBypassOnBicg runs the full tool flow: profile bicg, plan the
// vertical bypass from its per-site reuse, rewrite the native module, and
// check that the streaming matrix loads were selected while the broadcast
// vector loads were kept cached.
func TestVerticalBypassOnBicg(t *testing.T) {
	a := apps.ByName("bicg")
	cfg := gpu.KeplerK40c().WithL1(16 * 1024)

	prog, err := a.Instrumented(instrument.Options{Memory: true})
	if err != nil {
		t.Fatal(err)
	}
	p := profiler.New()
	ctx := rt.NewContext(gpu.NewDevice(cfg, 512<<20), p)
	if err := a.Run(ctx, prog, 1); err != nil {
		t.Fatal(err)
	}
	// Element granularity is the right bypass criterion: at line
	// granularity a coalesced streaming load looks reused because its 32
	// lanes share one line within a single warp instruction.
	sites := map[ir.Loc]*analysis.SiteReuse{}
	for _, kp := range p.Kernels {
		analysis.MergeSiteReuse(sites, analysis.ReuseBySite(kp.Trace, analysis.DefaultElementReuse(), nil))
	}
	plan := VerticalPlan(sites)
	if len(plan) == 0 {
		t.Fatal("vertical plan empty: bicg's matrix loads are streaming")
	}

	// Apply to a fresh native module and verify the rewrite took.
	m, err := a.Module()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	n := ApplyVertical(m, plan)
	if n == 0 {
		t.Fatal("no loads rewritten")
	}
	// The r[i]/p[j] broadcast loads (heavily reused) must stay cached.
	text := ir.Print(m)
	if !strings.Contains(text, "ld.cg") {
		t.Error("no non-cached loads in rewritten module")
	}
	if !strings.Contains(text, "ld f32 global [%ra]") && !strings.Contains(text, "ld f32 global [%pa]") {
		t.Errorf("broadcast loads were bypassed too:\n%s", text)
	}

	// And the rewritten module still computes the right answer.
	ctx2 := rt.NewContext(gpu.NewDevice(cfg, 512<<20), nil)
	if err := a.Run(ctx2, instrument.NativeProgram(m), 1); err != nil {
		t.Fatalf("vertical-bypassed bicg validation failed: %v", err)
	}
}
