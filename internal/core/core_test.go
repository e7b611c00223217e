package core

import (
	"fmt"
	"strings"
	"testing"

	"cudaadvisor/internal/analysis"
	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/instrument"
	"cudaadvisor/internal/irtext"
	"cudaadvisor/internal/rt"
)

const sessionSrc = `
module session
kernel @touch(%p: ptr, %n: i32) {
entry:
  %tx = sreg tid.x
  %bx = sreg ctaid.x
  %bd = sreg ntid.x
  %b  = mul i32 %bx, %bd
  %i  = add i32 %b, %tx
  %c  = icmp lt i32 %i, %n
  cbr %c, body, exit
body:
  %a = gep %p, %i, 4
  %v = ld f32 global [%a]
  %w = fadd f32 %v, 1.0
  st f32 global [%a], %w
  br exit
exit:
  ret
}
`

// runSession drives one full advisor session with two kernel launches.
func runSession(t *testing.T, opts instrument.Options) *Advisor {
	t.Helper()
	adv, _ := openSession(t, opts)
	return adv
}

// openSession is runSession that also hands back the launch, for a test
// that goes on launching after it has read an analysis.
func openSession(t *testing.T, opts instrument.Options) (*Advisor, func()) {
	t.Helper()
	adv := New(gpu.KeplerK40c(), opts)
	m, err := irtext.Parse("session.mir", sessionSrc)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := adv.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	ctx := adv.Context()
	leave := ctx.Enter("main")
	defer leave()
	const n = 512
	d, err := ctx.CudaMalloc(4 * n)
	if err != nil {
		t.Fatal(err)
	}
	launch := func() {
		t.Helper()
		if _, err := ctx.Launch(prog, "touch", rt.Dim(2), rt.Dim(256),
			rt.Ptr(d), rt.I32(n)); err != nil {
			t.Fatal(err)
		}
	}
	launch()
	launch()
	return adv, launch
}

func TestAdvisorWorkflow(t *testing.T) {
	adv := runSession(t, instrument.MemoryAndBlocks())
	if got := len(adv.Kernels()); got != 2 {
		t.Fatalf("kernel instances = %d, want 2", got)
	}
	rd := adv.ReuseDistance(analysis.DefaultElementReuse())
	if rd.Samples == 0 {
		t.Error("no reuse samples")
	}
	// The second launch re-reads the same elements: within each instance
	// the reads are cold, so most accesses are no-reuse (per-instance
	// analysis, like the paper's per-kernel attribution).
	md := adv.MemDivergence()
	if md.Total == 0 || md.Degree() != 1 {
		t.Errorf("memory divergence degree = %.2f, want 1 (coalesced)", md.Degree())
	}
	bd := adv.BranchDivergence()
	if bd.Total == 0 {
		t.Error("no block executions")
	}
	if bd.Divergent != 0 {
		t.Errorf("divergent = %d, want 0 (uniform guard)", bd.Divergent)
	}
}

// TestAdvisorDerivesOnce: the analyzer and report methods share one
// analysis bundle, so an aggregate is derived once however many of them
// read it — and a launch after that is not lost: the next read sees it.
func TestAdvisorDerivesOnce(t *testing.T) {
	adv, launch := openSession(t, instrument.MemoryAndBlocks())
	md := adv.MemDivergence()
	adv.WriteCodeCentric(&strings.Builder{}, 2)
	adv.PredictBypassWarps(8)
	if adv.MemDivergence() != md {
		t.Error("memory divergence was derived again within one session state")
	}
	rd, perKernel := adv.ReuseDistance(analysis.DefaultElementReuse()), adv.analyses().ReuseElemByKernel()["touch"]
	var report strings.Builder
	adv.WriteReuseReport(&report)
	if adv.ReuseDistance(analysis.DefaultElementReuse()) != rd || adv.analyses().ReuseElemByKernel()["touch"] != perKernel {
		t.Error("reuse distance was derived again within one session state")
	}
	// One kernel name: the per-kernel histogram the report prints is the
	// whole run's, from the same walk.
	if *perKernel != *rd || !strings.Contains(report.String(), fmt.Sprintf("touch (%d accesses", rd.Samples)) {
		t.Errorf("reuse report does not print the bundle's profile %+v:\n%s", *rd, report.String())
	}
	launch()
	if got := adv.MemDivergence(); got == md || got.Total != md.Total/2*3 {
		t.Errorf("after a third launch: total %d (same result: %v), want %d from a fresh derivation",
			got.Total, got == md, md.Total/2*3)
	}
}

func TestAdvisorReports(t *testing.T) {
	adv := runSession(t, instrument.MemoryAndBlocks())
	var sb strings.Builder
	adv.WriteReuseReport(&sb)
	if !strings.Contains(sb.String(), "touch") {
		t.Errorf("reuse report missing kernel name:\n%s", sb.String())
	}
	sb.Reset()
	adv.WriteMemDivergenceReport(&sb)
	if !strings.Contains(sb.String(), "degree") {
		t.Error("memory divergence report empty")
	}
	sb.Reset()
	adv.WriteBranchDivergenceReport(&sb)
	if !strings.Contains(sb.String(), "branch divergence") {
		t.Error("branch divergence report empty")
	}
	sb.Reset()
	adv.WriteCodeCentric(&sb, 2)
	if !strings.Contains(sb.String(), "main()") {
		t.Errorf("code-centric view missing host frame:\n%s", sb.String())
	}
}

func TestAdvisorPredictBypassWarps(t *testing.T) {
	adv := runSession(t, instrument.Options{Memory: true})
	// Streaming kernel (reads each element once): the model leaves all
	// warps on L1.
	if got := adv.PredictBypassWarps(8); got != 8 {
		t.Errorf("PredictBypassWarps = %d, want 8 (streaming)", got)
	}
}
