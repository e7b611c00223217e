package profiler_test

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"cudaadvisor/internal/bypass"
	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/instrument"
	"cudaadvisor/internal/irtext"
	"cudaadvisor/internal/profiler"
	"cudaadvisor/internal/report"
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

// openSession profiles two launches of the touch kernel on Kepler and
// hands back the profiler and the launch, for a test that goes on
// launching after it has read an analysis.
func openSession(t *testing.T, opts instrument.Options) (*profiler.Profiler, func()) {
	t.Helper()
	m, err := irtext.Parse("session.mir", sessionSrc)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := instrument.Instrument(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	p := profiler.New()
	ctx := rt.NewContext(gpu.NewDevice(gpu.KeplerK40c(), 1<<20), p)
	leave := ctx.Enter("main")
	defer leave()
	const n = 512
	d, err := ctx.CudaMalloc(4 * n)
	if err != nil {
		t.Fatal(err)
	}
	launch := func() {
		t.Helper()
		if _, err := ctx.Launch(prog, "touch", rt.Dim(2), rt.Dim(256), rt.Ptr(d), rt.I32(n)); err != nil {
			t.Fatal(err)
		}
	}
	launch()
	launch()
	return p, launch
}

// TestSessionAnalyses: two launches of a coalesced, uniformly guarded
// kernel give two instances, reuse samples, memory degree 1 and no
// divergent block.
func TestSessionAnalyses(t *testing.T) {
	p, _ := openSession(t, instrument.MemoryAndBlocks())
	if got := len(p.Kernels); got != 2 {
		t.Fatalf("kernel instances = %d, want 2", got)
	}
	an := p.Analyses(gpu.KeplerK40c().L1LineSize)
	if an.ReuseElem().Samples == 0 {
		t.Error("no reuse samples")
	}
	if md := an.MemDiv(); md.Total == 0 || md.Degree() != 1 {
		t.Errorf("memory divergence degree = %.2f, want 1 (coalesced)", md.Degree())
	}
	if bd := an.BranchDiv(); bd.Total == 0 || bd.Divergent != 0 {
		t.Errorf("branch divergence %d of %d blocks, want 0 of some (uniform guard)", bd.Divergent, bd.Total)
	}
}

// TestSessionDerivesOnce: every report section and the bypass model read
// the one analysis bundle, so once each aggregate has been read nothing
// derives again; the per-kernel reuse report prints the bundle's
// profile; and a launch after that is not lost: the next read sees it.
func TestSessionDerivesOnce(t *testing.T) {
	p, launch := openSession(t, instrument.MemorySharedAndBlocks())
	arch := gpu.KeplerK40c()
	an := p.Analyses(arch.L1LineSize)
	md, rd, perKernel := an.MemDiv(), an.ReuseElem(), an.ReuseElemByKernel()["touch"]
	an.ReuseLine()
	an.BranchDiv()
	an.SharedBank()
	an.SharedRaces()

	derived := 0
	defer profiler.OnDerive(func() { derived++ })()
	var reuse strings.Builder
	report.ReuseByKernel(&reuse, an.ReuseElemByKernel())
	report.MemDivDistribution(io.Discard, "all kernels", an.MemDiv())
	report.BranchDivergence(io.Discard, an.BranchDiv())
	report.SharedMem(io.Discard, an.SharedBank(), an.SharedRaces())
	report.CodeCentric(io.Discard, p, an.MemDiv(), 2)
	bypass.PredictFromProfiles(arch, an.ReuseLine(), an.ReuseElem(), an.MemDiv(), 8, 1)
	if derived != 0 || an.MemDiv() != md || an.ReuseElem() != rd || p.Analyses(arch.L1LineSize) != an {
		t.Errorf("rendering derived %d instances again within one session state", derived)
	}
	// One kernel name: the per-kernel histogram the report prints is the
	// whole run's, from the same walk.
	if *perKernel != *rd || !strings.Contains(reuse.String(), fmt.Sprintf("touch (%d accesses", rd.Samples)) {
		t.Errorf("reuse report does not print the bundle's profile %+v:\n%s", *rd, reuse.String())
	}

	launch()
	if got := p.Analyses(arch.L1LineSize).MemDiv(); got == md || got.Total != md.Total/2*3 {
		t.Errorf("after a third launch: total %d (same result: %v), want %d from a fresh derivation",
			got.Total, got == md, md.Total/2*3)
	}
}

// TestSessionReports: each report section names what it reports.
func TestSessionReports(t *testing.T) {
	p, _ := openSession(t, instrument.MemorySharedAndBlocks())
	an := p.Analyses(gpu.KeplerK40c().L1LineSize)
	for _, c := range []struct {
		name, want string
		render     func(io.Writer)
	}{
		{"reuse", "reuse distance: touch (", func(w io.Writer) { report.ReuseByKernel(w, an.ReuseElemByKernel()) }},
		{"memory", "degree 1.00", func(w io.Writer) { report.MemDivDistribution(w, "all kernels", an.MemDiv()) }},
		{"branch", "branch divergence: 0 of ", func(w io.Writer) { report.BranchDivergence(w, an.BranchDiv()) }},
		{"shared", "no same-interval races observed", func(w io.Writer) {
			report.SharedMem(w, an.SharedBank(), an.SharedRaces())
		}},
		{"code-centric", "main()", func(w io.Writer) { report.CodeCentric(w, p, an.MemDiv(), 2) }},
	} {
		var sb strings.Builder
		c.render(&sb)
		if !strings.Contains(sb.String(), c.want) {
			t.Errorf("%s report lacks %q:\n%s", c.name, c.want, sb.String())
		}
	}
}

// TestSessionPredictsStreaming: the touch kernel reads each element once,
// so the Eq. (1) model keeps all eight warps of a CTA on L1.
func TestSessionPredictsStreaming(t *testing.T) {
	p, _ := openSession(t, instrument.Options{Memory: true})
	arch := gpu.KeplerK40c()
	an := p.Analyses(arch.L1LineSize)
	ctas := bypass.ResidentCTAs(arch, 8, p.Kernels[0].Result.CTAs)
	if got := bypass.PredictFromProfiles(arch, an.ReuseLine(), an.ReuseElem(), an.MemDiv(), 8, ctas); got != 8 {
		t.Errorf("PredictFromProfiles = %d, want 8 (streaming)", got)
	}
}
