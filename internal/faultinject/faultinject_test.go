package faultinject

import (
	"errors"
	"strings"
	"testing"

	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/instrument"
	"cudaadvisor/internal/ir"
	"cudaadvisor/internal/irtext"
	"cudaadvisor/internal/rt"
)

func TestParse(t *testing.T) {
	cfg, err := Parse("seed=7, cells=3, hookerr=100, faultat=bfs.cu:12, allocfail=2, overflow=256, panic=fig5")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{
		Seed: 7, CellRate: 3, HookErrNth: 100,
		FaultAtFile: "bfs.cu", FaultAtLine: 12,
		AllocFailNth: 2, OverflowCap: 256, PanicCell: "fig5",
	}
	if *cfg != want {
		t.Errorf("Parse = %+v, want %+v", *cfg, want)
	}
	if cfg, err := Parse(""); err != nil || *cfg != (Config{}) {
		t.Errorf("empty spec: %+v, %v", cfg, err)
	}
	for _, bad := range []string{"bogus=1", "hookerr=x", "hookerr=-1", "faultat=nofile", "faultat=f:zero", "loose"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted an invalid spec", bad)
		}
	}
}

func TestCellSelectionDeterministic(t *testing.T) {
	cells := []string{"fig4/bfs", "fig4/spmv", "fig5/kepler/bfs", "fig6/backprop/16KB", "table3/kmeans"}
	cfg, _ := Parse("seed=1,cells=2")
	pick := func(c *Config) string {
		var sel []string
		for _, name := range cells {
			if c.Cell(name) != nil {
				sel = append(sel, name)
			}
		}
		return strings.Join(sel, ",")
	}
	first := pick(cfg)
	if first == pick(&Config{}) {
		t.Skip("hash selected every cell at rate 2; nothing to distinguish")
	}
	for i := 0; i < 3; i++ {
		if got := pick(cfg); got != first {
			t.Fatalf("selection changed across runs: %q vs %q", got, first)
		}
	}
	// Rate 1 (and 0) select everything.
	if all := pick(&Config{CellRate: 1}); all != strings.Join(cells, ",") {
		t.Errorf("rate 1 selected %q, want every cell", all)
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var cfg *Config
	in := cfg.Cell("any")
	if in != nil {
		t.Error("nil config produced an active injector")
	}
	if got := in.TraceCap(42); got != 42 {
		t.Errorf("TraceCap fallback = %d, want 42", got)
	}
	in.MaybePanic() // must not panic
	if l := in.Listener(nil); l != nil {
		t.Errorf("nil injector wrapped a nil listener: %T", l)
	}
	if h := in.Hooks(nil); h != nil {
		t.Errorf("nil injector wrapped nil hooks: %T", h)
	}
}

type countHooks struct{ calls int }

func (c *countHooks) OnHook(*gpu.WarpView, *ir.Instr, []*gpu.LaneValues) error {
	c.calls++
	return nil
}

func TestHookErrNthFailsExactlyOnce(t *testing.T) {
	cfg := &Config{HookErrNth: 3}
	in := cfg.Cell("cell")
	inner := &countHooks{}
	h := in.Hooks(inner)
	instr := &ir.Instr{Loc: ir.Loc{File: "k.cu", Line: 9}}
	var failed []int
	for i := 1; i <= 6; i++ {
		if err := h.OnHook(nil, instr, nil); err != nil {
			failed = append(failed, i)
			if !errors.Is(err, ErrHook) || !strings.Contains(err.Error(), "cell") {
				t.Errorf("call %d: err = %v", i, err)
			}
		}
	}
	if len(failed) != 1 || failed[0] != 3 {
		t.Errorf("failed calls = %v, want [3]", failed)
	}
	if inner.calls != 5 { // every call except the injected one forwards
		t.Errorf("inner saw %d calls, want 5", inner.calls)
	}
}

func TestFaultAtMatchesLocation(t *testing.T) {
	cfg := &Config{FaultAtFile: "bfs.cu", FaultAtLine: 12}
	h := cfg.Cell("c").Hooks(nil)
	miss := &ir.Instr{Loc: ir.Loc{File: "bfs.cu", Line: 13}}
	hit := &ir.Instr{Loc: ir.Loc{File: "bfs.cu", Line: 12, Col: 5}}
	if err := h.OnHook(nil, miss, nil); err != nil {
		t.Errorf("non-target location faulted: %v", err)
	}
	err := h.OnHook(nil, hit, nil)
	if !errors.Is(err, ErrFault) || !strings.Contains(err.Error(), "bfs.cu:12") {
		t.Errorf("target location err = %v, want ErrFault at bfs.cu:12", err)
	}
}

func TestMaybePanic(t *testing.T) {
	cfg := &Config{PanicCell: "fig5"}
	cfg.Cell("fig4/bfs").MaybePanic() // no match: no panic

	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(string), "fig5/kepler/bfs") {
			t.Errorf("recover() = %v, want injected panic naming the cell", r)
		}
	}()
	cfg.Cell("fig5/kepler/bfs").MaybePanic()
	t.Fatal("MaybePanic did not panic for a matching cell")
}

func TestTraceCapForcesOverflow(t *testing.T) {
	cfg := &Config{OverflowCap: 128}
	if got := cfg.Cell("c").TraceCap(0); got != 128 {
		t.Errorf("TraceCap = %d, want 128", got)
	}
	if got := (&Config{}).Cell("c").TraceCap(512); got != 512 {
		t.Errorf("TraceCap without overflow = %d, want fallback 512", got)
	}
}

// faultInjectSrc is a small instrumentable kernel for the end-to-end
// tests: memory instrumentation gives it hook calls to inject into.
const faultInjectSrc = `
module fi
kernel @touch(%p: ptr, %n: i32) {
entry:
  %tx = sreg tid.x
  %c  = icmp lt i32 %tx, %n
  cbr %c, body, exit
body:
  %a = gep %p, %tx, 4
  %v = ld f32 global [%a]
  st f32 global [%a], %v
  br exit
exit:
  ret
}
`

func newInjectedCtx(t *testing.T, in *Injector) (*rt.Context, *instrument.Program) {
	t.Helper()
	m, err := irtext.Parse("fi.mir", faultInjectSrc)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := instrument.Instrument(m, instrument.Options{Memory: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := gpu.KeplerK40c()
	cfg.SMs = 2
	return rt.NewContext(gpu.NewDevice(cfg, 1<<20), in.Listener(nil)), prog
}

// TestInjectedHookErrorBecomesGPUFault: through the full rt → gpu path an
// injected hook error surfaces as a *gpu.Fault attributed to the hook's
// source location — the paper-facing "GPU fault at a chosen PC".
func TestInjectedHookErrorBecomesGPUFault(t *testing.T) {
	cfg := &Config{HookErrNth: 1}
	ctx, prog := newInjectedCtx(t, cfg.Cell("cell"))
	d, err := ctx.CudaMalloc(4 * 64)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ctx.Launch(prog, "touch", rt.Dim(1), rt.Dim(64), rt.Ptr(d), rt.I32(64))
	if err == nil {
		t.Fatal("injected hook error did not fail the launch")
	}
	var f *gpu.Fault
	if !errors.As(err, &f) {
		t.Fatalf("error %T is not a *gpu.Fault: %v", err, err)
	}
	if !strings.Contains(f.Msg, "injected hook error") {
		t.Errorf("fault message = %q, want the injected hook error", f.Msg)
	}
	if f.Loc.IsZero() {
		t.Errorf("injected fault carries no source location: %v", f)
	}
}

func TestInjectedAllocFailure(t *testing.T) {
	cfg := &Config{AllocFailNth: 2}
	ctx, _ := newInjectedCtx(t, cfg.Cell("cell"))
	if _, err := ctx.CudaMalloc(64); err != nil {
		t.Fatalf("allocation 1 failed: %v", err)
	}
	_, err := ctx.CudaMalloc(64)
	if !errors.Is(err, ErrAlloc) {
		t.Fatalf("allocation 2 err = %v, want ErrAlloc", err)
	}
	if _, err := ctx.CudaMalloc(64); err != nil {
		t.Fatalf("allocation 3 failed: %v", err)
	}
}

// TestInjectionDeterministic: two identically configured runs of the same
// cell fail at the same point with the same error text.
func TestInjectionDeterministic(t *testing.T) {
	run := func() string {
		cfg := &Config{Seed: 9, HookErrNth: 3}
		ctx, prog := newInjectedCtx(t, cfg.Cell("fig4/bfs"))
		d, err := ctx.CudaMalloc(4 * 64)
		if err != nil {
			t.Fatal(err)
		}
		_, err = ctx.Launch(prog, "touch", rt.Dim(1), rt.Dim(64), rt.Ptr(d), rt.I32(64))
		if err == nil {
			return "<no error>"
		}
		return err.Error()
	}
	first := run()
	if !strings.Contains(first, "injected hook error") {
		t.Fatalf("run error = %q, want an injected hook error", first)
	}
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("error text changed across identical runs:\n got: %s\nwant: %s", got, first)
		}
	}
}
