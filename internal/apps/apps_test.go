package apps

import (
	"errors"
	"sort"
	"testing"

	"cudaadvisor/internal/analysis"
	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/instrument"
	"cudaadvisor/internal/ir"
	"cudaadvisor/internal/profiler"
	"cudaadvisor/internal/rt"
)

// runNative executes an app uninstrumented on a small Kepler device and
// fails the test if the driver's built-in validation fails.
func runNative(t *testing.T, name string) {
	t.Helper()
	a := ByName(name)
	if a == nil {
		t.Fatalf("app %q not registered", name)
	}
	prog, err := a.Native()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	cfg := gpu.KeplerK40c()
	ctx := rt.NewContext(gpu.NewDevice(cfg, 256<<20), nil)
	if err := a.Run(ctx, prog, 1); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// runProfiled executes an app with memory+blocks instrumentation and
// returns the profiler.
func runProfiled(t *testing.T, name string) *profiler.Profiler {
	t.Helper()
	a := ByName(name)
	if a == nil {
		t.Fatalf("app %q not registered", name)
	}
	prog, err := a.Instrumented(instrument.MemoryAndBlocks())
	if err != nil {
		t.Fatalf("instrument: %v", err)
	}
	p := profiler.New()
	cfg := gpu.KeplerK40c()
	ctx := rt.NewContext(gpu.NewDevice(cfg, 256<<20), p)
	if err := a.Run(ctx, prog, 1); err != nil {
		t.Fatalf("run instrumented: %v", err)
	}
	if len(p.Kernels) == 0 {
		t.Fatal("no kernel profiles collected")
	}
	return p
}

// mergedMemDiv aggregates memory divergence over all kernel instances.
func mergedMemDiv(p *profiler.Profiler, lineSize int) *analysis.MemDivResult {
	total := analysis.MemDivergence(p.Kernels[0].Trace, lineSize)
	for _, kp := range p.Kernels[1:] {
		total.Merge(analysis.MemDivergence(kp.Trace, lineSize))
	}
	return total
}

// mergedBranchDiv aggregates branch divergence over all kernel instances.
func mergedBranchDiv(p *profiler.Profiler) *analysis.BranchDivResult {
	total := analysis.BranchDivergence(p.Kernels[0].Trace, p.Kernels[0].Tables)
	for _, kp := range p.Kernels[1:] {
		total.Merge(analysis.BranchDivergence(kp.Trace, kp.Tables))
	}
	return total
}

// mergedReuse aggregates reuse distance over all kernel instances.
func mergedReuse(p *profiler.Profiler, opt analysis.ReuseOptions) *analysis.ReuseResult {
	var total analysis.ReuseResult
	for _, kp := range p.Kernels {
		total.Merge(analysis.ReuseDistance(kp.Trace, opt))
	}
	return &total
}

func TestRegistryComplete(t *testing.T) {
	if got := len(All()); got != len(TableOrder) {
		t.Fatalf("registered apps = %d, want %d", got, len(TableOrder))
	}
	for _, name := range TableOrder {
		a := ByName(name)
		if a == nil {
			t.Errorf("app %q missing", name)
			continue
		}
		if a.WarpsPerCTA <= 0 || a.Description == "" || a.Source == "" {
			t.Errorf("app %q metadata incomplete: %+v", name, a)
		}
	}
	if got := len(InTableOrder()); got != len(TableOrder) {
		t.Errorf("InTableOrder returned %d apps", got)
	}
}

func TestAllSourcesParseAndVerify(t *testing.T) {
	for _, a := range All() {
		m, err := a.Module()
		if err != nil {
			t.Errorf("%s: parse: %v", a.Name, err)
			continue
		}
		if err := m.Finalize(); err != nil {
			t.Errorf("%s: finalize: %v", a.Name, err)
			continue
		}
		if err := ir.Verify(m); err != nil {
			t.Errorf("%s: verify: %v", a.Name, err)
		}
	}
}

func TestWarpsPerCTAMatchesTable2(t *testing.T) {
	want := map[string]int{
		"backprop": 8, "bfs": 16, "hotspot": 8, "lavaMD": 4, "nn": 8,
		"nw": 1, "srad_v2": 8, "bicg": 8, "syrk": 8, "syr2k": 8,
	}
	for name, w := range want {
		a := ByName(name)
		if a == nil {
			t.Errorf("%s missing", name)
			continue
		}
		if a.WarpsPerCTA != w {
			t.Errorf("%s warps/CTA = %d, want %d (Table 2)", name, a.WarpsPerCTA, w)
		}
	}
}

func TestAllAppsRunNative(t *testing.T) {
	for _, a := range All() {
		t.Run(a.Name, func(t *testing.T) { runNative(t, a.Name) })
	}
}

// TestRunReturnsOverBudget: every driver hands a launch's
// gpu.ErrOverBudget back where errors.Is finds it, so a bounded run stops
// with it in whichever launch passes the bound (bfs launches many
// times), while a bound of exactly the run's summed cycles lets it finish
// and pass its output check.
func TestRunReturnsOverBudget(t *testing.T) {
	for _, a := range All() {
		t.Run(a.Name, func(t *testing.T) {
			prog, err := a.Native()
			if err != nil {
				t.Fatal(err)
			}
			run := func(budget int64) (*rt.CycleCounter, error) {
				counter := rt.NewCycleCounter()
				ctx := rt.NewContext(gpu.NewDevice(gpu.PascalP100(), 256<<20), counter)
				ctx.Options.MaxCycles = budget
				return counter, a.Run(ctx, prog, 1)
			}
			full, err := run(0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := run(full.Cycles); err != nil {
				t.Errorf("bound = its %d cycles: %v", full.Cycles, err)
			}
			if _, err := run(full.Cycles - 1); !errors.Is(err, gpu.ErrOverBudget) {
				t.Errorf("bound = %d cycles - 1: %v; want gpu.ErrOverBudget", full.Cycles, err)
			}
		})
	}
}

func TestBicgProfiledDivergence(t *testing.T) {
	p := runProfiled(t, "bicg")
	// Table 3: bicg has 0% branch divergence.
	bd := mergedBranchDiv(p)
	if bd.Total == 0 {
		t.Fatal("no block executions recorded")
	}
	if bd.Divergent != 0 {
		t.Errorf("bicg divergent blocks = %d (%.2f%%), want 0",
			bd.Divergent, bd.Percent())
	}
	// Figure 5 (Kepler): bimodal at 1 and 32 unique lines, roughly 3:1.
	md := mergedMemDiv(p, 128)
	f1, f32v := md.Fraction(1), md.Fraction(32)
	if f1 < 0.70 || f1 > 0.80 {
		t.Errorf("fraction at 1 line = %.3f, want ~0.75", f1)
	}
	if f32v < 0.20 || f32v > 0.30 {
		t.Errorf("fraction at 32 lines = %.3f, want ~0.25", f32v)
	}
	for n := 2; n < 32; n++ {
		if md.Fraction(n) > 0.01 {
			t.Errorf("unexpected mass at %d lines: %.3f", n, md.Fraction(n))
		}
	}
}

func TestBicgReuseShape(t *testing.T) {
	p := runProfiled(t, "bicg")
	rd := mergedReuse(p, analysis.DefaultElementReuse())
	if rd.Samples == 0 {
		t.Fatal("no reuse samples")
	}
	// bicg mixes broadcast reuse (distance 0 from r[i]/p[j]) with
	// streaming matrix reads (high no-reuse): both shares significant.
	if rd.Fraction(0) < 0.10 {
		t.Errorf("distance-0 fraction = %.3f, want >= 0.10", rd.Fraction(0))
	}
	if rd.InfiniteFraction() < 0.20 {
		t.Errorf("no-reuse fraction = %.3f, want >= 0.20", rd.InfiniteFraction())
	}
}

// All returns all applications in name order.
func All() []*App {
	var out []*App
	for _, n := range Names() {
		out = append(out, registry[n])
	}
	return out
}

// Names returns all application names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
