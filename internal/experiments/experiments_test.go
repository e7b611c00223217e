package experiments

import (
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"

	"cudaadvisor/internal/apps"
	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/instrument"
	"cudaadvisor/internal/profiler"
	"cudaadvisor/internal/rt"
)

// TestTable3Shape checks the branch-divergence table against the paper's
// qualitative structure: nw on top, the dense-linear-algebra kernels at
// zero, and the ranking bands in between (Table 3).
func TestTable3Shape(t *testing.T) {
	rows, _, err := Table3(Env{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	pct := map[string]float64{}
	for _, r := range rows {
		pct[r.App] = r.Result.Percent()
	}
	if len(pct) != 10 {
		t.Fatalf("rows = %d, want 10", len(pct))
	}
	// nw tops the table (paper: 69.4%).
	for app, p := range pct {
		if app != "nw" && p >= pct["nw"] {
			t.Errorf("%s (%.1f%%) >= nw (%.1f%%): nw must rank first", app, p, pct["nw"])
		}
	}
	if pct["nw"] < 40 {
		t.Errorf("nw divergence = %.1f%%, want the dominant share (paper 69.4%%)", pct["nw"])
	}
	// The stencil/graph band sits in the high twenties to forties.
	for _, app := range []string{"bfs", "hotspot", "srad_v2", "backprop"} {
		if pct[app] < 15 || pct[app] > 50 {
			t.Errorf("%s divergence = %.1f%%, want the 15-50%% band (paper ~28-34%%)", app, pct[app])
		}
	}
	// lavaMD is modest (paper 13.8%).
	if pct["lavaMD"] < 5 || pct["lavaMD"] > 25 {
		t.Errorf("lavaMD divergence = %.1f%%, want ~14%%", pct["lavaMD"])
	}
	if pct["lavaMD"] >= pct["backprop"] {
		t.Errorf("lavaMD (%.1f%%) >= backprop (%.1f%%): paper ranks backprop higher",
			pct["lavaMD"], pct["backprop"])
	}
	// The regular kernels are (near) zero.
	if pct["bicg"] != 0 || pct["syrk"] != 0 {
		t.Errorf("bicg/syrk divergence = %.1f/%.1f%%, want 0 (Table 3)", pct["bicg"], pct["syrk"])
	}
	for _, app := range []string{"nn", "syr2k"} {
		if pct[app] > 5 {
			t.Errorf("%s divergence = %.1f%%, want < 5%%", app, pct[app])
		}
	}
}

// TestFigure5Shape checks the memory-divergence distributions: bicg's
// 75/25 and syrk's 50/50 bimodality on Kepler (the exact splits the paper
// reports in Section 4.2-B), the well-coalesced stencils, and the general
// Kepler-vs-Pascal widening.
func TestFigure5Shape(t *testing.T) {
	kepler, _, err := Figure5(Env{Scale: 1}, gpu.KeplerK40c())
	if err != nil {
		t.Fatal(err)
	}
	bicg := kepler["bicg"]
	if f := bicg.Fraction(1); f < 0.70 || f > 0.80 {
		t.Errorf("bicg at 1 line = %.3f, want ~0.75 (paper 75%%)", f)
	}
	if f := bicg.Fraction(32); f < 0.20 || f > 0.30 {
		t.Errorf("bicg at 32 lines = %.3f, want ~0.25 (paper 25%%)", f)
	}
	for _, app := range []string{"syrk", "syr2k"} {
		r := kepler[app]
		if f := r.Fraction(1); f < 0.45 || f > 0.55 {
			t.Errorf("%s at 1 line = %.3f, want ~0.50 (paper 50%%)", app, f)
		}
		if f := r.Fraction(32); f < 0.45 || f > 0.55 {
			t.Errorf("%s at 32 lines = %.3f, want ~0.50 (paper 50%%)", app, f)
		}
	}
	// Stencils are well coalesced: degree close to the 2 lines their
	// two-row warps inherently touch.
	for _, app := range []string{"backprop", "hotspot", "srad_v2"} {
		if d := kepler[app].Degree(); d > 2.5 {
			t.Errorf("%s Kepler divergence degree = %.2f, want <= 2.5 (well coalesced)", app, d)
		}
	}

	pascal, _, err := Figure5(Env{Scale: 1}, gpu.PascalP100())
	if err != nil {
		t.Fatal(err)
	}
	// Smaller lines spread accesses across more of them (the paper's
	// Kepler-vs-Pascal observation) for the coalesced applications.
	for _, app := range []string{"backprop", "hotspot", "srad_v2", "nn", "lavaMD"} {
		dk, dp := kepler[app].Degree(), pascal[app].Degree()
		if dp <= dk {
			t.Errorf("%s: Pascal degree %.2f <= Kepler %.2f, want larger (32 B lines)", app, dp, dk)
		}
	}
}

// TestFigure4Shape checks the reuse-distance profiles: syrk's distance-0
// spike and low no-reuse, hotspot's extreme no-reuse, and the general
// high-no-reuse picture (Figure 4 and its discussion).
func TestFigure4Shape(t *testing.T) {
	res, _, err := Figure4(Env{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	syrk := res["syrk"]
	if f := syrk.Fraction(0); f < 0.35 {
		t.Errorf("syrk distance-0 fraction = %.3f, want >= 0.35 (paper ~40%%)", f)
	}
	if f := syrk.InfiniteFraction(); f > 0.20 {
		t.Errorf("syrk no-reuse = %.3f, want low (paper: syrk/syr2k exhibit low no-reuse)", f)
	}
	if f := res["hotspot"].InfiniteFraction(); f < 0.90 {
		t.Errorf("hotspot no-reuse = %.3f, want very high (paper: insensitive streaming)", f)
	}
	// "Eight out of ten applications suffer from high no-reuse accesses
	// (except for Syrk and Syr2k)."
	for _, app := range []string{"backprop", "hotspot", "lavaMD", "nw", "srad_v2", "bicg"} {
		if f := res[app].InfiniteFraction(); f < 0.40 {
			t.Errorf("%s no-reuse = %.3f, want high (paper: high no-reuse)", app, f)
		}
	}
}

// TestBypassShape runs the Figure 6 experiment at the 16 KB Kepler point
// and checks the paper's qualitative claims: bfs and hotspot are
// insensitive, the Polybench kernels benefit, and the Eq. (1) prediction
// never chooses a configuration slower than the baseline. The panel is
// uncached, so it also counts its native runs: one per sweep point of
// each app, the no-bypass point being the CTA measurement's run.
func TestBypassShape(t *testing.T) {
	if testing.Short() {
		t.Skip("bypassing sweep is expensive; skipped in -short")
	}
	var mu sync.Mutex
	runs, want := map[string]int{}, map[string]int{}
	for _, name := range bypassFavorable() {
		want[name] = apps.ByName(name).WarpsPerCTA
	}
	defer OnNative(func(a *apps.App) {
		mu.Lock()
		runs[a.Name]++
		mu.Unlock()
	})()
	cfg := gpu.KeplerK40c().WithL1(16 * 1024)
	rows, _, err := bypassStudy(Env{Scale: 1}, "bypass/"+cfg.Name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(runs, want) {
		t.Errorf("native runs per app = %v, want WarpsPerCTA each: %v", runs, want)
	}
	byApp := map[string]int{}
	for i, c := range rows {
		byApp[c.App] = i
		if c.OracleNorm() > 1.0001 {
			t.Errorf("%s oracle norm = %.3f > 1: oracle cannot lose to baseline", c.App, c.OracleNorm())
		}
		if c.PredictNorm() > 1.0001 {
			t.Errorf("%s prediction norm = %.3f > 1: model must never hurt", c.App, c.PredictNorm())
		}
	}
	for _, app := range []string{"bfs", "hotspot"} {
		c := rows[byApp[app]]
		if c.OracleNorm() < 0.95 {
			t.Errorf("%s oracle norm = %.3f, want ~1 (paper: insensitive)", app, c.OracleNorm())
		}
		if w := want[app]; c.PredictWarps != w {
			t.Errorf("%s prediction = %d warps, want %d (no bypassing)", app, c.PredictWarps, w)
		}
	}
	benefit := 0
	for _, app := range []string{"bicg", "syrk", "syr2k"} {
		if rows[byApp[app]].OracleNorm() < 0.90 {
			benefit++
		}
	}
	if benefit < 2 {
		t.Errorf("only %d of bicg/syrk/syr2k show >10%% oracle benefit at 16 KB (paper: ~23%%)", benefit)
	}
}

// TestOverheadShape checks Figure 10's structure by simulated work, not
// by wall clock (the benchmark measures the ratio as
// instrument.overhead_x): for every application the instrumented run
// executes more warp instructions than the native one and calls hooks,
// which the native run never does.
func TestOverheadShape(t *testing.T) {
	cfg := gpu.KeplerK40c()
	for _, name := range apps.TableOrder {
		a := apps.ByName(name)
		work := func(prog *instrument.Program, err error) (instrs, hooks int64) {
			if err != nil {
				t.Fatal(err)
			}
			p := profiler.New()
			if err := a.Run(newContext(cfg, p, rt.LaunchOptions{}), prog, 1); err != nil {
				t.Fatal(err)
			}
			for _, kp := range p.Kernels {
				instrs += kp.Result.WarpInstrs
				hooks += kp.Result.HookCalls
			}
			return instrs, hooks
		}
		nInstrs, nHooks := work(a.Native())
		iInstrs, iHooks := work(a.Instrumented(instrument.MemoryAndBlocks()))
		if iInstrs <= nInstrs || iHooks <= 0 || nHooks != 0 {
			t.Errorf("%s: native %d warp instructions and %d hook calls, instrumented %d and %d; want more work instrumented",
				name, nInstrs, nHooks, iInstrs, iHooks)
		}
	}
}

// TestWritersProduceOutput smoke-tests every Write* entry point.
func TestWritersProduceOutput(t *testing.T) {
	var sb strings.Builder
	if err := WriteTable3(&sb, Env{Scale: 1}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table 3", "nw", "% divergence"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("Table 3 output missing %q", want)
		}
	}
	sb.Reset()
	if err := WriteFigure4(&sb, Env{Scale: 1}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "reuse distance: syrk") {
		t.Error("Figure 4 output missing syrk panel")
	}
	if err := WriteCodeDataCentric(io.Discard, Env{Scale: 1}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkFigure6BypassKepler16KB regenerates the 16 KB L1 half of
// Figure 6: baseline / oracle / Eq.(1)-prediction normalized times.
func BenchmarkFigure6BypassKepler16KB(b *testing.B) {
	benchBypass(b, gpu.KeplerK40c().WithL1(16*1024))
}

// BenchmarkFigure6BypassKepler48KB regenerates the 48 KB L1 half of
// Figure 6.
func BenchmarkFigure6BypassKepler48KB(b *testing.B) {
	benchBypass(b, gpu.KeplerK40c().WithL1(48*1024))
}

// BenchmarkFigure7BypassPascal regenerates Figure 7 (24 KB unified cache).
func BenchmarkFigure7BypassPascal(b *testing.B) {
	benchBypass(b, gpu.PascalP100())
}

func benchBypass(b *testing.B, cfg gpu.ArchConfig) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rows, _, err := bypassStudy(Env{Scale: 1}, "bypass/"+cfg.Name, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			oracleSum, predSum := 0.0, 0.0
			for _, c := range rows {
				oracleSum += c.OracleNorm()
				predSum += c.PredictNorm()
			}
			n := float64(len(rows))
			b.ReportMetric(oracleSum/n, "mean-oracle-norm")
			b.ReportMetric(predSum/n, "mean-predict-norm")
		}
	}
}
