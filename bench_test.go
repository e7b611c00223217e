// Package cudaadvisor_test holds the top-level benchmark harness: one
// testing.B benchmark per table and figure of the paper's evaluation.
// Each benchmark regenerates its experiment end to end (instrument →
// profile → analyze, or the native bypassing sweeps) and reports the
// headline quantity the paper reports, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation section. Shapes, not absolute numbers,
// are the reproduction target; see EXPERIMENTS.md for the side-by-side.
package cudaadvisor_test

import (
	"io"
	"runtime"
	"testing"
	"time"

	"cudaadvisor/internal/analysis"
	"cudaadvisor/internal/apps"
	"cudaadvisor/internal/bypass"
	"cudaadvisor/internal/core"
	"cudaadvisor/internal/experiments"
	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/instrument"
	"cudaadvisor/internal/ir"
	"cudaadvisor/internal/irtext"
	"cudaadvisor/internal/profcache"
	"cudaadvisor/internal/rt"
	"cudaadvisor/internal/runner"
)

// BenchmarkFigure4ReuseDistance regenerates the reuse-distance histograms
// of Figure 4 (seven applications, element-based model, per CTA).
func BenchmarkFigure4ReuseDistance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.Figure4(experiments.Env{Scale: 1})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			syrk := res["syrk"]
			b.ReportMetric(100*syrk.Fraction(0), "syrk-dist0-%")
			b.ReportMetric(100*res["hotspot"].InfiniteFraction(), "hotspot-noreuse-%")
		}
	}
}

// BenchmarkFigure5MemoryDivergenceKepler regenerates the Kepler panel of
// Figure 5 (128-byte cache lines, all ten applications).
func BenchmarkFigure5MemoryDivergenceKepler(b *testing.B) {
	benchFigure5(b, gpu.KeplerK40c())
}

// BenchmarkFigure5MemoryDivergencePascal regenerates the Pascal panel of
// Figure 5 (32-byte cache lines).
func BenchmarkFigure5MemoryDivergencePascal(b *testing.B) {
	benchFigure5(b, gpu.PascalP100())
}

func benchFigure5(b *testing.B, cfg gpu.ArchConfig) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.Figure5(experiments.Env{Scale: 1}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(100*res["bicg"].Fraction(1), "bicg-1line-%")
			b.ReportMetric(res["syrk"].Degree(), "syrk-degree")
		}
	}
}

// BenchmarkWriteFigure5Serial renders the full Figure 5 (both panels, all
// ten apps) on the serial reference path.
func BenchmarkWriteFigure5Serial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.WriteFigure5(io.Discard, experiments.Env{Scale: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteFigure5Parallel renders Figure 5 through the parallel
// runner at -j max(4, GOMAXPROCS).
func BenchmarkWriteFigure5Parallel(b *testing.B) {
	pool := runner.New(speedupWorkers())
	b.ReportMetric(float64(pool.Workers()), "workers")
	for i := 0; i < b.N; i++ {
		if err := experiments.WriteFigure5(io.Discard, experiments.Env{Pool: pool, Scale: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunnerSpeedupFigure5 times the serial and parallel Figure 5
// paths back to back and reports the wall-clock speedup the worker pool
// delivers (the 20 app×arch cells are independent simulator runs, so on
// a machine with >= 4 cores the speedup is expected to exceed 2x; on a
// single core it degrades gracefully to ~1x).
func BenchmarkRunnerSpeedupFigure5(b *testing.B) {
	pool := runner.New(speedupWorkers())
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if err := experiments.WriteFigure5(io.Discard, experiments.Env{Scale: 1}); err != nil {
			b.Fatal(err)
		}
		serial := time.Since(t0)
		t1 := time.Now()
		if err := experiments.WriteFigure5(io.Discard, experiments.Env{Pool: pool, Scale: 1}); err != nil {
			b.Fatal(err)
		}
		parallel := time.Since(t1)
		if i == 0 {
			b.ReportMetric(serial.Seconds()/parallel.Seconds(), "speedup-x")
			// The pool clamps to GOMAXPROCS, so this reports the worker
			// count actually used.
			b.ReportMetric(float64(pool.Workers()), "workers")
		}
	}
}

// speedupWorkers picks the pool size for the speedup benchmarks: at least
// the 4 workers the evaluation targets, more when the machine has them
// (runner.New clamps to the machine's actual parallelism).
func speedupWorkers() int {
	if n := runtime.GOMAXPROCS(0); n > 4 {
		return n
	}
	return 4
}

// BenchmarkAllWarmCache times the full evaluation (`all`) against a warm
// on-disk profile cache: one untimed cold pass fills the store, then
// every timed iteration replays it warm, where all profiling and sweep
// cells are disk hits and only rendering, the debug views, and the
// wall-clock overhead study (which is never cached) run for real. The
// cold-over-warm-x metric is the wall-clock reduction the cache buys a
// CI rerun.
func BenchmarkAllWarmCache(b *testing.B) {
	dir := b.TempDir()
	runAll := func() time.Duration {
		env := experiments.Env{Scale: 1}
		env.Cache = profcache.New(dir)
		t0 := time.Now()
		if err := experiments.WriteAll(io.Discard, env); err != nil {
			b.Fatal(err)
		}
		return time.Since(t0)
	}
	cold := runAll()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		warm := runAll()
		if i == 0 {
			b.ReportMetric(cold.Seconds()/warm.Seconds(), "cold-over-warm-x")
			if warm >= cold {
				b.Errorf("warm all (%v) is not faster than cold (%v)", warm, cold)
			}
		}
	}
}

// BenchmarkTable3BranchDivergence regenerates the branch-divergence table.
func BenchmarkTable3BranchDivergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Table3(experiments.Env{Scale: 1})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				if r.App == "nw" {
					b.ReportMetric(r.Result.Percent(), "nw-divergence-%")
				}
			}
		}
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
		rows, _, err := experiments.BypassStudy(experiments.Env{Scale: 1}, cfg)
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

// BenchmarkFigure10OverheadKepler measures the tool's wall-clock
// instrumentation overhead on the Kepler configuration (Figure 10).
func BenchmarkFigure10OverheadKepler(b *testing.B) {
	benchOverhead(b, gpu.KeplerK40c())
}

// BenchmarkFigure10OverheadPascal measures the overhead on Pascal.
func BenchmarkFigure10OverheadPascal(b *testing.B) {
	benchOverhead(b, gpu.PascalP100())
}

func benchOverhead(b *testing.B, cfg gpu.ArchConfig) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Overhead(experiments.Env{Scale: 1}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			sum := 0.0
			for _, r := range rows {
				sum += r.Slowdown()
			}
			b.ReportMetric(sum/float64(len(rows)), "mean-slowdown-x")
		}
	}
}

// BenchmarkFigures8and9DebugViews regenerates the code-/data-centric
// debugging views on bfs.
func BenchmarkFigures8and9DebugViews(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.WriteCodeDataCentric(io.Discard, experiments.Env{Scale: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzerReuseDistance isolates the analyzer's Fenwick-tree
// reuse-distance engine on a substantial trace (syrk).
func BenchmarkAnalyzerReuseDistance(b *testing.B) {
	p, err := experiments.Profile(mustApp(b, "syrk"), gpu.KeplerK40c(),
		memOnly(), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, kp := range p.Kernels {
			analysis.ReuseDistance(kp.Trace, analysis.DefaultElementReuse())
		}
	}
}

func mustApp(b *testing.B, name string) *apps.App {
	b.Helper()
	a := apps.ByName(name)
	if a == nil {
		b.Fatalf("app %q not registered", name)
	}
	return a
}

func memOnly() instrument.Options { return instrument.Options{Memory: true} }

// BenchmarkAblationVerticalVsHorizontalBicg compares the two software
// bypassing schemes the paper discusses (Section 4.2-D) on bicg: the
// horizontal Eq.(1) configuration against a vertical rewrite driven by
// CUDAAdvisor's per-site reuse profile, both normalized to no bypassing.
func BenchmarkAblationVerticalVsHorizontalBicg(b *testing.B) {
	a := apps.ByName("bicg")
	cfg := gpu.KeplerK40c().WithL1(16 * 1024)
	for i := 0; i < b.N; i++ {
		// Profile once for both plans.
		p, err := experiments.Profile(a, cfg, memOnly(), 1)
		if err != nil {
			b.Fatal(err)
		}
		sites := map[ir.Loc]*analysis.SiteReuse{}
		for _, kp := range p.Kernels {
			analysis.MergeSiteReuse(sites, analysis.ReuseBySite(kp.Trace, analysis.DefaultElementReuse()))
		}
		plan := bypass.VerticalPlan(sites, bypass.DefaultVerticalOptions())

		run := func(l1Warps int, vertical bool) int64 {
			m, err := a.Module()
			if err != nil {
				b.Fatal(err)
			}
			if err := m.Finalize(); err != nil {
				b.Fatal(err)
			}
			if vertical {
				bypass.ApplyVertical(m, plan)
			}
			counter := rt.NewCycleCounter()
			ctx := rt.NewContext(gpu.NewDevice(cfg, core.DefaultDeviceMem), counter)
			ctx.Options.L1Warps = l1Warps
			if err := a.Run(ctx, instrument.NativeProgram(m), experiments.BypassRunScale); err != nil {
				b.Fatal(err)
			}
			return counter.Cycles
		}
		if i == 0 {
			base := run(0, false)
			horizontal := run(1, false)
			vertical := run(0, true)
			b.ReportMetric(float64(horizontal)/float64(base), "horizontal-norm")
			b.ReportMetric(float64(vertical)/float64(base), "vertical-norm")
		}
	}
}

// perSMKernelSrc is a compute-heavy multi-CTA kernel for the per-SM
// sharding benchmark: each thread runs a long arithmetic loop plus
// strided global traffic, so the per-SM shards carry real simulation work.
const perSMKernelSrc = `
module persm
kernel @spin(%in: ptr, %out: ptr, %iters: i32) {
entry:
  %tx   = sreg tid.x
  %bx   = sreg ctaid.x
  %bd   = sreg ntid.x
  %base = mul i32 %bx, %bd
  %i    = add i32 %base, %tx
  %a    = gep %in, %i, 4
  %v    = ld f32 global [%a]
  %k    = mov i32 0
  br loop
loop:
  %v = fmul f32 %v, 1.0001
  %v = fadd f32 %v, 0.5
  %k = add i32 %k, 1
  %c = icmp lt i32 %k, %iters
  cbr %c, loop, done
done:
  %o = gep %out, %i, 4
  st f32 global [%o], %v
  ret
}
`

// BenchmarkLaunchPerSM measures the intra-launch SM sharding: one large
// multi-CTA launch executed serially and again with the SM shards spread
// over a worker pool, reporting the wall-clock speedup (expected >= 2x on
// a machine with 8 cores; the outputs are byte-identical either way, which
// TestParallelLaunchByteIdentical in internal/gpu asserts).
func BenchmarkLaunchPerSM(b *testing.B) {
	m, err := irtext.Parse("persm.mir", perSMKernelSrc)
	if err != nil {
		b.Fatal(err)
	}
	if err := ir.Verify(m); err != nil {
		b.Fatal(err)
	}
	cfg := gpu.KeplerK40c() // 15 SMs
	const n = 60 * 256
	launch := func(pool *runner.Pool) time.Duration {
		d := gpu.NewDevice(cfg, 16<<20)
		in, _ := d.Mem.Alloc(4 * n)
		out, _ := d.Mem.Alloc(4 * n)
		t0 := time.Now()
		if _, err := d.Launch(m.Func("spin"), gpu.LaunchParams{
			Grid: [3]int{60, 1, 1}, Block: [3]int{256, 1, 1},
			Args:          []uint64{in, out, ir.I32Bits(2000)},
			Pool:          pool,
			L1WarpsPerCTA: -1,
		}); err != nil {
			b.Fatal(err)
		}
		return time.Since(t0)
	}
	pool := runner.New(speedupWorkers())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serial := launch(nil)
		parallel := launch(pool)
		if i == 0 {
			b.ReportMetric(serial.Seconds()/parallel.Seconds(), "speedup-x")
			b.ReportMetric(float64(pool.Workers()), "workers")
		}
	}
}

// BenchmarkAblationReuseEngines compares the Fenwick-tree reuse-distance
// engine against the naive O(N^2) reference on the same trace (the
// DESIGN.md ablation for the analyzer's data structure choice).
func BenchmarkAblationReuseEngines(b *testing.B) {
	p, err := experiments.Profile(mustApp(b, "bicg"), gpu.KeplerK40c(), memOnly(), 1)
	if err != nil {
		b.Fatal(err)
	}
	tr := p.Kernels[0].Trace
	b.Run("fenwick", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			analysis.ReuseDistance(tr, analysis.DefaultElementReuse())
		}
	})
	b.Run("naive", func(b *testing.B) {
		// The naive engine is quadratic; bound the input so one iteration
		// stays tractable.
		small := *tr
		if len(small.Mem) > 400 {
			small.Mem = small.Mem[:400]
		}
		for i := 0; i < b.N; i++ {
			analysis.NaiveReuseDistance(&small, analysis.DefaultElementReuse())
		}
	})
}
