// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 4.2 and 5): Figure 4 (reuse distance), Figure 5
// (memory divergence on Kepler and Pascal), Table 3 (branch divergence),
// Figures 6/7 (horizontal cache bypassing), Figures 8/9 (code- and
// data-centric debugging), and Figure 10 (instrumentation overhead).
//
// Each experiment has a data function (returning structured results, used
// by the tests and benchmarks) and a Write function that renders the
// paper's presentation of it.
//
// Every (app × architecture × analysis) cell and every bypass sweep point
// is an independent, fully deterministic simulation with its own
// gpu.Device and listener, so all data functions fan their runs out on a
// runner.Pool and reassemble the results in deterministic order. Passing
// a nil pool runs everything serially, inline; the parallel paths are
// guaranteed (and tested) byte-identical to it.
package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"

	"cudaadvisor/internal/analysis"
	"cudaadvisor/internal/apps"
	"cudaadvisor/internal/bypass"
	"cudaadvisor/internal/core"
	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/instrument"
	"cudaadvisor/internal/profcache"
	"cudaadvisor/internal/profiler"
	"cudaadvisor/internal/report"
	"cudaadvisor/internal/rt"
	"cudaadvisor/internal/runner"
)

// newContext is the one place a cell gets its simulated machine: a fresh
// device of the standard capacity under a host context with the cell's
// listener (nil runs natively) and launch policies.
func newContext(cfg gpu.ArchConfig, l rt.Listener, opts rt.LaunchOptions) *rt.Context {
	c := rt.NewContext(gpu.NewDevice(cfg, core.DefaultDeviceMem), l)
	c.Options = opts
	return c
}

// Profile runs one application instrumented under a fresh profiler on the
// given architecture and returns the profiler. Every call builds its own
// module, device and profiler, so concurrent calls share nothing.
func Profile(app *apps.App, cfg gpu.ArchConfig, opts instrument.Options, scale int) (*profiler.Profiler, error) {
	prog, err := app.Instrumented(opts)
	if err != nil {
		return nil, fmt.Errorf("%s: instrument: %w", app.Name, err)
	}
	p := profiler.New()
	if err := app.Run(newContext(cfg, p, rt.LaunchOptions{}), prog, scale); err != nil {
		return nil, fmt.Errorf("%s: run: %w", app.Name, err)
	}
	return p, nil
}

// MergedReuse aggregates the reuse profile over every kernel instance.
// The cache (internal/profcache) derives its entries through the same
// function, which is what makes cached and uncached output identical.
func MergedReuse(p *profiler.Profiler, opt analysis.ReuseOptions) *analysis.ReuseResult {
	return profcache.MergedReuse(p, opt)
}

// MergedMemDiv aggregates memory divergence over every kernel instance.
func MergedMemDiv(p *profiler.Profiler, lineSize int) *analysis.MemDivResult {
	return profcache.MergedMemDiv(p, lineSize)
}

// MergedBranchDiv aggregates branch divergence over every kernel instance.
func MergedBranchDiv(p *profiler.Profiler) *analysis.BranchDivResult {
	return profcache.MergedBranchDiv(p)
}

// Figure4Apps are the seven applications shown in Figure 4 (bfs and nn
// are excluded for >99% no-reuse; syr2k resembles syrk).
var Figure4Apps = []string{"backprop", "hotspot", "lavaMD", "nw", "srad_v2", "bicg", "syrk"}

// Figure4 computes the reuse-distance profiles (element-based model,
// Kepler only — reuse distance is machine-independent, Section 4.2-A),
// one pool job per application.
func Figure4(pool *runner.Pool, scale int) (map[string]*analysis.ReuseResult, error) {
	res, _, err := Figure4Env(DefaultEnv(pool, scale))
	return res, err
}

// Figure4Env is Figure4 under an Env: with KeepGoing the per-cell errors
// come back aligned with Figure4Apps and the error aggregates them.
func Figure4Env(env Env) (map[string]*analysis.ReuseResult, []error, error) {
	cells := cellNames("figure4", Figure4Apps)
	res, errs, err := runCells(env, cells, func(ctx context.Context, i int) (*analysis.ReuseResult, error) {
		r, err := env.resultsCell(ctx, cells[i], apps.ByName(Figure4Apps[i]), gpu.KeplerK40c(), instrument.Options{Memory: true})
		if err != nil {
			return nil, err
		}
		return r.ReuseElem(), nil
	})
	if err != nil && !env.KeepGoing {
		return nil, nil, err
	}
	out := make(map[string]*analysis.ReuseResult, len(Figure4Apps))
	for i, name := range Figure4Apps {
		out[name] = res[i]
	}
	return out, errs, err
}

// WriteFigure4 renders Figure 4.
func WriteFigure4(w io.Writer, pool *runner.Pool, scale int) error {
	return WriteFigure4Env(w, DefaultEnv(pool, scale))
}

// WriteFigure4Env renders Figure 4 under an Env, annotating failed cells
// when KeepGoing is set.
func WriteFigure4Env(w io.Writer, env Env) error {
	res, errs, err := Figure4Env(env)
	if err != nil && !env.KeepGoing {
		return err
	}
	fmt.Fprintln(w, "=== Figure 4: reuse distance analysis (element-based, per CTA) ===")
	for i, name := range Figure4Apps {
		if errs != nil && errs[i] != nil {
			fmt.Fprint(w, failedCell("figure4/"+name, errs[i]))
			continue
		}
		report.ReuseHistogram(w, name, res[name])
	}
	return err
}

// Figure5 computes the memory-divergence distributions for one
// architecture (Kepler: 128 B lines; Pascal: 32 B lines), all ten apps,
// one pool job per application.
func Figure5(pool *runner.Pool, cfg gpu.ArchConfig, scale int) (map[string]*analysis.MemDivResult, error) {
	res, _, err := figure5Env(DefaultEnv(pool, scale), cfg)
	return res, err
}

// figure5Env is one Figure 5 panel under an Env; per-cell errors align
// with apps.InTableOrder().
func figure5Env(env Env, cfg gpu.ArchConfig) (map[string]*analysis.MemDivResult, []error, error) {
	order := apps.InTableOrder()
	names := make([]string, len(order))
	for i, a := range order {
		names[i] = a.Name
	}
	cells := cellNames("figure5/"+cfg.Name, names)
	res, errs, err := runCells(env, cells, func(ctx context.Context, i int) (*analysis.MemDivResult, error) {
		r, err := env.resultsCell(ctx, cells[i], order[i], cfg, instrument.Options{Memory: true})
		if err != nil {
			return nil, err
		}
		return r.MemDiv(), nil
	})
	if err != nil && !env.KeepGoing {
		return nil, nil, err
	}
	out := make(map[string]*analysis.MemDivResult, len(order))
	for i, a := range order {
		out[a.Name] = res[i]
	}
	return out, errs, err
}

// WriteFigure5 renders both panels of Figure 5. The two architecture
// panels run concurrently (each fanning its apps out on the pool) into
// per-panel buffers that are emitted in paper order.
func WriteFigure5(w io.Writer, pool *runner.Pool, scale int) error {
	return WriteFigure5Env(w, DefaultEnv(pool, scale))
}

// WriteFigure5Env renders Figure 5 under an Env, annotating failed cells
// when KeepGoing is set.
func WriteFigure5Env(w io.Writer, env Env) error {
	cfgs := []gpu.ArchConfig{gpu.KeplerK40c(), gpu.PascalP100()}
	bufs := make([]bytes.Buffer, len(cfgs))
	panelErrs := make([]error, len(cfgs))
	err := runner.Concurrent(env.Pool, len(cfgs), func(i int) error {
		cfg := cfgs[i]
		res, errs, err := figure5Env(env, cfg)
		if err != nil {
			if !env.KeepGoing {
				return err
			}
			panelErrs[i] = err
		}
		fmt.Fprintf(&bufs[i], "=== Figure 5: memory divergence on %s (%d B cache lines) ===\n",
			cfg.Name, cfg.L1LineSize)
		for j, a := range apps.InTableOrder() {
			if errs != nil && errs[j] != nil {
				fmt.Fprint(&bufs[i], failedCell("figure5/"+cfg.Name+"/"+a.Name, errs[j]))
				continue
			}
			report.MemDivDistribution(&bufs[i], a.Name, res[a.Name])
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i := range bufs {
		if _, err := w.Write(bufs[i].Bytes()); err != nil {
			return err
		}
	}
	return errors.Join(panelErrs...)
}

// Table3 computes the branch-divergence table (architecture-independent;
// run on the Pascal configuration as in the paper), one pool job per
// application.
func Table3(pool *runner.Pool, scale int) ([]report.BranchRow, error) {
	rows, _, err := Table3Env(DefaultEnv(pool, scale))
	return rows, err
}

// Table3Env is Table3 under an Env; per-cell errors align with the rows.
func Table3Env(env Env) ([]report.BranchRow, []error, error) {
	order := apps.InTableOrder()
	names := make([]string, len(order))
	for i, a := range order {
		names[i] = a.Name
	}
	cells := cellNames("table3", names)
	rows, errs, err := runCells(env, cells, func(ctx context.Context, i int) (report.BranchRow, error) {
		r, err := env.resultsCell(ctx, cells[i], order[i], gpu.PascalP100(), instrument.Options{Blocks: true})
		if err != nil {
			return report.BranchRow{}, err
		}
		return report.BranchRow{App: order[i].Name, Result: r.BranchDiv()}, nil
	})
	if err != nil && !env.KeepGoing {
		return nil, nil, err
	}
	return rows, errs, err
}

// WriteTable3 renders Table 3.
func WriteTable3(w io.Writer, pool *runner.Pool, scale int) error {
	return WriteTable3Env(w, DefaultEnv(pool, scale))
}

// WriteTable3Env renders Table 3 under an Env, annotating failed cells
// when KeepGoing is set.
func WriteTable3Env(w io.Writer, env Env) error {
	rows, errs, err := Table3Env(env)
	if err != nil && !env.KeepGoing {
		return err
	}
	fmt.Fprintln(w, "=== Table 3: branch divergence ===")
	var healthy []report.BranchRow
	for i, row := range rows {
		if errs != nil && errs[i] != nil {
			continue
		}
		healthy = append(healthy, row)
	}
	report.BranchDivTable(w, healthy)
	if errs != nil {
		for i, e := range errs {
			if e != nil {
				fmt.Fprint(w, failedCell("table3/"+apps.InTableOrder()[i].Name, e))
			}
		}
	}
	return err
}

// measureNative executes an app natively with the given bypassing
// setting and returns the cycle-model measurements: the summed modeled
// kernel cycles and the largest launched grid in CTAs. The result is a
// pure function of (app, cfg, l1Warps, scale) — the modeled cycle count
// involves no wall clock — which is what makes it cacheable, and handing
// the launches a pool cannot change it (the SM fan-out is byte-identical
// at every worker count). ctx (which may be nil) bounds the kernels via
// the executor's step-guard poll.
func measureNative(ctx context.Context, pool *runner.Pool, app *apps.App, cfg gpu.ArchConfig, l1Warps, scale int) (profcache.CycleStats, error) {
	prog, err := app.Native()
	if err != nil {
		return profcache.CycleStats{}, err
	}
	counter := rt.NewCycleCounter()
	c := newContext(cfg, counter, rt.LaunchOptions{L1Warps: l1Warps, Ctx: ctx, Pool: pool})
	if err := app.Run(c, prog, scale); err != nil {
		return profcache.CycleStats{}, err
	}
	return profcache.CycleStats{Cycles: counter.Cycles, MaxCTAs: counter.MaxCTAs}, nil
}

// BypassRunScale is the input scale for the bypassing timing runs: large
// enough that the grids fill the SMs (the occupancy the capacity study
// depends on). Profiling for the model inputs stays at the base scale —
// the per-CTA reuse and divergence profiles are scale-invariant.
const BypassRunScale = 2

// timingCTAs runs the app natively at the given scale with no bypassing
// and returns the largest launched grid in CTAs: the measured #CTAs input
// of the Eq. (1) capacity model. Measuring the actual timing-run launch
// replaces the old nCTAs*BypassRunScale² extrapolation, which assumed
// every grid scales quadratically with the input scale and so fed the
// model a 2× inflated CTA count for 1D-grid applications (bfs).
func timingCTAs(ctx context.Context, app *apps.App, cfg gpu.ArchConfig, scale int) (int, error) {
	st, err := measureNative(ctx, nil, app, cfg, 0, scale)
	return st.MaxCTAs, err
}

// BypassStudy runs the Figures 6/7 comparison for one architecture
// configuration over the bypass-favorable applications: baseline (no
// bypassing), exhaustive oracle, and the Eq. (1) prediction driven by the
// tool's own reuse-distance and memory-divergence outputs. Each
// application is a coordinator task; its profiling run, CTA measurement
// and sweep points are gated pool jobs, and the rows are assembled in
// table order.
func BypassStudy(pool *runner.Pool, cfg gpu.ArchConfig, scale int) ([]bypass.Comparison, error) {
	rows, _, err := bypassStudyEnv(DefaultEnv(pool, scale), "bypass/"+cfg.Name, cfg)
	return rows, err
}

// bypassFavorable returns the bypass-favorable applications in table order.
func bypassFavorable() []*apps.App {
	var favs []*apps.App
	for _, a := range apps.InTableOrder() {
		if a.BypassFavorable {
			favs = append(favs, a)
		}
	}
	return favs
}

// bypassStudyEnv is BypassStudy under an Env. prefix names the figure
// panel ("figure6/kepler-k40c-16KB", "figure7/pascal-p100"); per-cell
// errors align with bypassFavorable(). Fault injection applies to the
// profiling run of each cell (the timing runs are native code with no
// hooks and share nothing injectable deterministically); the cell
// context and timeout bound every run of the cell, including the sweep.
func bypassStudyEnv(env Env, prefix string, cfg gpu.ArchConfig) ([]bypass.Comparison, []error, error) {
	favs := bypassFavorable()
	names := make([]string, len(favs))
	for i, a := range favs {
		names[i] = a.Name
	}
	cells := cellNames(prefix, names)
	out := make([]bypass.Comparison, len(favs))
	errs := make([]error, len(favs))
	err := runner.Concurrent(env.Pool, len(favs), func(i int) error {
		a := favs[i]
		cctx, cancel := env.cellCtx(nil)
		defer cancel()
		cellErr := func() error {
			// Step 1: profile to obtain the model inputs (Section 4.2-D
			// uses the memory tracing of case studies A and B). With a
			// cache this is the same cell Figure 5 profiles, served from
			// one shared fill.
			r, err := runner.DoCtx(cctx, env.Pool, func(ctx context.Context) (*profcache.Results, error) {
				return env.resultsCell(ctx, cells[i], a, cfg, instrument.Options{Memory: true})
			})
			if err != nil {
				return err
			}
			rdLine := r.ReuseLine()
			rdElem := r.ReuseElem()
			md := r.MemDiv()

			// Step 2: measure the timing-run grid and form the prediction.
			// The measurement run is the baseline sweep point (no
			// bypassing, timing scale), so with a cache the two share one
			// native run.
			nCTAs, err := runner.DoCtx(cctx, env.Pool, func(ctx context.Context) (int, error) {
				st, err := env.nativeStats(ctx, a, cfg, 0, env.Scale*BypassRunScale)
				return st.MaxCTAs, err
			})
			if err != nil {
				return err
			}
			ctasPerSM := bypass.ResidentCTAs(cfg, a.WarpsPerCTA, nCTAs)
			predict := bypass.PredictFromProfiles(cfg, rdLine, rdElem, md, a.WarpsPerCTA, ctasPerSM)

			// Step 3: measure baseline / oracle / prediction on native
			// code; the sweep fans out on the same pool.
			cmp, err := bypass.Compare(a.Name, cfg.Name, cfg, a.WarpsPerCTA, predict, env.Pool,
				func(k int) (int64, error) {
					l1Warps := k
					if k >= a.WarpsPerCTA {
						l1Warps = 0 // rt semantics: 0 = no bypassing
					}
					st, err := env.nativeStats(cctx, a, cfg, l1Warps, env.Scale*BypassRunScale)
					return st.Cycles, err
				})
			if err != nil {
				return err
			}
			out[i] = cmp
			return nil
		}()
		if cellErr != nil {
			if !env.KeepGoing {
				return cellErr
			}
			errs[i] = cellErr
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return out, errs, joinCellErrors(cells, errs)
}

// Figure6Configs are the Kepler L1 splits of Figure 6.
func Figure6Configs() []gpu.ArchConfig {
	return []gpu.ArchConfig{
		gpu.KeplerK40c().WithL1(16 * 1024),
		gpu.KeplerK40c().WithL1(48 * 1024),
	}
}

// bypassPanel renders one bypass-comparison panel: healthy rows through
// the report, then the keep-going annotations for failed cells in order.
func bypassPanel(w io.Writer, prefix string, rows []bypass.Comparison, errs []error) {
	favs := bypassFavorable()
	var healthy []bypass.Comparison
	for i, r := range rows {
		if errs != nil && errs[i] != nil {
			continue
		}
		healthy = append(healthy, r)
	}
	report.BypassComparison(w, healthy)
	if errs != nil {
		for i, e := range errs {
			if e != nil {
				fmt.Fprint(w, failedCell(prefix+"/"+favs[i].Name, e))
			}
		}
	}
}

// WriteFigure6 renders Figure 6 (Kepler, 16 KB and 48 KB L1); the two L1
// splits run concurrently into ordered buffers.
func WriteFigure6(w io.Writer, pool *runner.Pool, scale int) error {
	return WriteFigure6Env(w, DefaultEnv(pool, scale))
}

// WriteFigure6Env renders Figure 6 under an Env, annotating failed cells
// when KeepGoing is set. The two L1-split cells of one app are named
// "figure6/kepler-k40c-16KB/<app>" and "figure6/kepler-k40c-48KB/<app>".
func WriteFigure6Env(w io.Writer, env Env) error {
	cfgs := Figure6Configs()
	bufs := make([]bytes.Buffer, len(cfgs))
	panelErrs := make([]error, len(cfgs))
	err := runner.Concurrent(env.Pool, len(cfgs), func(i int) error {
		cfg := cfgs[i]
		prefix := fmt.Sprintf("figure6/%s-%dKB", cfg.Name, cfg.L1Bytes/1024)
		rows, errs, err := bypassStudyEnv(env, prefix, cfg)
		if err != nil {
			if !env.KeepGoing {
				return err
			}
			panelErrs[i] = err
		}
		fmt.Fprintf(&bufs[i], "=== Figure 6: horizontal cache bypassing on %s, %d KB L1 (normalized time) ===\n",
			cfg.Name, cfg.L1Bytes/1024)
		bypassPanel(&bufs[i], prefix, rows, errs)
		return nil
	})
	if err != nil {
		return err
	}
	for i := range bufs {
		if _, err := w.Write(bufs[i].Bytes()); err != nil {
			return err
		}
	}
	return errors.Join(panelErrs...)
}

// WriteFigure7 renders Figure 7 (Pascal, 24 KB unified cache).
func WriteFigure7(w io.Writer, pool *runner.Pool, scale int) error {
	return WriteFigure7Env(w, DefaultEnv(pool, scale))
}

// WriteFigure7Env renders Figure 7 under an Env, annotating failed cells
// when KeepGoing is set.
func WriteFigure7Env(w io.Writer, env Env) error {
	cfg := gpu.PascalP100()
	prefix := "figure7/" + cfg.Name
	rows, errs, err := bypassStudyEnv(env, prefix, cfg)
	if err != nil && !env.KeepGoing {
		return err
	}
	fmt.Fprintf(w, "=== Figure 7: horizontal cache bypassing on %s, %d KB unified cache (normalized time) ===\n",
		cfg.Name, cfg.L1Bytes/1024)
	bypassPanel(w, prefix, rows, errs)
	return err
}

// Overhead measures the wall-clock slowdown of memory+control-flow
// instrumentation for every application on one architecture (Figure 10):
// the ratio of kernel-execution wall time between the instrumented and
// native builds on the same simulator (the paper measures "runtime
// overheads of running GPU kernels").
//
// Program construction parallelizes freely, but the timed native and
// instrumented runs of each app execute inside runner.Exclusive so that
// concurrent siblings cannot inflate either side of the ratio. Each side
// is the fastest of three or more alternating runs.
func Overhead(pool *runner.Pool, cfg gpu.ArchConfig, scale int) ([]report.OverheadRow, error) {
	rows, _, err := OverheadEnv(DefaultEnv(pool, scale), cfg)
	return rows, err
}

// OverheadEnv is Overhead under an Env; per-cell errors align with
// apps.InTableOrder(). Cells are named "figure10/<arch>/<app>"; worker
// panics injected there surface as that cell's error. Note the measured
// times are wall clock, so this figure is not run-to-run deterministic.
func OverheadEnv(env Env, cfg gpu.ArchConfig) ([]report.OverheadRow, []error, error) {
	const (
		reps     = 3    // timed runs per side, at least; the fastest one is reported
		maxReps  = 12   // at most, for kernels too short to time in three
		minTimed = 0.02 // seconds of native kernel time that ends the extra runs
	)
	order := apps.InTableOrder()
	names := make([]string, len(order))
	for i, a := range order {
		names[i] = a.Name
	}
	cells := cellNames("figure10/"+cfg.Name, names)
	rows, errs, err := runCells(env, cells, func(ctx context.Context, i int) (report.OverheadRow, error) {
		a := order[i]
		inj := env.Inject.Cell(cells[i])
		inj.MaybePanic()
		native, err := a.Native()
		if err != nil {
			return report.OverheadRow{}, err
		}
		prog, err := a.Instrumented(instrument.MemoryAndBlocks())
		if err != nil {
			return report.OverheadRow{}, err
		}
		// timed returns the kernel wall time of one run, which starts from
		// a collected heap so that sweeping the garbage of the run before
		// it is not on its clock.
		timed := func(prog *instrument.Program, l rt.Listener) (float64, error) {
			runtime.GC()
			c := newContext(cfg, l, rt.LaunchOptions{Ctx: ctx})
			err := a.Run(c, prog, env.Scale)
			return c.KernelTime.Seconds(), err
		}
		return runner.Exclusive(env.Pool, func() (report.OverheadRow, error) {
			// Each side reports its fastest run: wall-clock noise only
			// ever adds, and on runs this short a descheduled thread costs
			// as much as the kernel. Native and profiled runs alternate so
			// that a slow stretch of the machine falls on both sides.
			// A millisecond kernel gets more pairs (the minimum needs
			// samples, and these cost nothing): up to maxReps, until
			// minTimed seconds of native kernel time have been seen.
			row := report.OverheadRow{App: a.Name, Arch: cfg.Name, Native: math.Inf(1), Profiled: math.Inf(1)}
			seen := 0.0
			for r := 0; r < reps || (r < maxReps && seen < minTimed); r++ {
				sec, err := timed(native, nil)
				if err != nil {
					return report.OverheadRow{}, err
				}
				seen += sec
				row.Native = min(row.Native, sec)
				p := profiler.New()
				p.TraceCap = inj.TraceCap(env.TraceCap)
				if sec, err = timed(prog, inj.Listener(p)); err != nil {
					return report.OverheadRow{}, err
				}
				row.Profiled = min(row.Profiled, sec)
			}
			return row, nil
		})
	})
	if err != nil && !env.KeepGoing {
		return nil, nil, err
	}
	return rows, errs, err
}

// WriteFigure10 renders Figure 10 for both architectures.
func WriteFigure10(w io.Writer, pool *runner.Pool, scale int) error {
	return WriteFigure10Env(w, DefaultEnv(pool, scale))
}

// WriteFigure10Env renders Figure 10 under an Env, annotating failed
// cells when KeepGoing is set.
func WriteFigure10Env(w io.Writer, env Env) error {
	fmt.Fprintln(w, "=== Figure 10: overhead of memory and control-flow instrumentation ===")
	var archErrs []error
	for _, cfg := range []gpu.ArchConfig{gpu.KeplerK40c(), gpu.PascalP100()} {
		rows, errs, err := OverheadEnv(env, cfg)
		if err != nil {
			if !env.KeepGoing {
				return err
			}
			archErrs = append(archErrs, err)
		}
		var healthy []report.OverheadRow
		for i, row := range rows {
			if errs != nil && errs[i] != nil {
				continue
			}
			healthy = append(healthy, row)
		}
		report.OverheadTable(w, healthy)
		if errs != nil {
			for i, e := range errs {
				if e != nil {
					fmt.Fprint(w, failedCell("figure10/"+cfg.Name+"/"+apps.InTableOrder()[i].Name, e))
				}
			}
		}
	}
	return errors.Join(archErrs...)
}

// WriteCodeDataCentric renders the Figures 8/9 debugging views for bfs:
// the most divergent source sites with full host-to-device call paths,
// and the data-flow provenance of the object behind the worst site.
func WriteCodeDataCentric(w io.Writer, pool *runner.Pool, scale int) error {
	return WriteCodeDataCentricEnv(w, DefaultEnv(pool, scale))
}

// WriteCodeDataCentricEnv renders Figures 8/9 under an Env. The single
// evaluation cell is named "debugviews/bfs"; with KeepGoing a failure
// becomes the annotation line in place of both views.
//
// The views need the raw trace, which the cache's analysis bundle does
// not carry — so what is cached is the rendered text itself, as a
// "view" entry keyed on exactly the inputs the rendering depends on.
// A warm run serves the bytes without profiling the cell at all.
func WriteCodeDataCentricEnv(w io.Writer, env Env) error {
	const cell = "debugviews/bfs"
	a := apps.ByName("bfs")
	cfg := gpu.KeplerK40c()
	opts := instrument.Options{Memory: true}
	render := func(ctx context.Context) ([]byte, error) {
		p, err := runner.DoCtx(ctx, env.Pool, func(ctx context.Context) (*profiler.Profiler, error) {
			return env.profileCell(ctx, cell, a, cfg, opts)
		})
		if err != nil {
			return nil, err
		}
		var b bytes.Buffer
		renderDebugViews(&b, p, cfg.L1LineSize)
		return b.Bytes(), nil
	}
	cctx, cancel := env.cellCtx(nil)
	defer cancel()
	var out []byte
	var err error
	if env.cacheActive() {
		key := profcache.ViewKey(a, cfg, opts, env.Scale, env.TraceCap, "debugviews")
		out, err = env.Cache.Bytes(cctx, key, render)
	} else {
		out, err = render(cctx)
	}
	if err != nil {
		if env.KeepGoing {
			fmt.Fprintln(w, "=== Figures 8/9: code- and data-centric views ===")
			fmt.Fprint(w, failedCell(cell, err))
		}
		return err
	}
	_, err = w.Write(out)
	return err
}

// renderDebugViews renders both debugging views from a completed
// profile. It writes exactly the bytes the caller publishes (and
// caches), so everything presentation-level lives here.
func renderDebugViews(w io.Writer, p *profiler.Profiler, lineSize int) {
	md := MergedMemDiv(p, lineSize)
	fmt.Fprintln(w, "=== Figure 8: code-centric view (most memory-divergent sites) ===")
	report.CodeCentric(w, p, md, 3)

	fmt.Fprintln(w, "=== Figure 9: data-centric view (object behind the worst site) ===")
	sites := md.Sites()
	if len(sites) == 0 {
		fmt.Fprintln(w, "(no memory-divergent sites recorded)")
		return
	}
	// Find a memory record at the worst site and chase its address.
	// Records whose active mask is empty carry no lane addresses and are
	// skipped rather than misattributed to lane 0.
	worst := sites[0]
	for _, kp := range p.Kernels {
		for i := range kp.Trace.Mem {
			m := &kp.Trace.Mem[i]
			if kp.Trace.Locs.Loc(m.Loc) != worst.Loc || m.Mask == 0 {
				continue
			}
			for l := 0; l < 32; l++ {
				if m.Mask&(1<<uint(l)) != 0 {
					report.DataCentric(w, p, m.Addrs[l])
					return
				}
			}
		}
	}
	fmt.Fprintf(w, "(no trace record with active lanes matches the worst site %s)\n", worst.Loc)
}
