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
	"context"
	"errors"
	"fmt"
	"io"

	"cudaadvisor/internal/analysis"
	"cudaadvisor/internal/apps"
	"cudaadvisor/internal/bypass"
	"cudaadvisor/internal/faultinject"
	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/instrument"
	"cudaadvisor/internal/profcache"
	"cudaadvisor/internal/profiler"
	"cudaadvisor/internal/report"
	"cudaadvisor/internal/rt"
	"cudaadvisor/internal/runner"
)

// DefaultDeviceMem is the simulated global-memory capacity of every
// device a cell creates. It is a limit: the device backs only what a run
// allocates or stores to.
const DefaultDeviceMem = 512 << 20

// newContext is the one place a cell gets its simulated machine: a fresh
// device of the standard capacity under a host context with the cell's
// listener (nil runs natively) and launch policies.
func newContext(cfg gpu.ArchConfig, l rt.Listener, opts rt.LaunchOptions) *rt.Context {
	c := rt.NewContext(gpu.NewDevice(cfg, DefaultDeviceMem), l)
	c.Options = opts
	return c
}

// Profile runs one application instrumented under a fresh profiler on the
// given architecture and returns the profiler: one cell with no policy
// applied. Every call builds its own module, device and profiler, so
// concurrent calls share nothing.
func Profile(app *apps.App, cfg gpu.ArchConfig, opts instrument.Options, scale int) (*profiler.Profiler, error) {
	return Env{Scale: scale}.profileCell(context.Background(), "", app, cfg, opts)
}

// profiledCells runs one profiling cell per named application (cells
// "prefix/<app>", one pool job each) and returns what pick reads off
// each analysis bundle. With KeepGoing the per-cell errors come back
// aligned with names and the error aggregates them.
func profiledCells[T any](env Env, prefix string, names []string, cfg gpu.ArchConfig, opts instrument.Options,
	pick func(name string, r *profiler.Analyses) T) ([]T, []error, error) {
	cells := cellNames(prefix, names)
	return runCells(env, cells, func(ctx context.Context, i int) (T, error) {
		r, err := env.resultsCell(ctx, cells[i], apps.ByName(names[i]), cfg, opts)
		if err != nil {
			var zero T
			return zero, err
		}
		return pick(names[i], r), nil
	})
}

// byName keys per-cell values by their application names.
func byName[T any](names []string, vals []T) map[string]T {
	out := make(map[string]T, len(vals))
	for i, v := range vals {
		out[names[i]] = v
	}
	return out
}

// Figure4Apps are the seven applications shown in Figure 4 (bfs and nn
// are excluded for >99% no-reuse; syr2k resembles syrk).
var Figure4Apps = []string{"backprop", "hotspot", "lavaMD", "nw", "srad_v2", "bicg", "syrk"}

// Figure4 computes the reuse-distance profiles (element-based model,
// Kepler only — reuse distance is machine-independent, Section 4.2-A),
// one pool job per application. Per-cell errors align with Figure4Apps.
func Figure4(env Env) (map[string]*analysis.ReuseResult, []error, error) {
	res, errs, err := profiledCells(env, "figure4", Figure4Apps, gpu.KeplerK40c(), instrument.Options{Memory: true},
		func(_ string, r *profiler.Analyses) *analysis.ReuseResult { return r.ReuseElem() })
	return byName(Figure4Apps, res), errs, err
}

// WriteFigure4 renders Figure 4, annotating failed cells when KeepGoing
// is set.
func WriteFigure4(w io.Writer, env Env) error {
	res, errs, err := Figure4(env)
	if err != nil && !env.KeepGoing {
		return err
	}
	fmt.Fprintln(w, "=== Figure 4: reuse distance analysis (element-based, per CTA) ===")
	for i, name := range Figure4Apps {
		if errs != nil && errs[i] != nil {
			fmt.Fprint(w, failedCell(errs[i]))
			continue
		}
		report.ReuseHistogram(w, name, res[name])
	}
	return err
}

// Figure5 computes the memory-divergence distributions for one
// architecture (Kepler: 128 B lines; Pascal: 32 B lines), all ten apps,
// one pool job per application. Per-cell errors align with
// apps.TableOrder.
func Figure5(env Env, cfg gpu.ArchConfig) (map[string]*analysis.MemDivResult, []error, error) {
	res, errs, err := profiledCells(env, "figure5/"+cfg.Name, apps.TableOrder, cfg, instrument.Options{Memory: true},
		func(_ string, r *profiler.Analyses) *analysis.MemDivResult { return r.MemDiv() })
	return byName(apps.TableOrder, res), errs, err
}

// WriteFigure5 renders both panels of Figure 5, annotating failed cells
// when KeepGoing is set. The two architecture panels run concurrently.
func WriteFigure5(w io.Writer, env Env) error {
	cfgs := []gpu.ArchConfig{gpu.KeplerK40c(), gpu.PascalP100()}
	return writePanels(w, env, len(cfgs), func(w io.Writer, i int) error {
		cfg := cfgs[i]
		res, errs, err := Figure5(env, cfg)
		if err != nil && !env.KeepGoing {
			return err
		}
		fmt.Fprintf(w, "=== Figure 5: memory divergence on %s (%d B cache lines) ===\n",
			cfg.Name, cfg.L1LineSize)
		for j, name := range apps.TableOrder {
			if errs != nil && errs[j] != nil {
				fmt.Fprint(w, failedCell(errs[j]))
				continue
			}
			report.MemDivDistribution(w, name, res[name])
		}
		return err
	})
}

// Table3 computes the branch-divergence table (architecture-independent;
// run on the Pascal configuration as in the paper), one pool job per
// application. Per-cell errors align with the rows.
func Table3(env Env) ([]report.BranchRow, []error, error) {
	return profiledCells(env, "table3", apps.TableOrder, gpu.PascalP100(), instrument.Options{Blocks: true},
		func(name string, r *profiler.Analyses) report.BranchRow {
			return report.BranchRow{App: name, Result: r.BranchDiv()}
		})
}

// WriteTable3 renders Table 3, annotating failed cells when KeepGoing is
// set.
func WriteTable3(w io.Writer, env Env) error {
	rows, errs, err := Table3(env)
	if err != nil && !env.KeepGoing {
		return err
	}
	fmt.Fprintln(w, "=== Table 3: branch divergence ===")
	writeRows(w, rows, errs, report.BranchDivTable)
	return err
}

// measureCycles executes app, its native program for zero opts and else
// the program instrumented with opts, and returns the cycle-model
// measurements: the summed modeled kernel cycles and the largest launched
// grid in CTAs. Under a bound (0 = none) a run whose summed cycles pass
// it stops there, before the app's output check, and records bound+1, a
// lower bound on them (see profcache.CycleStats). The result is a pure function of (app, cfg, opts,
// l1Warps, scale, bound): the modeled cycle count involves no wall clock,
// and a hook costs its modeled cycles whatever records it. That is what
// makes it cacheable, and handing the launches a pool cannot change it
// (the SM fan-out is byte-identical at every worker count, and every SM
// stops at the bound on its own). inj (nil for none) wraps the run's
// listener. ctx (which may be nil) bounds the kernels via the executor's
// step-guard poll.
func measureCycles(ctx context.Context, pool *runner.Pool, inj *faultinject.Injector, app *apps.App, cfg gpu.ArchConfig,
	opts instrument.Options, l1Warps, scale int, bound int64) (profcache.CycleStats, error) {
	if onCycles != nil {
		onCycles(app)
	}
	var prog *instrument.Program
	var err error
	if opts == (instrument.Options{}) {
		prog, err = app.Native()
	} else {
		prog, err = app.Instrumented(opts)
	}
	if err != nil {
		return profcache.CycleStats{}, err
	}
	counter := rt.NewCycleCounter()
	c := newContext(cfg, inj.Listener(counter), rt.LaunchOptions{L1Warps: l1Warps, Ctx: ctx, Pool: pool, MaxCycles: bound})
	if err := app.Run(c, prog, scale); errors.Is(err, gpu.ErrOverBudget) {
		return profcache.CycleStats{Cycles: bound + 1}, nil
	} else if err != nil {
		return profcache.CycleStats{}, err
	}
	return profcache.CycleStats{Cycles: counter.Cycles, MaxCTAs: int64(counter.MaxCTAs)}, nil
}

// onCycles, set by a test only, is told of every run measureCycles
// makes.
var onCycles func(*apps.App)

// BypassRunScale is the input scale for the bypassing timing runs: large
// enough that the grids fill the SMs (the occupancy the capacity study
// depends on). Profiling for the model inputs stays at the base scale —
// the per-CTA reuse and divergence profiles are scale-invariant.
const BypassRunScale = 2

// bypassFavorable returns the names of the bypass-favorable applications
// in table order.
func bypassFavorable() []string {
	var favs []string
	for _, a := range apps.InTableOrder() {
		if a.BypassFavorable {
			favs = append(favs, a.Name)
		}
	}
	return favs
}

// bypassStudy runs the Figures 6/7 comparison for one architecture
// configuration over the bypass-favorable applications, its cells named
// under a figure panel's prefix ("figure6/kepler-k40c-16KB",
// "figure7/pascal-p100"): baseline (no bypassing), exhaustive oracle, and
// the Eq. (1) prediction driven by the tool's own reuse-distance and
// memory-divergence outputs. Each application is a coordinator task; its
// profiling run, CTA measurement and sweep points are gated pool jobs,
// and the rows are assembled in table order. Per-cell errors align with
// the rows. Fault injection
// applies to the profiling run of each cell (the timing runs are native
// code with no hooks and share nothing injectable deterministically);
// the cell context and timeout bound every run of the cell, including
// the sweep.
func bypassStudy(env Env, prefix string, cfg gpu.ArchConfig) ([]bypass.Comparison, []error, error) {
	favs := bypassFavorable()
	cells := cellNames(prefix, favs)
	out := make([]bypass.Comparison, len(favs))
	errs := make([]error, len(favs))
	err := runner.Concurrent(env.Pool, len(favs), func(i int) error {
		a := apps.ByName(favs[i])
		cctx, cancel := env.cellCtx(nil)
		defer cancel()
		cellErr := func() error {
			// Step 1: profile to obtain the model inputs (Section 4.2-D
			// uses the memory tracing of case studies A and B). With a
			// cache this is the same cell Figure 5 profiles, served from
			// one shared fill.
			r, err := runner.DoCtx(cctx, env.Pool, func(ctx context.Context) (*profiler.Analyses, error) {
				return env.resultsCell(ctx, cells[i], a, cfg, instrument.Options{Memory: true})
			})
			if err != nil {
				return err
			}
			rdLine := r.ReuseLine()
			rdElem := r.ReuseElem()
			md := r.MemDiv()

			// Step 2: measure the timing-run grid — the largest launched
			// grid in CTAs, the measured #CTAs input of the Eq. (1)
			// capacity model — and form the prediction. The measurement
			// run is the baseline sweep point (no bypassing, timing
			// scale), so the sweep reuses its cycles.
			base, err := runner.DoCtx(cctx, env.Pool, func(ctx context.Context) (profcache.CycleStats, error) {
				return env.cycles(ctx, nil, a, cfg, instrument.Options{}, 0, env.Scale*BypassRunScale, 0)
			})
			if err != nil {
				return err
			}
			ctasPerSM := bypass.ResidentCTAs(cfg, a.WarpsPerCTA, int(base.MaxCTAs))
			predict := bypass.PredictFromProfiles(cfg, rdLine, rdElem, md, a.WarpsPerCTA, ctasPerSM)

			// Step 3: measure oracle and prediction on native code
			// against step 2's baseline; the sweep fans out on the same
			// pool, each point bounded as Compare asks.
			cmp, err := bypass.Compare(a.Name, cfg, base.Cycles, a.WarpsPerCTA, predict, env.Pool,
				func(k int, bound int64) (int64, error) {
					st, err := env.cycles(cctx, nil, a, cfg, instrument.Options{}, k, env.Scale*BypassRunScale, bound)
					return st.Cycles, err
				})
			if err != nil {
				return err
			}
			out[i] = cmp
			return nil
		}()
		if env.KeepGoing {
			errs[i], cellErr = cellErr, nil
		}
		return cellErr
	})
	if err != nil {
		return nil, nil, err
	}
	if !env.KeepGoing {
		return out, nil, nil
	}
	return out, errs, nameCellErrors(cells, errs)
}

// Figure6Configs are the Kepler L1 splits of Figure 6.
func Figure6Configs() []gpu.ArchConfig {
	return []gpu.ArchConfig{
		gpu.KeplerK40c().WithL1(16 * 1024),
		gpu.KeplerK40c().WithL1(48 * 1024),
	}
}

// writeBypassPanel runs and renders one bypass-comparison panel under
// its heading.
func writeBypassPanel(w io.Writer, env Env, prefix, heading string, cfg gpu.ArchConfig) error {
	rows, errs, err := bypassStudy(env, prefix, cfg)
	if err != nil && !env.KeepGoing {
		return err
	}
	fmt.Fprintln(w, heading)
	writeRows(w, rows, errs, report.BypassComparison)
	return err
}

// WriteFigure6 renders Figure 6 (Kepler, 16 KB and 48 KB L1), annotating
// failed cells when KeepGoing is set. The two L1 splits run concurrently;
// the two cells of one app are named "figure6/kepler-k40c-16KB/<app>"
// and "figure6/kepler-k40c-48KB/<app>".
func WriteFigure6(w io.Writer, env Env) error {
	cfgs := Figure6Configs()
	return writePanels(w, env, len(cfgs), func(w io.Writer, i int) error {
		cfg := cfgs[i]
		return writeBypassPanel(w, env, fmt.Sprintf("figure6/%s-%dKB", cfg.Name, cfg.L1Bytes/1024),
			fmt.Sprintf("=== Figure 6: horizontal cache bypassing on %s, %d KB L1 (normalized time) ===",
				cfg.Name, cfg.L1Bytes/1024), cfg)
	})
}

// WriteFigure7 renders Figure 7 (Pascal, 24 KB unified cache),
// annotating failed cells when KeepGoing is set.
func WriteFigure7(w io.Writer, env Env) error {
	cfg := gpu.PascalP100()
	return writeBypassPanel(w, env, "figure7/"+cfg.Name,
		fmt.Sprintf("=== Figure 7: horizontal cache bypassing on %s, %d KB unified cache (normalized time) ===",
			cfg.Name, cfg.L1Bytes/1024), cfg)
}

// Overhead measures the slowdown of memory+control-flow instrumentation
// for every application on one architecture (Figure 10): the ratio of
// modeled kernel cycles between the instrumented and native builds, both
// at env.Scale (the paper measures "runtime overheads of running GPU
// kernels"). The simulated GPU charges each hook call the architecture's
// HookCost, so the figure is deterministic and both sides are cacheable
// cycle measurements.
//
// Per-cell errors align with apps.TableOrder. Cells are named
// "figure10/<arch>/<app>"; fault injection applies to the instrumented
// run, and worker panics injected there surface as that cell's error.
func Overhead(env Env, cfg gpu.ArchConfig) ([]report.OverheadRow, []error, error) {
	cells := cellNames("figure10/"+cfg.Name, apps.TableOrder)
	return runCells(env, cells, func(ctx context.Context, i int) (report.OverheadRow, error) {
		a := apps.ByName(apps.TableOrder[i])
		inj := env.Inject.Cell(cells[i])
		inj.MaybePanic()
		inj.MaybeKill()
		native, err := env.cycles(ctx, nil, a, cfg, instrument.Options{}, 0, env.Scale, 0)
		if err != nil {
			return report.OverheadRow{}, err
		}
		profiled, err := env.cycles(ctx, inj, a, cfg, instrument.MemoryAndBlocks(), 0, env.Scale, 0)
		if err != nil {
			return report.OverheadRow{}, err
		}
		return report.OverheadRow{App: a.Name, Arch: cfg.Name, Native: native.Cycles, Profiled: profiled.Cycles}, nil
	})
}

// WriteFigure10 renders Figure 10 for both architectures, annotating
// failed cells when KeepGoing is set.
func WriteFigure10(w io.Writer, env Env) error {
	fmt.Fprintln(w, "=== Figure 10: overhead of memory and control-flow instrumentation ===")
	var archErrs []error
	for _, cfg := range []gpu.ArchConfig{gpu.KeplerK40c(), gpu.PascalP100()} {
		rows, errs, err := Overhead(env, cfg)
		if err != nil && !env.KeepGoing {
			return err
		}
		archErrs = append(archErrs, err)
		writeRows(w, rows, errs, report.OverheadTable)
	}
	return errors.Join(archErrs...)
}

// WriteCodeDataCentric renders the Figures 8/9 debugging views for bfs:
// the most divergent source sites with full host-to-device call paths,
// and the data-flow provenance of the object behind the worst site. The
// single evaluation cell is named "debugviews/bfs"; with KeepGoing a
// failure becomes the annotation line in place of both views.
func WriteCodeDataCentric(w io.Writer, env Env) error {
	cfg := gpu.KeplerK40c()
	out, err := env.viewCell("debugviews/bfs", apps.ByName("bfs"), cfg, instrument.Options{Memory: true}, "debugviews",
		func(w io.Writer, p *profiler.Profiler) error {
			renderDebugViews(w, p, cfg.L1LineSize)
			return nil
		})
	if err != nil && env.KeepGoing {
		fmt.Fprintln(w, "=== Figures 8/9: code- and data-centric views ===")
	}
	if _, werr := w.Write(out); err == nil {
		err = werr
	}
	return err
}

// renderDebugViews renders both debugging views from a completed
// profile. It writes exactly the bytes the caller publishes (and
// caches), so everything presentation-level lives here.
func renderDebugViews(w io.Writer, p *profiler.Profiler, lineSize int) {
	md := p.Analyses(lineSize).MemDiv()
	fmt.Fprintln(w, "=== Figure 8: code-centric view (most memory-divergent sites) ===")
	report.CodeCentric(w, p, md, 3)

	fmt.Fprintln(w, "=== Figure 9: data-centric view (object behind the worst site) ===")
	sites := md.Sites()
	if len(sites) == 0 {
		fmt.Fprintln(w, "(no memory-divergent sites recorded)")
		return
	}
	report.DataCentric(w, p, sites[0].SampleAddr())
}
