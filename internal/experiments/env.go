// Env carries the execution environment the resilience pipeline threads
// through every experiment: the worker pool, the input scale, run- and
// cell-level cancellation, trace-buffer bounds, fault injection, and the
// keep-going degradation policy.
//
// Every evaluation cell (one app on one architecture under one analysis)
// gets a stable hierarchical name — "figure5/kepler-k40c/bfs" — that is
// both the keep-going annotation label and the key fault injection hashes
// to pick its targets, so injected failures land on exactly the same
// cells at every -j.
package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"cudaadvisor/internal/apps"
	"cudaadvisor/internal/faultinject"
	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/instrument"
	"cudaadvisor/internal/profcache"
	"cudaadvisor/internal/profiler"
	"cudaadvisor/internal/rt"
	"cudaadvisor/internal/runner"
)

// Env is the run-wide experiment environment. The zero value of every
// optional field means "as before this machinery existed": no deadline,
// unbounded traces, no injection, abort on first failure.
type Env struct {
	Pool  *runner.Pool
	Scale int

	// Ctx bounds the whole run; nil means context.Background().
	Ctx context.Context

	// CellTimeout bounds each evaluation cell (0 = none). The deadline is
	// polled by the GPU executor at the warp-step guard, so a runaway
	// cell aborts without taking the rest of the run with it.
	CellTimeout time.Duration

	// TraceCap bounds each kernel trace's buffers (0 = unbounded); see
	// profiler.Profiler.TraceCap.
	TraceCap int

	// Inject enables deterministic fault injection (nil = off).
	Inject *faultinject.Config

	// KeepGoing degrades gracefully: a failing cell becomes an annotated
	// "[cell failed: …]" line, the healthy cells render normally, and the
	// figure returns the aggregated error for a non-zero exit at the end.
	KeepGoing bool

	// Cache, when non-nil, serves repeated profiling and cycle-model cells
	// from a content-addressed cache (see internal/profcache) instead of
	// re-running them; rendered-text cells (the debug views, advise
	// reports) cache their output bytes as "view" entries, and all cells
	// of one run share its one simulation (runCell). It is consulted
	// only when the run is unperturbed: fault injection and per-cell
	// timeouts bypass it entirely (see cacheActive).
	Cache *profcache.Cache
}

// base returns the run-wide context.
func (e Env) base() context.Context {
	if e.Ctx != nil {
		return e.Ctx
	}
	return context.Background()
}

// cellCtx derives one cell's context from parent, applying CellTimeout.
func (e Env) cellCtx(parent context.Context) (context.Context, context.CancelFunc) {
	if parent == nil {
		parent = e.base()
	}
	if e.CellTimeout > 0 {
		return context.WithTimeout(parent, e.CellTimeout)
	}
	return context.WithCancel(parent)
}

// profileCell runs one application under the profiler with every Env
// policy applied: the cell's injector (panic, trace cap, listener
// wrapping) and the cell context plumbed down to the GPU executor. The
// per-SM schedule is always recorded: it is observational and O(CTAs),
// and the timeline export of the same run reads it.
func (e Env) profileCell(ctx context.Context, cell string, app *apps.App, cfg gpu.ArchConfig, opts instrument.Options) (*profiler.Profiler, error) {
	inj := e.Inject.Cell(cell)
	inj.MaybePanic()
	inj.MaybeKill()
	prog, err := app.Instrumented(opts)
	if err != nil {
		return nil, fmt.Errorf("%s: instrument: %w", app.Name, err)
	}
	p := profiler.New()
	p.TraceCap = inj.TraceCap(e.TraceCap)
	// Hand the cell the run's pool too: a launch splits its SM shards —
	// each recording into its own trace fragment — across whatever
	// workers the experiment fan-out leaves idle (the shard fan-out is
	// non-blocking, so cell- and launch-level parallelism share one -j
	// bound without deadlock).
	c := newContext(cfg, inj.Listener(p), rt.LaunchOptions{Ctx: ctx, RecordSchedule: true, Pool: e.Pool})
	if err := app.Run(c, prog, e.Scale); err != nil {
		return nil, fmt.Errorf("%s: run: %w", app.Name, err)
	}
	return p, nil
}

// cacheActive reports whether cells may be served from (and written to)
// the cache. Fault injection must bypass it both ways: an injected cell's
// result is wrong by design and must never be stored, and serving an
// injected run from a healthy entry would defeat the injection. Per-cell
// timeouts bypass it for the same one-directional hazard — a cell that
// beat its deadline once is not guaranteed to again, and a cached result
// would mask the timeout the user asked to enforce.
func (e Env) cacheActive() bool {
	return e.Cache != nil && e.Inject == nil && e.CellTimeout == 0
}

// runCell returns the completed run of one profiling cell. Without an
// active cache that is profileCell: a live run whose bundle derives
// lazily, so a one-shot cell pays only for what it reads, and fans each
// derivation out on the run's pool. With one it is the cache's run for
// the cell's inputs, shared by every figure cell and view of those
// inputs and immutable: simulated once (single-flight), fully derived,
// and detached, so keeping it holds no trace record. A fill derives on
// its own slot: daemon hits would wait for the workers a fan-out takes.
func (e Env) runCell(ctx context.Context, cell string, app *apps.App, cfg gpu.ArchConfig, opts instrument.Options) (*profiler.Profiler, error) {
	if !e.cacheActive() {
		p, err := e.profileCell(ctx, cell, app, cfg, opts)
		if err == nil {
			p.Pool = e.Pool
		}
		return p, err
	}
	key := profcache.ProfileKey(app, cfg, opts, e.Scale, e.TraceCap)
	return e.Cache.Run(ctx, key, func(ctx context.Context) (*profiler.Profiler, error) {
		p, err := e.profileCell(ctx, cell, app, cfg, opts)
		if err == nil {
			err = p.Analyses(cfg.L1LineSize).Detach(ctx)
		}
		return p, err
	})
}

// resultsCell returns the analysis bundle of one profiling cell: its
// run's own, or with an active cache the "profile" entry of its inputs,
// filled from that run. Bundles are shared and must not be modified.
func (e Env) resultsCell(ctx context.Context, cell string, app *apps.App, cfg gpu.ArchConfig, opts instrument.Options) (*profiler.Analyses, error) {
	run := func(ctx context.Context) (*profiler.Profiler, error) { return e.runCell(ctx, cell, app, cfg, opts) }
	if e.cacheActive() {
		return e.Cache.Profile(ctx, profcache.ProfileKey(app, cfg, opts, e.Scale, e.TraceCap), cfg.L1LineSize, run)
	}
	p, err := run(ctx)
	if err != nil {
		return nil, err
	}
	return p.Analyses(cfg.L1LineSize), nil
}

// cycles runs one cycle-model measurement (measureCycles) through the
// cache when active; an injected run (inj non-nil) never is. One native
// run yields both the modeled cycles and the largest launched grid, so
// the bypass study's CTA measurement is also its baseline sweep point
// (l1Warps = 0 at the timing scale).
func (e Env) cycles(ctx context.Context, inj *faultinject.Injector, app *apps.App, cfg gpu.ArchConfig,
	opts instrument.Options, l1Warps, scale int) (profcache.CycleStats, error) {
	measure := func(ctx context.Context) (profcache.CycleStats, error) {
		return measureCycles(ctx, e.Pool, inj, app, cfg, opts, l1Warps, scale)
	}
	if !e.cacheActive() {
		return measure(ctx)
	}
	return e.Cache.Cycles(ctx, profcache.CyclesKey(app, cfg, opts, l1Warps, scale), measure)
}

// viewCell is the one rendered-view cell behind `profile`, `export`,
// `advise` and `debugviews`: take the run of app on cfg under the cell's
// name and policies (runCell) and render it to bytes. With an active
// cache those are a "view" entry keyed on the profiling inputs plus the
// view name — everything render-only (mode, format, weight, schema) must
// be part of that name — so a warm request touches no simulator, and the
// cold views of one run share its one simulation. With KeepGoing a
// failure comes back as the cell's annotation line beside the error.
func (e Env) viewCell(cell string, app *apps.App, cfg gpu.ArchConfig, opts instrument.Options,
	view string, render func(io.Writer, *profiler.Profiler) error) ([]byte, error) {
	fill := func(ctx context.Context) ([]byte, error) {
		p, err := runner.DoCtx(ctx, e.Pool, func(ctx context.Context) (*profiler.Profiler, error) {
			return e.runCell(ctx, cell, app, cfg, opts)
		})
		if err != nil {
			return nil, err
		}
		var b bytes.Buffer
		if err := render(&b, p); err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err // no result: the fill's requester is gone
		}
		return b.Bytes(), nil
	}
	ctx, cancel := e.cellCtx(nil)
	defer cancel()
	var out []byte
	var err error
	if e.cacheActive() {
		out, err = e.Cache.Bytes(ctx, profcache.ViewKey(app, cfg, opts, e.Scale, e.TraceCap, view), fill)
	} else {
		out, err = fill(ctx)
	}
	if err != nil && e.KeepGoing {
		out = []byte(failedCell(&cellError{cell, err}))
	}
	return out, err
}

// cellError is one cell's failure under its cell name. Every per-cell
// error a KeepGoing run hands back is one, so an annotation needs only
// the error, and the aggregate lists the failures by cell.
type cellError struct {
	cell string
	err  error
}

func (e *cellError) Error() string { return e.cell + ": " + e.err.Error() }
func (e *cellError) Unwrap() error { return e.err }

// nameCellErrors wraps each failure in errs under its cell name, in
// place, and returns the aggregate in cell order (deterministic at every
// worker count); nil if none failed.
func nameCellErrors(cells []string, errs []error) error {
	for i, err := range errs {
		if err != nil {
			errs[i] = &cellError{cells[i], err}
		}
	}
	return errors.Join(errs...)
}

// failedCell renders the keep-going annotation line for one per-cell
// error.
func failedCell(err error) string {
	ce := err.(*cellError)
	return fmt.Sprintf("%s [cell failed: %v]\n", ce.cell, ce.err)
}

// runCells runs one gated pool job per named cell. Each job receives a
// context bounded by CellTimeout. Without KeepGoing the semantics are
// exactly runner.MapCtx (first failure wins, no per-cell errors); with
// KeepGoing every cell runs, the per-cell errors come back aligned with
// cells, and the returned error aggregates them.
func runCells[T any](env Env, cells []string, fn func(ctx context.Context, i int) (T, error)) ([]T, []error, error) {
	job := func(ctx context.Context, i int) (T, error) {
		cctx, cancel := env.cellCtx(ctx)
		defer cancel()
		return fn(cctx, i)
	}
	if !env.KeepGoing {
		out, err := runner.MapCtx(env.base(), env.Pool, len(cells), job)
		if err != nil {
			return nil, nil, err
		}
		return out, nil, nil
	}
	out, errs := runner.MapAllCtx(env.base(), env.Pool, len(cells), job)
	return out, errs, nameCellErrors(cells, errs)
}

// cellNames builds the "prefix/<app>" cell names of a figure's apps.
func cellNames(prefix string, names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = prefix + "/" + n
	}
	return out
}

// writeRows renders a table under keep-going: the healthy rows through
// table, then one annotation line per failed cell, in cell order.
func writeRows[T any](w io.Writer, rows []T, errs []error, table func(io.Writer, []T)) {
	var healthy []T
	for i, row := range rows {
		if errs == nil || errs[i] == nil {
			healthy = append(healthy, row)
		}
	}
	table(w, healthy)
	for _, err := range errs {
		if err != nil {
			fmt.Fprint(w, failedCell(err))
		}
	}
}

// writePanels renders n panels concurrently (each fanning its cells out
// on the pool) into per-panel buffers and emits them in order. With
// KeepGoing a failing panel still renders and its error joins the
// result; without it the first failure aborts with nothing written.
func writePanels(w io.Writer, env Env, n int, panel func(w io.Writer, i int) error) error {
	bufs := make([]bytes.Buffer, n)
	errs := make([]error, n)
	err := runner.Concurrent(env.Pool, n, func(i int) error {
		err := panel(&bufs[i], i)
		if env.KeepGoing {
			errs[i], err = err, nil
		}
		return err
	})
	if err != nil {
		return err
	}
	for i := range bufs {
		if _, err := w.Write(bufs[i].Bytes()); err != nil {
			return err
		}
	}
	return errors.Join(errs...)
}
