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
	"context"
	"errors"
	"fmt"
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
	// reports) cache their output bytes as "view" entries. It is consulted
	// only when the run is unperturbed: fault injection and per-cell
	// timeouts bypass it entirely (see cacheActive), as do cells that need
	// wall-clock time (Figure 10).
	Cache *profcache.Cache
}

// DefaultEnv is the environment the plain pool+scale entry points use.
func DefaultEnv(pool *runner.Pool, scale int) Env { return Env{Pool: pool, Scale: scale} }

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
// wrapping) and the cell context plumbed down to the GPU executor.
func (e Env) profileCell(ctx context.Context, cell string, app *apps.App, cfg gpu.ArchConfig, opts instrument.Options) (*profiler.Profiler, error) {
	return e.profileCellWith(ctx, cell, app, cfg, opts, false)
}

// profileCellWith is profileCell with the scheduling recorder switch
// exposed: the timeline export needs per-SM schedules, every other cell
// leaves recording off (it is observational, but the off default keeps
// profile memory flat and existing cache entries equivalent).
func (e Env) profileCellWith(ctx context.Context, cell string, app *apps.App, cfg gpu.ArchConfig, opts instrument.Options, recordSchedule bool) (*profiler.Profiler, error) {
	inj := e.Inject.Cell(cell)
	inj.MaybePanic()
	prog, err := app.Instrumented(opts)
	if err != nil {
		return nil, fmt.Errorf("%s: instrument: %w", app.Name, err)
	}
	p := profiler.New()
	p.TraceCap = inj.TraceCap(e.TraceCap)
	// Hand the cell the run's pool too: launches split their SM shards
	// across whatever workers the experiment fan-out leaves idle (the
	// shard fan-out is non-blocking, so cell- and launch-level
	// parallelism share one -j bound without deadlock).
	c := newContext(cfg, inj.Listener(p), rt.LaunchOptions{Ctx: ctx, RecordSchedule: recordSchedule, Pool: e.Pool})
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

// resultsCell returns the analysis bundle of one profiling cell, through
// the cache when active (single-flight per key: concurrent duplicate
// cells share one fill) and by running profileCell directly otherwise.
// Cached bundles are shared across cells and must be treated as
// immutable; uncached ones derive lazily, paying only for the analyses
// the caller reads.
func (e Env) resultsCell(ctx context.Context, cell string, app *apps.App, cfg gpu.ArchConfig, opts instrument.Options) (*profcache.Results, error) {
	if !e.cacheActive() {
		p, err := e.profileCell(ctx, cell, app, cfg, opts)
		if err != nil {
			return nil, err
		}
		return profcache.NewResults(p, cfg.L1LineSize), nil
	}
	key := profcache.ProfileKey(app, cfg, opts, e.Scale, e.TraceCap)
	return e.Cache.Profile(ctx, key, cfg.L1LineSize, func(ctx context.Context) (*profiler.Profiler, error) {
		return e.profileCell(ctx, cell, app, cfg, opts)
	})
}

// nativeStats runs one native cycle-model measurement through the cache
// when active. One native run yields both the modeled cycles and the
// largest launched grid, so the bypass study's CTA measurement and its
// baseline sweep point (both l1Warps = 0 at the timing scale) share a
// single entry.
func (e Env) nativeStats(ctx context.Context, app *apps.App, cfg gpu.ArchConfig, l1Warps, scale int) (profcache.CycleStats, error) {
	if !e.cacheActive() {
		return measureNative(ctx, e.Pool, app, cfg, l1Warps, scale)
	}
	key := profcache.CyclesKey(app, cfg, l1Warps, scale)
	return e.Cache.Cycles(ctx, key, func(ctx context.Context) (profcache.CycleStats, error) {
		return measureNative(ctx, e.Pool, app, cfg, l1Warps, scale)
	})
}

// runCells runs one gated pool job per named cell. Each job receives a
// context bounded by CellTimeout. Without KeepGoing the semantics are
// exactly runner.MapCtx (first failure wins, no per-cell errors); with
// KeepGoing every cell runs, the per-cell errors come back aligned with
// cells, and the returned error aggregates them under their cell names.
func runCells[T any](env Env, cells []string, fn func(ctx context.Context, i int) (T, error)) ([]T, []error, error) {
	job := func(ctx context.Context, i int) (T, error) {
		cctx, cancel := env.cellCtx(ctx)
		defer cancel()
		return fn(cctx, i)
	}
	if !env.KeepGoing {
		out, err := runner.MapCtx(env.base(), env.Pool, len(cells), job)
		return out, nil, err
	}
	out, errs := runner.MapAllCtx(env.base(), env.Pool, len(cells), job)
	return out, errs, joinCellErrors(cells, errs)
}

// joinCellErrors aggregates per-cell failures under their cell names, in
// cell order (deterministic at every worker count). nil if none failed.
func joinCellErrors(cells []string, errs []error) error {
	var agg []error
	for i, err := range errs {
		if err != nil {
			agg = append(agg, fmt.Errorf("%s: %w", cells[i], err))
		}
	}
	return errors.Join(agg...)
}

// cellNames builds "prefix/name" cell names.
func cellNames(prefix string, names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = prefix + "/" + n
	}
	return out
}

// failedCell renders the keep-going annotation line for one cell.
func failedCell(cell string, err error) string {
	return fmt.Sprintf("%s [cell failed: %v]\n", cell, err)
}
