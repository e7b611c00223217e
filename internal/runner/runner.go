// Package runner is the parallel experiment runner: a bounded worker
// pool that fans out independent simulator runs and reassembles their
// results in deterministic order.
//
// Every evaluation cell (app × architecture × analysis) and every oracle
// sweep point is an independent, bit-for-bit deterministic simulation
// (DESIGN.md "Scheduling determinism"): each run owns a fresh gpu.Device
// and listener, so nothing is shared between jobs. The runner exploits
// that independence for wall-clock speedup while guaranteeing that the
// assembled output is byte-identical to the serial path:
//
//   - results are collected by job index, never by completion order;
//   - on failure the error of the lowest-index failing job is the
//     primary (the same error the serial path would surface first);
//     when several jobs fail, the primary is wrapped together with the
//     rest so multi-job failures stay diagnosable (see Errors);
//   - a nil *Pool degrades every entry point to inline serial execution,
//     which is the reference the parallel paths are tested against.
//
// The runner also isolates failures: a job that panics does not take
// down the process — the panic is recovered into a *PanicError carrying
// the job index and stack, and surfaces through the same error path as
// any other job failure. This is the Score-P rule that instrumentation
// and analysis must never crash the host application.
//
// Two layers of fan-out compose without deadlock:
//
//   - Map and DoCtx gate leaf work (whole simulator runs) on the pool's
//     semaphore, bounding CPU-heavy concurrency to the worker count;
//   - Concurrent fans out coordinator tasks (a figure, an app's
//     three-way bypass comparison) on plain goroutines that hold no
//     worker slot while they wait, so coordinators may freely submit
//     leaf work to the same pool.
//
// Leaf functions must not call Map or DoCtx themselves: a leaf holds a
// worker slot for its whole duration, and nesting gated work inside
// gated work can exhaust the pool and deadlock at small -j. Route nested
// fan-out through Concurrent instead — or, for divisible work inside a
// leaf (the GPU executor's per-SM shards), through Shards, which only
// recruits idle workers with a non-blocking acquire and so can never
// deadlock the pool.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// Pool is a bounded worker pool. The zero value is not usable; call New.
// A nil *Pool is valid everywhere and means "run serially, inline" — the
// reference path for the byte-identical guarantee.
type Pool struct {
	sem chan struct{}

	// timing serializes Exclusive regions (wall-clock measurements)
	// against each other so concurrent jobs do not distort them.
	timing sync.Mutex
}

// New returns a pool of the given number of workers. workers <= 0 selects
// runtime.GOMAXPROCS(0), the -j default. The count is clamped to
// GOMAXPROCS: every job is a CPU-bound simulator run that never blocks,
// so workers beyond the available parallelism cannot overlap any more
// work and only add GC and cache pressure (measured 1.7–7x slowdowns
// when oversubscribing a single-core machine).
func New(workers int) *Pool {
	if max := runtime.GOMAXPROCS(0); workers <= 0 || workers > max {
		workers = max
	}
	return &Pool{sem: make(chan struct{}, workers)}
}

// Workers reports the concurrency bound: the worker count, or 1 for the
// nil (serial) pool.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return cap(p.sem)
}

// acquire takes a worker slot, abandoning the wait if ctx ends first.
// When both are ready the cancellation wins, so a cancelled context
// deterministically fails every not-yet-started job.
func (p *Pool) acquire(ctx context.Context) error {
	select {
	case p.sem <- struct{}{}:
		if err := ctx.Err(); err != nil {
			p.release()
			return err
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (p *Pool) release() { <-p.sem }

// PanicError is a panic recovered from a pool job, converted into an
// ordinary error so one panicking cell cannot take down the whole run.
// Job is the index of the job that panicked; Stack is its goroutine
// stack at the point of the panic (kept out of Error() so error text
// stays deterministic across worker counts).
type PanicError struct {
	Job   int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("job %d panicked: %v", e.Job, e.Value)
}

// Errors aggregates the failures of a multi-job run. The primary —
// the lowest-index failing job's error, the one the serial path would
// surface first — determines Error(); Unwrap exposes every failure to
// errors.Is/As and errors.Join-style inspection.
type Errors struct {
	jobs []int
	errs []error
}

// Error reports the primary failure plus a deterministic count of the
// others.
func (e *Errors) Error() string {
	if n := len(e.errs) - 1; n != 1 {
		return fmt.Sprintf("%v (and %d more failed jobs)", e.errs[0], n)
	}
	return fmt.Sprintf("%v (and 1 more failed job)", e.errs[0])
}

// Unwrap exposes every job error, the same multi-error shape errors.Join
// produces, so errors.Is/As walk all of them.
func (e *Errors) Unwrap() []error { return e.errs }

// Join returns the failures as a plain errors.Join value (every error's
// message on its own line), for callers that want the stdlib rendering
// rather than the primary-first summary.
func (e *Errors) Join() error { return errors.Join(e.errs...) }

// Primary returns the lowest-index failing job's error.
func (e *Errors) Primary() error { return e.errs[0] }

// All returns every job error, ascending by job index.
func (e *Errors) All() []error { return e.errs }

// Jobs returns the failing job indices, ascending.
func (e *Errors) Jobs() []int { return e.jobs }

// collect reduces a per-job error slice: nil if none failed, the error
// itself if exactly one did (preserving the serial path's error value),
// and an *Errors aggregate when several did — primary first, ascending
// by index, so the result is deterministic for any completion order.
func collect(errs []error) error {
	var agg Errors
	for i, err := range errs {
		if err != nil {
			agg.jobs = append(agg.jobs, i)
			agg.errs = append(agg.errs, err)
		}
	}
	switch len(agg.errs) {
	case 0:
		return nil
	case 1:
		return agg.errs[0]
	}
	return &agg
}

// protect runs fn, converting a panic into a *PanicError for job index
// job. Used on every job path — serial and parallel — so panic behavior
// does not depend on the worker count.
func protect[T any](job int, fn func() (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Job: job, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// Map runs fn(0) … fn(n-1) as gated leaf jobs and returns the results in
// index order. With a nil pool the jobs run inline, serially, stopping at
// the first error; with a live pool every job runs and the lowest-index
// error is the primary — the same error value either way when a single
// job fails, an *Errors aggregate when several do. fn must be safe for
// concurrent use when the pool is non-nil. A panicking job becomes a
// *PanicError, not a process crash.
func Map[T any](p *Pool, n int, fn func(i int) (T, error)) ([]T, error) {
	return MapCtx(context.Background(), p, n, func(_ context.Context, i int) (T, error) {
		return fn(i)
	})
}

// MapCtx is Map with cancellation: jobs observe ctx through their
// argument, and jobs that have not started when ctx ends fail with
// ctx.Err() instead of running.
func MapCtx[T any](ctx context.Context, p *Pool, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if p == nil {
		out := make([]T, n)
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			v, err := protect(i, func() (T, error) { return fn(ctx, i) })
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	out, errs := mapAllPooled(ctx, p, n, fn)
	if err := collect(errs); err != nil {
		return nil, err
	}
	return out, nil
}

// MapAllCtx is the keep-going MapCtx: every job runs regardless of other
// jobs' failures — serially for a nil pool, gated on the pool otherwise —
// and the per-job results and errors come back side by side for graceful
// degradation (annotate the injured cells, keep the healthy ones). Jobs
// not started when ctx ends fail with ctx.Err().
func MapAllCtx[T any](ctx context.Context, p *Pool, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, []error) {
	if p == nil {
		out := make([]T, n)
		errs := make([]error, n)
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				errs[i] = err
				continue
			}
			out[i], errs[i] = protect(i, func() (T, error) { return fn(ctx, i) })
		}
		return out, errs
	}
	return mapAllPooled(ctx, p, n, fn)
}

// mapAllPooled fans all n jobs out on the pool and waits for every one.
func mapAllPooled[T any](ctx context.Context, p *Pool, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, []error) {
	out := make([]T, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := p.acquire(ctx); err != nil {
				errs[i] = err
				return
			}
			defer p.release()
			out[i], errs[i] = protect(i, func() (T, error) { return fn(ctx, i) })
		}(i)
	}
	wg.Wait()
	return out, errs
}

// DoCtx runs one gated leaf job on the pool (inline for a nil pool). Use
// it from Concurrent coordinators for leaf work that is not a natural
// Map. The slot wait aborts when ctx ends, and fn receives ctx.
func DoCtx[T any](ctx context.Context, p *Pool, fn func(ctx context.Context) (T, error)) (T, error) {
	if p == nil {
		if err := ctx.Err(); err != nil {
			var zero T
			return zero, err
		}
		return protect(0, func() (T, error) { return fn(ctx) })
	}
	if err := p.acquire(ctx); err != nil {
		var zero T
		return zero, err
	}
	defer p.release()
	return protect(0, func() (T, error) { return fn(ctx) })
}

// Concurrent runs fn(0) … fn(n-1) as coordinator tasks: plain goroutines
// that hold no worker slot, so each may submit gated leaf work (Map, DoCtx)
// to the same pool without risking slot-exhaustion deadlock. Results must
// be written by index into storage owned by the caller; Concurrent joins
// the tasks and reduces their errors like Map (lowest-index primary,
// *Errors aggregate when several fail, panics recovered). A nil pool runs
// the tasks inline, serially, stopping at the first error.
func Concurrent(p *Pool, n int, fn func(i int) error) error {
	if p == nil {
		for i := 0; i < n; i++ {
			if _, err := protect(i, func() (struct{}, error) { return struct{}{}, fn(i) }); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = protect(i, func() (struct{}, error) { return struct{}{}, fn(i) })
		}(i)
	}
	wg.Wait()
	return collect(errs)
}

// Exclusive runs fn while holding the pool's timing lock, serializing it
// against every other Exclusive region on the same pool. Wall-clock
// measurements (the Figure 10 overhead study) run here so that parallel
// siblings do not inflate each other's measured time. It does not pause
// unrelated pool work — callers that need a quiet machine should run the
// measuring experiment on its own. A nil pool runs fn directly.
func Exclusive[T any](p *Pool, fn func() (T, error)) (T, error) {
	if p == nil {
		return fn()
	}
	p.timing.Lock()
	defer p.timing.Unlock()
	return fn()
}
