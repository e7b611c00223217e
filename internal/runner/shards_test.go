package runner

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// withProcs lifts GOMAXPROCS so New(workers) is not clamped below the
// requested count on small CI machines — the concurrency these tests
// exist to exercise.
func withProcs(t *testing.T, workers int) {
	t.Helper()
	if runtime.GOMAXPROCS(0) < workers {
		old := runtime.GOMAXPROCS(workers)
		t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	}
}

func TestShardsRunsEveryIndex(t *testing.T) {
	withProcs(t, 4)
	for _, workers := range []int{1, 4} {
		p := New(workers)
		const n = 100
		var hits [n]atomic.Int32
		Shards(p, n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: shard %d ran %d times, want 1", workers, i, got)
			}
		}
	}
}

func TestShardsNilPoolInlineInOrder(t *testing.T) {
	var order []int
	Shards(nil, 5, func(i int) { order = append(order, i) })
	for i, got := range order {
		if got != i {
			t.Fatalf("nil pool order = %v, want ascending", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("ran %d shards, want 5", len(order))
	}
}

func TestShardsZeroIsNoOp(t *testing.T) {
	withProcs(t, 4)
	Shards(New(4), 0, func(i int) { t.Error("shard ran for n=0") })
}

// Shards from inside a gated leaf job must not deadlock even when the
// pool has a single worker and that worker is the caller itself: the
// non-blocking acquire finds no free slot and the caller runs the shards
// inline. This is the property that lets the GPU executor call Shards
// from within the experiment runner's Map jobs.
func TestShardsInsideLeafJobDoesNotDeadlock(t *testing.T) {
	p := New(1)
	_, err := Map(p, 3, func(i int) (int, error) {
		var sum atomic.Int64
		Shards(p, 8, func(j int) { sum.Add(int64(j)) })
		if got := sum.Load(); got != 28 {
			t.Errorf("job %d: shard sum = %d, want 28", i, got)
		}
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A panicking shard must not lose the other shards, and the panic with
// the lowest shard index is re-raised on the caller regardless of which
// goroutine hit it.
func TestShardsPanicLowestIndexWins(t *testing.T) {
	withProcs(t, 4)
	p := New(4)
	var ran atomic.Int32
	defer func() {
		r := recover()
		if r != "boom-1" {
			t.Errorf("recovered %v, want boom-1 (lowest panicking index)", r)
		}
		if got := ran.Load(); got != 6 {
			t.Errorf("%d healthy shards ran, want 6", got)
		}
	}()
	Shards(p, 8, func(i int) {
		if i == 1 || i == 5 {
			panic("boom-" + string(rune('0'+i)))
		}
		ran.Add(1)
	})
	t.Error("Shards did not re-panic")
}

// Idle says whether a slot is free now: false for the nil pool and for a
// pool whose every slot is taken, true again once one is released.
func TestShardsIdleHint(t *testing.T) {
	withProcs(t, 2)
	var nilPool *Pool
	if nilPool.Idle() {
		t.Error("the nil pool reports an idle worker")
	}
	p := New(2)
	if !p.Idle() {
		t.Error("a fresh pool reports no idle worker")
	}
	p.tryAcquire()
	p.tryAcquire()
	if p.Idle() {
		t.Error("a pool with both slots taken reports an idle worker")
	}
	p.release()
	if !p.Idle() {
		t.Error("a pool with a released slot reports no idle worker")
	}
}

// A helper hands its slot back between shards: a job that starts waiting
// for a worker while a fan-out holds every slot runs long before the
// fan-out's queue drains.
func TestShardsYieldSlotToWaitingJob(t *testing.T) {
	withProcs(t, 2)
	p := New(2)
	const n = 200
	var done atomic.Int64
	var doneWhenJobRan int64
	_, err := Map(p, 1, func(int) (int, error) {
		waiter := make(chan error)
		Shards(p, n, func(i int) {
			if i == 0 {
				go func() {
					_, err := DoCtx(context.Background(), p, func(context.Context) (int, error) {
						doneWhenJobRan = done.Load()
						return 0, nil
					})
					waiter <- err
				}()
			}
			time.Sleep(time.Millisecond)
			done.Add(1)
		})
		return 0, <-waiter
	})
	if err != nil {
		t.Fatal(err)
	}
	if doneWhenJobRan > n/2 {
		t.Errorf("the waiting job ran after %d of %d shards, want well before the queue drained", doneWhenJobRan, n)
	}
}
