package runner

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		p := New(workers)
		out, err := Map(p, 50, func(i int) (int, error) {
			if i%7 == 0 {
				time.Sleep(time.Millisecond) // perturb completion order
			}
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapNilPoolRunsSerially(t *testing.T) {
	var order []int // appended without locking: must be strictly sequential
	out, err := Map(nil, 10, func(i int) (int, error) {
		order = append(order, i)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 10 || len(order) != 10 {
		t.Fatalf("lengths = %d/%d, want 10/10", len(out), len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial execution order[%d] = %d, want %d", i, v, i)
		}
	}
}

func TestMapReturnsLowestIndexError(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	fail := func(i int) (int, error) {
		switch i {
		case 3:
			return 0, errLow
		case 7:
			return 0, errHigh
		}
		return i, nil
	}
	// The parallel pool and the serial reference must surface the same
	// error: the one the serial path hits first.
	for _, p := range []*Pool{nil, New(4)} {
		if _, err := Map(p, 10, fail); !errors.Is(err, errLow) {
			t.Errorf("workers=%d: err = %v, want %v", p.Workers(), err, errLow)
		}
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 2
	p := New(workers)
	var cur, peak atomic.Int32
	_, err := Map(p, 32, func(i int) (int, error) {
		n := cur.Add(1)
		for {
			old := peak.Load()
			if n <= old || peak.CompareAndSwap(old, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		cur.Add(-1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > workers {
		t.Errorf("peak concurrency = %d, want <= %d", got, workers)
	}
}

func TestConcurrentJoinsAndOrdersErrors(t *testing.T) {
	errTask4 := errors.New("task 4 failed")
	errTask15 := errors.New("task 15 failed")
	for _, p := range []*Pool{nil, New(3)} {
		out := make([]int, 20)
		err := Concurrent(p, 20, func(i int) error {
			out[i] = i + 1
			switch i {
			case 4:
				return errTask4
			case 15:
				return errTask15
			}
			return nil
		})
		// The primary is the lowest-index failure, serial and parallel.
		if !errors.Is(err, errTask4) {
			t.Errorf("workers=%d: err = %v, want primary %v", p.Workers(), err, errTask4)
		}
		if p == nil {
			// The serial path stops at the first failure: bare error.
			if err != errTask4 {
				t.Errorf("serial err = %v, want the bare first error", err)
			}
			continue
		}
		// With a live pool every task ran despite the failures, and the
		// aggregate exposes both errors.
		for i, v := range out {
			if v != i+1 {
				t.Errorf("out[%d] = %d, want %d", i, v, i+1)
			}
		}
		if !errors.Is(err, errTask15) {
			t.Errorf("aggregate lost the second failure: %v", err)
		}
		var agg *Errors
		if !errors.As(err, &agg) {
			t.Fatalf("err = %T, want *Errors", err)
		}
		if all := agg.Unwrap(); len(all) != 2 || all[0] != errTask4 || all[1] != errTask15 {
			t.Errorf("Unwrap() = %v, want [%v %v] (ascending by job)", all, errTask4, errTask15)
		}
		if want := errTask4.Error() + " (and 1 more failed job)"; err.Error() != want {
			t.Errorf("Error() = %q, want %q", err.Error(), want)
		}
	}
}

func TestConcurrentCoordinatorsShareSmallPool(t *testing.T) {
	// Coordinators hold no worker slot, so nested leaf fan-out through a
	// 1-worker pool must complete rather than deadlock.
	p := New(1)
	results := make([][]int, 4)
	err := Concurrent(p, 4, func(i int) error {
		leaf, err := Map(p, 3, func(j int) (int, error) { return i*10 + j, nil })
		results[i] = leaf
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, leaf := range results {
		for j, v := range leaf {
			if v != i*10+j {
				t.Fatalf("results[%d][%d] = %d, want %d", i, j, v, i*10+j)
			}
		}
	}
}

func TestDoGatesWork(t *testing.T) {
	p := New(2)
	v, err := DoCtx(context.Background(), p, func(context.Context) (string, error) { return "ok", nil })
	if err != nil || v != "ok" {
		t.Fatalf("DoCtx = %q, %v", v, err)
	}
	if _, err := DoCtx(context.Background(), nil, func(context.Context) (int, error) { return 0, errors.New("boom") }); err == nil {
		t.Fatal("DoCtx(nil) swallowed the error")
	}
}

func TestWorkersDefaults(t *testing.T) {
	maxProcs := runtime.GOMAXPROCS(0)
	if got := New(0).Workers(); got != maxProcs {
		t.Errorf("New(0).Workers() = %d, want GOMAXPROCS = %d", got, maxProcs)
	}
	want := 5
	if maxProcs < want {
		want = maxProcs // CPU-bound jobs: the pool clamps to GOMAXPROCS
	}
	if got := New(5).Workers(); got != want {
		t.Errorf("New(5).Workers() = %d, want %d", got, want)
	}
	if got := New(1).Workers(); got != 1 {
		t.Errorf("New(1).Workers() = %d, want 1", got)
	}
	var p *Pool
	if got := p.Workers(); got != 1 {
		t.Errorf("(nil).Workers() = %d, want 1", got)
	}
}

// TestPoolRaceStress exercises every entry point concurrently under the
// race detector (the CI workflow runs go test -race): many coordinators
// mixing Map, Do and DoCtx over one shared pool and one shared sink.
func TestPoolRaceStress(t *testing.T) {
	p := New(4)
	var sum atomic.Int64
	var mu sync.Mutex
	shared := map[int]int{}

	err := Concurrent(p, 16, func(i int) error {
		out, err := Map(p, 8, func(j int) (int, error) { return i + j, nil })
		if err != nil {
			return err
		}
		for _, v := range out {
			sum.Add(int64(v))
		}
		if _, err := DoCtx(context.Background(), p, func(context.Context) (int, error) { sum.Add(1); return 0, nil }); err != nil {
			return err
		}
		mu.Lock()
		shared[i] = i
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(shared) != 16 {
		t.Errorf("shared entries = %d, want 16", len(shared))
	}
	if sum.Load() == 0 {
		t.Error("no work observed")
	}
}
