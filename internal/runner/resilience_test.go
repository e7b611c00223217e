package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestMapRecoversPanics: a panicking job surfaces as a *PanicError with
// the job index and a stack, on both the serial and parallel paths, and
// healthy siblings still run under a live pool.
func TestMapRecoversPanics(t *testing.T) {
	for _, p := range []*Pool{nil, New(4)} {
		ran := make([]bool, 10)
		_, err := Map(p, 10, func(i int) (int, error) {
			ran[i] = true
			if i == 3 {
				panic("injected")
			}
			return i, nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v (%T), want *PanicError", p.Workers(), err, err)
		}
		if pe.Job != 3 || pe.Value != "injected" {
			t.Errorf("PanicError = job %d value %v, want job 3 value injected", pe.Job, pe.Value)
		}
		if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "runner") {
			t.Error("PanicError carries no useful stack")
		}
		if strings.Contains(pe.Error(), "goroutine") {
			t.Error("Error() leaks the stack (nondeterministic across worker counts)")
		}
		if p != nil {
			for i, r := range ran {
				if !r {
					t.Errorf("healthy job %d never ran after a sibling panicked", i)
				}
			}
		}
	}
}

func TestConcurrentAndDoRecoverPanics(t *testing.T) {
	for _, p := range []*Pool{nil, New(2)} {
		err := Concurrent(p, 3, func(i int) error {
			if i == 1 {
				panic(fmt.Sprintf("coordinator %d", i))
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Job != 1 {
			t.Errorf("workers=%d: Concurrent err = %v, want PanicError job 1", p.Workers(), err)
		}
		if _, err := DoCtx(context.Background(), p, func(context.Context) (int, error) { panic("leaf") }); !errors.As(err, &pe) {
			t.Errorf("workers=%d: DoCtx err = %v, want PanicError", p.Workers(), err)
		}
	}
}

// TestMapAllKeepsGoing: every job runs and per-job errors come back in
// index order regardless of worker count.
func TestMapAllKeepsGoing(t *testing.T) {
	for _, p := range []*Pool{nil, New(3)} {
		out, errs := MapAllCtx(context.Background(), p, 8, func(_ context.Context, i int) (int, error) {
			switch i {
			case 2:
				return 0, fmt.Errorf("cell %d failed", i)
			case 5:
				panic("cell 5 panicked")
			}
			return i * 10, nil
		})
		if len(out) != 8 || len(errs) != 8 {
			t.Fatalf("workers=%d: lengths %d/%d", p.Workers(), len(out), len(errs))
		}
		for i := 0; i < 8; i++ {
			switch i {
			case 2:
				if errs[i] == nil || errs[i].Error() != "cell 2 failed" {
					t.Errorf("errs[2] = %v", errs[i])
				}
			case 5:
				var pe *PanicError
				if !errors.As(errs[i], &pe) || pe.Job != 5 {
					t.Errorf("errs[5] = %v, want PanicError job 5", errs[i])
				}
			default:
				if errs[i] != nil || out[i] != i*10 {
					t.Errorf("cell %d: out=%d err=%v", i, out[i], errs[i])
				}
			}
		}
	}
}

// TestMapAllDeterministicErrorText: the per-cell error strings are
// identical between serial and every parallel width — the property the
// keep-going annotation in `cudaadvisor all` depends on.
func TestMapAllDeterministicErrorText(t *testing.T) {
	render := func(p *Pool) string {
		_, errs := MapAllCtx(context.Background(), p, 12, func(_ context.Context, i int) (int, error) {
			if i%3 == 0 {
				panic(fmt.Sprintf("boom %d", i))
			}
			if i%4 == 1 {
				return 0, fmt.Errorf("fail %d", i)
			}
			return i, nil
		})
		var b strings.Builder
		for i, err := range errs {
			fmt.Fprintf(&b, "%d: %v\n", i, err)
		}
		return b.String()
	}
	want := render(nil)
	for _, w := range []int{1, 2, 8} {
		if got := render(New(w)); got != want {
			t.Errorf("workers=%d: error text differs\n got: %s\nwant: %s", w, got, want)
		}
	}
}

func TestMapCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, p := range []*Pool{nil, New(2)} {
		_, err := MapCtx(ctx, p, 4, func(ctx context.Context, i int) (int, error) {
			return i, ctx.Err()
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", p.Workers(), err)
		}
	}
}

func TestDoCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := DoCtx(ctx, New(1), func(ctx context.Context) (int, error) {
		return 1, ctx.Err()
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want DeadlineExceeded", err)
	}
	// A live context passes through untouched.
	v, err := DoCtx(context.Background(), nil, func(context.Context) (int, error) { return 7, nil })
	if v != 7 || err != nil {
		t.Errorf("DoCtx = %d, %v", v, err)
	}
}

func TestMapAllCtxCancelledJobsFail(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, errs := MapAllCtx(ctx, New(2), 5, func(ctx context.Context, i int) (int, error) {
		return i, nil
	})
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("job %d: err = %v, want Canceled", i, err)
		}
	}
}

func TestCollectSingleFailurePreservesValue(t *testing.T) {
	sentinel := errors.New("only failure")
	errLow := errors.New("low")
	p := New(4)
	// Exactly one failure: the returned error must be the bare value, the
	// same one the serial path returns.
	if _, err := Map(p, 6, func(i int) (int, error) {
		if i == 2 {
			return 0, sentinel
		}
		return i, nil
	}); err != sentinel {
		t.Errorf("single-failure Map err = %v, want bare sentinel", err)
	}
	// Several failures: primary is the lowest index.
	_, err := Map(p, 6, func(i int) (int, error) {
		if i == 1 {
			return 0, errLow
		}
		if i == 4 {
			return 0, errors.New("high")
		}
		return i, nil
	})
	var agg *Errors
	if !errors.As(err, &agg) || agg.Unwrap()[0] != errLow {
		t.Errorf("multi-failure Map err = %v, want *Errors with primary %v", err, errLow)
	}
}
