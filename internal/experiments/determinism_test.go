package experiments

import (
	"bytes"
	"context"
	"testing"

	"cudaadvisor/internal/apps"
	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/instrument"
	"cudaadvisor/internal/report"
	"cudaadvisor/internal/runner"
)

// TestWriteFigure5ParallelDeterminism asserts the runner's core
// guarantee: the parallel WriteFigure5 output is byte-identical to the
// serial reference path at every worker count.
func TestWriteFigure5ParallelDeterminism(t *testing.T) {
	var serial bytes.Buffer
	if err := WriteFigure5(&serial, Env{Scale: 1}); err != nil {
		t.Fatal(err)
	}
	if serial.Len() == 0 {
		t.Fatal("serial WriteFigure5 produced no output")
	}
	for _, j := range []int{1, 2, 8} {
		var par bytes.Buffer
		if err := WriteFigure5(&par, Env{Pool: runner.New(j), Scale: 1}); err != nil {
			t.Fatalf("-j %d: %v", j, err)
		}
		if !bytes.Equal(serial.Bytes(), par.Bytes()) {
			t.Errorf("-j %d: output differs from serial path (%d vs %d bytes)",
				j, par.Len(), serial.Len())
		}
	}
}

// TestBypassStudyParallelDeterminism asserts byte-identical bypass-study
// rendering between the serial path and the parallel runner across
// worker counts (the app coordinators, their profiling runs and the
// oracle sweeps all fan out).
func TestBypassStudyParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("bypassing sweeps are expensive; skipped in -short")
	}
	cfg := gpu.KeplerK40c().WithL1(16 * 1024)
	render := func(pool *runner.Pool) ([]byte, error) {
		rows, _, err := bypassStudy(Env{Pool: pool, Scale: 1}, "bypass/"+cfg.Name, cfg)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		report.BypassComparison(&buf, rows)
		return buf.Bytes(), nil
	}
	serial, err := render(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) == 0 {
		t.Fatal("the serial bypass study rendered no output")
	}
	for _, j := range []int{1, 2, 8} {
		par, err := render(runner.New(j))
		if err != nil {
			t.Fatalf("-j %d: %v", j, err)
		}
		if !bytes.Equal(serial, par) {
			t.Errorf("-j %d: bypass-study output differs from serial path", j)
		}
	}
}

// TestBFSBypassCTAInput is the regression test for the CTA-scaling bug:
// the bypass study used to extrapolate the timing-run grid as
// nCTAs*BypassRunScale², which assumes every grid grows quadratically
// with the input scale. bfs has a 1D grid (n = 4096*scale), so the
// extrapolation fed bypass.ResidentCTAs a 2× inflated CTA count. The
// model input must equal the CTA count of the actual timing-scale run.
func TestBFSBypassCTAInput(t *testing.T) {
	a := apps.ByName("bfs")
	cfg := gpu.KeplerK40c()

	// The measurement bypassStudy makes: the no-bypass native run at the
	// timing scale.
	st, err := measureCycles(context.Background(), nil, nil, a, cfg, instrument.Options{}, 0, BypassRunScale)
	if err != nil {
		t.Fatal(err)
	}
	measured := st.MaxCTAs

	// Ground truth via an independent path: the profiler's per-kernel
	// launch results at the same timing scale.
	p, err := Profile(a, cfg, instrument.Options{Memory: true}, BypassRunScale)
	if err != nil {
		t.Fatal(err)
	}
	real := 0
	for _, kp := range p.Kernels {
		if kp.Result != nil && kp.Result.CTAs > real {
			real = kp.Result.CTAs
		}
	}
	if measured != real {
		t.Errorf("measured grid = %d CTAs, want the timing-run CTA count %d", measured, real)
	}

	// The old quadratic extrapolation from the base-scale grid must NOT
	// match for this 1D application: it was the bug.
	pBase, err := Profile(a, cfg, instrument.Options{Memory: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	base := 0
	for _, kp := range pBase.Kernels {
		if kp.Result != nil && kp.Result.CTAs > base {
			base = kp.Result.CTAs
		}
	}
	if quad := base * BypassRunScale * BypassRunScale; quad == measured {
		t.Errorf("quadratic extrapolation %d coincides with the measured grid; expected the 1D grid to scale linearly", quad)
	}
	if lin := base * BypassRunScale; lin != measured {
		t.Errorf("bfs grid scaled from %d to %d CTAs at scale %d, want linear %d (1D grid)",
			base, measured, BypassRunScale, lin)
	}
}
