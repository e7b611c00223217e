package bypass

import (
	"fmt"
	"testing"

	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/runner"
)

func TestOptimalWarpsFormula(t *testing.T) {
	// 16KB L1, 128B lines, R.D.=4, M.D.=2, 4 CTAs/SM:
	// 16384 / (4*128*2*4) = 4.
	in := ModelInputs{
		L1Bytes: 16 * 1024, LineSize: 128,
		ReuseDistance: 4, MemDivergence: 2, CTAsPerSM: 4, WarpsPerCTA: 8,
	}
	if got := OptimalWarps(in); got != 4 {
		t.Errorf("OptimalWarps = %d, want 4", got)
	}
}

func TestOptimalWarpsClamping(t *testing.T) {
	in := ModelInputs{
		L1Bytes: 48 * 1024, LineSize: 128,
		ReuseDistance: 0.1, MemDivergence: 1, CTAsPerSM: 1, WarpsPerCTA: 8,
	}
	if got := OptimalWarps(in); got != 8 { // huge quotient clamps to ceiling
		t.Errorf("OptimalWarps = %d, want 8 (ceiling)", got)
	}
	in.ReuseDistance = 900 // quotient ~0.43: one warp nearly fits
	if got := OptimalWarps(in); got != 1 {
		t.Errorf("OptimalWarps = %d, want 1 (floor)", got)
	}
	in.ReuseDistance = 10000 // quotient ~0.004: nothing can be protected
	if got := OptimalWarps(in); got != 8 {
		t.Errorf("OptimalWarps = %d, want 8 (below partial-fit threshold)", got)
	}
}

func TestOptimalWarpsStreamingApp(t *testing.T) {
	// No finite reuse at all: R.D. = 0 -> no bypassing.
	in := ModelInputs{
		L1Bytes: 16 * 1024, LineSize: 128,
		ReuseDistance: 0, MemDivergence: 5, CTAsPerSM: 4, WarpsPerCTA: 8,
	}
	if got := OptimalWarps(in); got != 8 {
		t.Errorf("OptimalWarps = %d, want 8 (streaming: leave L1 on)", got)
	}
}

func TestResidentCTAs(t *testing.T) {
	cfg := gpu.KeplerK40c() // 15 SMs, max 4 CTAs/SM, 64 warps/SM
	if got := ResidentCTAs(cfg, 8, 1000); got != 4 {
		t.Errorf("ResidentCTAs(many) = %d, want 4", got)
	}
	if got := ResidentCTAs(cfg, 8, 15); got != 1 { // one CTA per SM
		t.Errorf("ResidentCTAs(15) = %d, want 1", got)
	}
	if got := ResidentCTAs(cfg, 32, 1000); got != 2 { // warp-limited: 64/32
		t.Errorf("ResidentCTAs(warp-limited) = %d, want 2", got)
	}
}

func TestOracleFindsMinimum(t *testing.T) {
	// Synthetic cost curve with minimum at k=3.
	cost := map[int]int64{1: 900, 2: 700, 3: 500, 4: 650, 5: 800, 6: 950, 7: 990, 8: 1000}
	calls := 0
	best, sweep, err := Oracle(8, func(k int) (int64, error) {
		calls++
		return cost[k], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if best.L1Warps != 3 || best.Cycles != 500 {
		t.Errorf("best = %+v, want k=3/500", best)
	}
	if len(sweep) != 8 || calls != 8 {
		t.Errorf("sweep = %d points, %d calls, want 8", len(sweep), calls)
	}
}

func TestCompareNormalization(t *testing.T) {
	cost := map[int]int64{1: 400, 2: 500, 3: 600, 4: 1000}
	c, err := Compare("app", gpu.KeplerK40c(), 4, 2, nil, func(k int) (int64, error) {
		return cost[k], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.BaselineCycles != 1000 {
		t.Errorf("baseline = %d", c.BaselineCycles)
	}
	if c.OracleWarps != 1 || c.OracleNorm() != 0.4 {
		t.Errorf("oracle = k%d %g", c.OracleWarps, c.OracleNorm())
	}
	if c.PredictWarps != 2 || c.PredictNorm() != 0.5 {
		t.Errorf("prediction = k%d %g", c.PredictWarps, c.PredictNorm())
	}
}

func TestComparePredictEqualsBaseline(t *testing.T) {
	calls := 0
	c, err := Compare("app", gpu.KeplerK40c(), 2, 2, nil, func(k int) (int64, error) {
		calls++
		return int64(100 * k), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// predictWarps == warpsPerCTA reads the baseline sweep point.
	if c.PredictCycles != c.BaselineCycles {
		t.Errorf("prediction = %d, baseline = %d", c.PredictCycles, c.BaselineCycles)
	}
	if calls != 2 { // every k exactly once; baseline and prediction reuse the sweep
		t.Errorf("runner calls = %d, want 2", calls)
	}
}

func TestCompareParallelMatchesSerial(t *testing.T) {
	cost := func(k int) (int64, error) {
		// Non-monotone curve with a tie (k=2 and k=5) to exercise the
		// lowest-k tie break under both execution orders.
		curve := map[int]int64{1: 800, 2: 500, 3: 700, 4: 600, 5: 500, 6: 900, 7: 950, 8: 1000}
		return curve[k], nil
	}
	serial, err := Compare("app", gpu.KeplerK40c(), 8, 3, nil, cost)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		par, err := Compare("app", gpu.KeplerK40c(), 8, 3, runner.New(workers), cost)
		if err != nil {
			t.Fatal(err)
		}
		if par != serial {
			t.Errorf("workers=%d: parallel %+v != serial %+v", workers, par, serial)
		}
	}
	if serial.OracleWarps != 2 {
		t.Errorf("oracle tie broke to k=%d, want lowest k=2", serial.OracleWarps)
	}
}

func TestCompareRejectsBadPredict(t *testing.T) {
	run := func(int) (int64, error) { return 1, nil }
	if _, err := Compare("a", gpu.KeplerK40c(), 4, 0, nil, run); err == nil {
		t.Error("Compare accepted predictWarps = 0")
	}
	if _, err := Compare("a", gpu.KeplerK40c(), 4, 5, nil, run); err == nil {
		t.Error("Compare accepted predictWarps > warpsPerCTA")
	}
}

func TestOracleRejectsBadInput(t *testing.T) {
	if _, _, err := Oracle(0, func(int) (int64, error) { return 0, nil }); err == nil {
		t.Error("Oracle accepted warpsPerCTA = 0")
	}
}

// Oracle exhaustively searches k in [1, warpsPerCTA] (the search of the
// horizontal bypassing paper the case study compares against) and returns
// the best point plus the whole sweep.
func Oracle(warpsPerCTA int, run Runner) (best SweepPoint, sweep []SweepPoint, err error) {
	if warpsPerCTA < 1 {
		return SweepPoint{}, nil, fmt.Errorf("bypass: warpsPerCTA = %d", warpsPerCTA)
	}
	for k := 1; k <= warpsPerCTA; k++ {
		cycles, err := run(k)
		if err != nil {
			return SweepPoint{}, nil, fmt.Errorf("bypass: oracle run k=%d: %w", k, err)
		}
		pt := SweepPoint{L1Warps: k, Cycles: cycles}
		sweep = append(sweep, pt)
		if best.Cycles == 0 || cycles < best.Cycles {
			best = pt
		}
	}
	return best, sweep, nil
}
