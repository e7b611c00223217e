package bypass

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
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

// curve is a Runner over a fixed cost curve that honours the bound as
// the simulator does: a point whose cycles pass it stops and reports
// bound+1, which may lie below its true cycles.
func curve(cost map[int]int64) Runner {
	return func(k int, bound int64) (int64, error) {
		if bound > 0 && cost[k] > bound {
			return bound + 1, nil
		}
		return cost[k], nil
	}
}

func TestCompareNormalization(t *testing.T) {
	cost := map[int]int64{1: 400, 2: 500, 3: 600, 4: 1000}
	c, err := Compare("app", gpu.KeplerK40c(), cost[4], 4, 2, nil, curve(cost))
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
	c, err := Compare("app", gpu.KeplerK40c(), 200, 2, 2, nil, func(k int, bound int64) (int64, error) {
		calls++
		return int64(100 * k), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// predictWarps == warpsPerCTA reads the baseline the caller measured.
	if c.PredictCycles != c.BaselineCycles || c.BaselineCycles != 200 {
		t.Errorf("prediction = %d, baseline = %d, want 200 both", c.PredictCycles, c.BaselineCycles)
	}
	if calls != 1 { // every other k exactly once; the baseline is given
		t.Errorf("runner calls = %d, want 1", calls)
	}
}

// TestCompareBounds: every point but the baseline runs once, under the
// baseline as its bound, except the prediction, which runs unbounded;
// stopped points are neither the oracle nor the prediction's time.
func TestCompareBounds(t *testing.T) {
	cost := map[int]int64{1: 1500, 2: 900, 3: 2000, 4: 1100, 5: 1000, 6: 3000, 7: 1000, 8: 1000}
	var mu sync.Mutex
	bounds := map[int]int64{}
	run := curve(cost)
	c, err := Compare("app", gpu.KeplerK40c(), cost[8], 8, 6, runner.New(4), func(k int, bound int64) (int64, error) {
		mu.Lock()
		bounds[k] = bound
		mu.Unlock()
		return run(k, bound)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]int64{1: 1000, 2: 1000, 3: 1000, 4: 1000, 5: 1000, 6: 0, 7: 1000}
	if !reflect.DeepEqual(bounds, want) {
		t.Errorf("bounds = %v, want %v", bounds, want)
	}
	if c.OracleWarps != 2 || c.OracleCycles != 900 || c.PredictCycles != 3000 {
		t.Errorf("oracle k%d %d, prediction %d; want k2 900 and 3000", c.OracleWarps, c.OracleCycles, c.PredictCycles)
	}
}

// TestCompareBoundedIsExhaustive: on random cost curves, many points over
// the baseline, many ties among the rest, the bounded search returns
// what the exhaustive one does and what Oracle finds, at every pool size.
func TestCompareBoundedIsExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(16)
		cost := map[int]int64{}
		for k := 1; k <= n; k++ {
			cost[k] = int64(95 + rng.Intn(10))
		}
		predict := 1 + rng.Intn(n)
		unbounded := func(k int, _ int64) (int64, error) { return cost[k], nil }
		exhaustive, err := Compare("app", gpu.PascalP100(), cost[n], n, predict, nil, unbounded)
		if err != nil {
			t.Fatal(err)
		}
		best, _, err := Oracle(n, func(k int) (int64, error) { return cost[k], nil })
		if err != nil {
			t.Fatal(err)
		}
		if exhaustive.OracleWarps != best.L1Warps || exhaustive.OracleCycles != best.Cycles {
			t.Fatalf("curve %v: exhaustive Compare k%d %d, Oracle %+v", cost, exhaustive.OracleWarps, exhaustive.OracleCycles, best)
		}
		for _, pool := range []*runner.Pool{nil, runner.New(3)} {
			if got, err := Compare("app", gpu.PascalP100(), cost[n], n, predict, pool, curve(cost)); err != nil || got != exhaustive {
				t.Fatalf("curve %v, predict %d: bounded %+v, %v; exhaustive %+v", cost, predict, got, err, exhaustive)
			}
		}
	}
}

func TestCompareParallelMatchesSerial(t *testing.T) {
	// Non-monotone curve with a tie (k=2 and k=5) to exercise the
	// lowest-k tie break under both execution orders.
	cost := curve(map[int]int64{1: 800, 2: 500, 3: 700, 4: 600, 5: 500, 6: 900, 7: 950, 8: 1000})
	serial, err := Compare("app", gpu.KeplerK40c(), 1000, 8, 3, nil, cost)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		par, err := Compare("app", gpu.KeplerK40c(), 1000, 8, 3, runner.New(workers), cost)
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
	run := func(int, int64) (int64, error) { return 1, nil }
	if _, err := Compare("a", gpu.KeplerK40c(), 1, 4, 0, nil, run); err == nil {
		t.Error("Compare accepted predictWarps = 0")
	}
	if _, err := Compare("a", gpu.KeplerK40c(), 1, 4, 5, nil, run); err == nil {
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
func Oracle(warpsPerCTA int, run func(l1Warps int) (int64, error)) (best SweepPoint, sweep []SweepPoint, err error) {
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
