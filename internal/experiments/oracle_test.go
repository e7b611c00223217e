package experiments

import (
	"context"
	"sync"
	"testing"

	"cudaadvisor/internal/apps"
	"cudaadvisor/internal/bypass"
	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/instrument"
	"cudaadvisor/internal/runner"
)

// TestBoundedOracleIsExhaustive runs the oracle sweep of Figures 6 and 7
// both ways on the Kepler 16 KB and Pascal panels: every point to
// completion, and bounded by the baseline as bypassStudy runs it. The
// comparisons must be equal field for field, every point that reports
// more cycles than its bound must take at least that many when run to
// completion, and every other point its exact cycles. syrk has points on
// both sides of its baseline, bfs launches many times, and hotspot on
// Pascal has no point over its baseline.
func TestBoundedOracleIsExhaustive(t *testing.T) {
	ctx, pool := context.Background(), runner.New(2)
	for _, cfg := range []gpu.ArchConfig{gpu.KeplerK40c().WithL1(16 * 1024), gpu.PascalP100()} {
		for _, name := range []string{"syrk", "bfs", "hotspot"} {
			a := apps.ByName(name)
			measure := func(k int, bound int64) (int64, error) {
				st, err := measureCycles(ctx, pool, nil, a, cfg, instrument.Options{}, k, BypassRunScale, bound)
				return st.Cycles, err
			}
			full := map[int]int64{}
			for k := 1; k <= a.WarpsPerCTA; k++ {
				cycles, err := measure(k%a.WarpsPerCTA, 0) // k = WarpsPerCTA: no bypassing
				if err != nil {
					t.Fatal(err)
				}
				full[k] = cycles
			}
			baseline, predict := full[a.WarpsPerCTA], 2
			exhaustive, err := bypass.Compare(a.Name, cfg, baseline, a.WarpsPerCTA, predict, nil,
				func(k int, _ int64) (int64, error) { return full[k], nil })
			if err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			over := 0
			bounded, err := bypass.Compare(a.Name, cfg, baseline, a.WarpsPerCTA, predict, pool,
				func(k int, bound int64) (int64, error) {
					cycles, err := measure(k, bound)
					mu.Lock()
					defer mu.Unlock()
					switch {
					case err != nil:
					case bound > 0 && cycles > bound:
						over++
						if full[k] < cycles {
							t.Errorf("%s %s k=%d: %d cycles over its bound %d, yet it takes %d", cfg.Name, name, k, cycles, bound, full[k])
						}
					case cycles != full[k]:
						t.Errorf("%s %s k=%d: %d cycles under bound %d, %d unbounded", cfg.Name, name, k, cycles, bound, full[k])
					}
					return cycles, err
				})
			if err != nil {
				t.Fatal(err)
			}
			if bounded != exhaustive {
				t.Errorf("%s %s: bounded %+v, exhaustive %+v", cfg.Name, name, bounded, exhaustive)
			}
			if name == "syrk" && (over == 0 || exhaustive.OracleCycles == baseline) {
				t.Errorf("%s syrk: %d points over the baseline, oracle %+v; want points on both sides", cfg.Name, over, exhaustive)
			}
			t.Logf("%s %s: %d of %d bounded points over the baseline %d", cfg.Name, name, over, a.WarpsPerCTA-2, baseline)
		}
	}
}
