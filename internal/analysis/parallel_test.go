package analysis_test

import (
	"reflect"
	"runtime"
	"testing"

	"cudaadvisor/internal/analysis"
	"cudaadvisor/internal/apps"
	"cudaadvisor/internal/experiments"
	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/instrument"
	"cudaadvisor/internal/profiler"
	"cudaadvisor/internal/runner"
)

// getters reads every exported getter of a bundle, by name.
func getters(a *profiler.Analyses) map[string]any {
	mem, blocks := a.Coverage()
	return map[string]any{
		"Coverage": [2]analysis.Events{mem, blocks}, "ReuseElem": a.ReuseElem(),
		"ReuseElemByKernel": a.ReuseElemByKernel(), "ReuseLine": a.ReuseLine(),
		"MemDiv": a.MemDiv(), "BranchDiv": a.BranchDiv(), "SharedBank": a.SharedBank(),
		"SiteReuse": a.SiteReuse(), "ReusedByContext": a.ReusedByContext(), "SharedRaces": a.SharedRaces(),
	}
}

// TestParallelDeriveMatchesSerial: on all ten apps and both
// architectures, with every instance split into as many ranges as a
// share may take, a live bundle deriving on a pool of two or eight
// workers answers every getter exactly as the serial bundle of the same
// kernel instances does — per-context tables and sample addresses
// included (DeepEqual sees the unexported fields) — and walks each model
// once per instance all the same. (The test lives beside the split
// threshold it lowers; it drives internal/profiler's bundle.)
func TestParallelDeriveMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	defer analysis.SplitAt(1, 1)()
	for _, cfg := range []gpu.ArchConfig{gpu.KeplerK40c(), gpu.PascalP100()} {
		for _, name := range apps.TableOrder {
			p, err := experiments.Profile(apps.ByName(name), cfg, instrument.MemorySharedAndBlocks(), 1)
			if err != nil {
				t.Fatal(err)
			}
			var want map[string]any
			var wantWalks map[analysis.ReuseOptions]int
			for _, pool := range []*runner.Pool{nil, runner.New(2), runner.New(8)} {
				walks := map[analysis.ReuseOptions]int{}
				restore := analysis.OnWalk(func(opt analysis.ReuseOptions) { walks[opt]++ })
				run := &profiler.Profiler{Kernels: p.Kernels, Pool: pool} // the same instances, a bundle of its own
				got := getters(run.Analyses(cfg.L1LineSize))
				restore()
				if pool == nil {
					want, wantWalks = got, walks
					continue
				}
				for getter, v := range got {
					if !reflect.DeepEqual(v, want[getter]) {
						t.Errorf("%s on %s, %d workers: %s differs from the serial bundle\n got %+v\nwant %+v",
							name, cfg.Name, pool.Workers(), getter, v, want[getter])
					}
				}
				if !reflect.DeepEqual(walks, wantWalks) {
					t.Errorf("%s on %s, %d workers: traversals by model %v, serially %v", name, cfg.Name, pool.Workers(), walks, wantWalks)
				}
			}
		}
	}
}
