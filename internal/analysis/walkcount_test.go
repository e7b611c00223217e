package analysis_test

import (
	"reflect"
	"testing"

	"cudaadvisor/internal/analysis"
	"cudaadvisor/internal/apps"
	"cudaadvisor/internal/experiments"
	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/instrument"
)

// TestDetachWalksEachModelOnce counts traversals: deriving everything a
// bundle answers (Detach) walks each kernel instance once under the
// element model — histogram and site table together — and once under the
// line model, and no getter walks again afterwards. bfs launches a
// kernel per frontier level, so there are many instances.
func TestDetachWalksEachModelOnce(t *testing.T) {
	cfg := gpu.KeplerK40c()
	p, err := experiments.Profile(apps.ByName("bfs"), cfg, instrument.MemorySharedAndBlocks(), 1)
	if err != nil {
		t.Fatal(err)
	}
	walks := map[analysis.ReuseOptions]int{}
	defer analysis.OnWalk(func(opt analysis.ReuseOptions) { walks[opt]++ })()

	a := p.Analyses(cfg.L1LineSize)
	a.Detach()
	a.ReuseElem()
	a.ReuseElemByKernel()
	a.ReuseLine()
	a.SiteReuse()
	a.ReusedByContext()
	n := len(p.Kernels)
	want := map[analysis.ReuseOptions]int{analysis.DefaultElementReuse(): n, analysis.LineReuse(cfg.L1LineSize): n}
	if n < 8 || !reflect.DeepEqual(walks, want) {
		t.Errorf("%d kernel instances, traversals by model %v; want %v", n, walks, want)
	}
}
