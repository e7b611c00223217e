package profiler_test

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"cudaadvisor/internal/analysis"
	"cudaadvisor/internal/apps"
	"cudaadvisor/internal/experiments"
	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/instrument"
	"cudaadvisor/internal/ir"
	"cudaadvisor/internal/profiler"
)

// explicit is the reference the bundle is checked against: every
// aggregate as a plain loop over the kernel instances, in launch order.
type explicit struct {
	reuseElem, reuseLine analysis.ReuseResult
	memDiv               analysis.MemDivResult
	branchDiv            analysis.BranchDivResult
	sharedBank           analysis.SharedBankResult
	siteReuse            map[ir.Loc]*analysis.SiteReuse
	sharedRaces          map[ir.Loc]int64
	reuseByKernel        map[string]*analysis.ReuseResult
	reusedByContext      map[analysis.ContextSite]int64
	coverage             [2]analysis.Events
}

func mergeExplicitly(p *profiler.Profiler, lineSize int) *explicit {
	e := &explicit{
		memDiv:      analysis.MemDivResult{LineSize: lineSize},
		siteReuse:   map[ir.Loc]*analysis.SiteReuse{},
		sharedRaces: map[ir.Loc]int64{},

		reuseByKernel:   map[string]*analysis.ReuseResult{},
		reusedByContext: map[analysis.ContextSite]int64{},
	}
	for _, kp := range p.Kernels {
		if e.reuseByKernel[kp.Info.Kernel] == nil {
			e.reuseByKernel[kp.Info.Kernel] = &analysis.ReuseResult{}
		}
		e.reuseByKernel[kp.Info.Kernel].Merge(analysis.ReuseDistance(kp.Trace, analysis.DefaultElementReuse()))
		for loc, s := range analysis.ReuseBySite(kp.Trace, analysis.DefaultElementReuse(), nil) {
			if s.Reused > 0 {
				e.reusedByContext[analysis.ContextSite{Ctx: s.Ctx, Loc: loc}] += s.Reused
			}
		}
		e.coverage[0].Add(int64(len(kp.Trace.Mem)), kp.Trace.MemSeen)
		e.coverage[1].Add(int64(len(kp.Trace.Blocks)), kp.Trace.BlocksSeen)
		e.reuseElem.Merge(analysis.ReuseDistance(kp.Trace, analysis.DefaultElementReuse()))
		e.reuseLine.Merge(analysis.ReuseDistance(kp.Trace, analysis.LineReuse(lineSize)))
		e.memDiv.Merge(analysis.MemDivergence(kp.Trace, lineSize))
		e.branchDiv.Merge(analysis.BranchDivergence(kp.Trace, kp.Tables))
		e.sharedBank.Merge(analysis.SharedBankConflicts(kp.Trace))
		analysis.MergeSiteReuse(e.siteReuse, analysis.ReuseBySite(kp.Trace, analysis.DefaultElementReuse(), nil))
		for _, rs := range kp.Result.SharedRaces {
			e.sharedRaces[rs.Loc] += rs.Count
		}
	}
	return e
}

// check compares everything a bundle derives with the reference.
func (e *explicit) check(t *testing.T, a *profiler.Analyses) {
	t.Helper()
	mem, blocks := a.Coverage()
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"ReuseElem", a.ReuseElem(), &e.reuseElem},
		{"ReuseLine", a.ReuseLine(), &e.reuseLine},
		{"MemDiv", a.MemDiv(), &e.memDiv},
		{"BranchDiv", a.BranchDiv(), &e.branchDiv},
		{"SharedBank", a.SharedBank(), &e.sharedBank},
		{"SiteReuse", a.SiteReuse(), e.siteReuse},
		{"SharedRaces", a.SharedRaces(), e.sharedRaces},
		{"ReuseElemByKernel", a.ReuseElemByKernel(), e.reuseByKernel},
		{"ReusedByContext", a.ReusedByContext(), e.reusedByContext},
		{"Coverage", [2]analysis.Events{mem, blocks}, e.coverage},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s: the bundle differs from the explicit per-kernel merge\n got %+v\nwant %+v", c.name, c.got, c.want)
		}
	}
}

// TestAnalysesEqualExplicitMerge: on bfs (a launch per frontier level,
// so many kernel instances) and on backprop (shared memory, so the
// bank-conflict profile is not empty) every aggregate of the bundle
// equals the per-kernel Merge written out by hand; reading an aggregate
// twice returns the kept result; and a detached bundle still answers
// every aggregate.
func TestAnalysesEqualExplicitMerge(t *testing.T) {
	cfg := gpu.KeplerK40c()
	for _, name := range []string{"bfs", "backprop"} {
		p, err := experiments.Profile(apps.ByName(name), cfg, instrument.MemorySharedAndBlocks(), 1)
		if err != nil {
			t.Fatal(err)
		}
		want := mergeExplicitly(p, cfg.L1LineSize)
		if name == "bfs" && len(p.Kernels) < 8 {
			t.Fatalf("bfs launched %d kernels; the test wants many instances", len(p.Kernels))
		}
		if name == "backprop" && want.sharedBank.Total == 0 {
			t.Fatal("backprop recorded no shared-memory access")
		}
		a := p.Analyses(cfg.L1LineSize)
		want.check(t, a)
		if a.MemDiv() != a.MemDiv() || a.ReuseLine() != a.ReuseLine() {
			t.Errorf("%s: an aggregate was derived twice", name)
		}
		if err := a.Detach(context.Background()); err != nil {
			t.Fatal(err)
		}
		want.check(t, a) // everything was derived before the run was released
	}
}

// TestAnalysesConcurrentFirstUse: sixteen goroutines racing to be the
// first reader of every aggregate all get the one kept result (run under
// -race, this is the bundle's synchronization test).
func TestAnalysesConcurrentFirstUse(t *testing.T) {
	cfg := gpu.KeplerK40c()
	p, err := experiments.Profile(apps.ByName("bfs"), cfg, instrument.MemorySharedAndBlocks(), 1)
	if err != nil {
		t.Fatal(err)
	}
	want := mergeExplicitly(p, cfg.L1LineSize)
	a := p.Analyses(cfg.L1LineSize)
	const readers = 16
	var got [readers][4]any
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Start each reader on a different aggregate.
			for i := 0; i < 4; i++ {
				switch k := (g + i) % 4; k {
				case 0:
					got[g][k] = a.ReuseElem()
				case 1:
					got[g][k] = a.MemDiv()
				case 2:
					got[g][k] = a.BranchDiv()
				case 3:
					got[g][k] = a.SharedBank()
				}
			}
			a.ReuseLine()
			a.SiteReuse()
			a.SharedRaces()
		}(g)
	}
	wg.Wait()
	for g := 1; g < readers; g++ {
		if got[g] != got[0] {
			t.Errorf("reader %d got its own copy of an aggregate", g)
		}
	}
	want.check(t, a)
}

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

// TestDetachKeepsEveryGetter: on all ten apps, a bundle detached before
// anything was read off it answers every exported getter as a live,
// lazily derived bundle of the same run does — per-context tables and
// sample addresses included (DeepEqual sees the unexported fields) —
// and its traces hold no record afterwards.
func TestDetachKeepsEveryGetter(t *testing.T) {
	cfg := gpu.PascalP100()
	for _, name := range apps.TableOrder {
		var runs [2]*profiler.Profiler
		for i := range runs {
			var err error
			if runs[i], err = experiments.Profile(apps.ByName(name), cfg, instrument.MemorySharedAndBlocks(), 1); err != nil {
				t.Fatal(err)
			}
		}
		live, detached := runs[0].Analyses(cfg.L1LineSize), runs[1].Analyses(cfg.L1LineSize)
		if err := detached.Detach(context.Background()); err != nil {
			t.Fatal(err)
		}
		for _, kp := range runs[1].Kernels {
			if cap(kp.Trace.Mem) != 0 || cap(kp.Trace.Blocks) != 0 {
				t.Errorf("%s: instance %d of the detached run still holds records", name, kp.Trace.Instance)
			}
		}
		if runs[1].Analyses(cfg.L1LineSize) != detached {
			t.Errorf("%s: the detached run handed out a second bundle", name)
		}
		want := getters(live)
		for getter, got := range getters(detached) {
			if !reflect.DeepEqual(got, want[getter]) {
				t.Errorf("%s: %s of the detached bundle differs from the live one\n got %+v\nwant %+v", name, getter, got, want[getter])
			}
		}
	}
}

// TestProfilerOwnsOneBundle: a run hands out the same bundle on every
// call, whoever asks, until a launch has added an instance.
func TestProfilerOwnsOneBundle(t *testing.T) {
	cfg := gpu.KeplerK40c()
	p, err := experiments.Profile(apps.ByName("nn"), cfg, instrument.MemoryAndBlocks(), 1)
	if err != nil {
		t.Fatal(err)
	}
	a := p.Analyses(cfg.L1LineSize)
	if p.Analyses(cfg.L1LineSize) != a {
		t.Error("two calls, two bundles")
	}
	if other := p.Analyses(32); other == a || other.MemDiv().LineSize != 32 {
		t.Error("another line size was answered from the first one's bundle")
	}
	a = p.Analyses(cfg.L1LineSize)
	p.Kernels = append(p.Kernels, p.Kernels[0]) // what a later launch does
	if grown := p.Analyses(cfg.L1LineSize); grown == a || grown.MemDiv().Total != 2*a.MemDiv().Total {
		t.Error("a bundle built before the last launch was handed out after it")
	}
}
