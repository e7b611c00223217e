package profiler

import (
	"context"
	"sync"

	"cudaadvisor/internal/analysis"
	"cudaadvisor/internal/ir"
	"cudaadvisor/internal/runner"
)

// Analyses is the analysis bundle of one profiled run: every aggregate
// the analyzer derives from the run's kernel instances (Section 3.3
// merges instances offline), each computed per instance, merged in
// launch order on first use, and kept. It is the one place that walks a
// run's kernels calling the per-instance analyses (the root package's
// TestTraceHasOneReader holds that), and a run has one
// (Profiler.Analyses), so a figure, a report, an export and the
// advisor's join derive each analysis once between them — and an
// uncached Figure 4 pays for one reuse walk only.
//
// A bundle built on a run with a Pool derives each instance on it, split
// into CTA or record ranges that merge in trace order, so the results do
// not depend on the pool. A bundle is safe for concurrent use; what it
// returns is shared and must be treated as immutable. Detached in
// process (Detach) it answers every getter as before. Built from a
// "profile" cache entry (DetachedAnalyses) it carries ReuseElem,
// ReuseLine, MemDiv and BranchDiv only, the two divergence results
// without their per-site, per-block and per-context tables, and every
// other getter reads as empty; nothing in the tree asks: the figures,
// its only readers, read exactly those four.
type Analyses struct {
	mu       sync.Mutex
	kernels  []*KernelProfile // the instances launched before it was built; none from a cache entry
	lineSize int
	pool     *runner.Pool    // the run's Pool: each instance's derivation fans out on it
	stop     context.Context // while Detach runs, its context: derive stops between instances once it ends

	// derived keeps every aggregate asked for so far under its getter's
	// name, a reuse profile under its analysis.ReuseOptions.
	derived map[any]any
}

// Analyses returns the run's bundle at the given cache-line size (the
// architecture's L1LineSize): the same one on every call, until a later
// launch has grown Kernels or another line size is asked for. A detached
// run answers at the line size it was detached at only.
func (p *Profiler) Analyses(lineSize int) *Analyses {
	p.mu.Lock()
	defer p.mu.Unlock()
	if a := p.analyses; a == nil || len(a.kernels) != len(p.Kernels) || a.lineSize != lineSize {
		p.analyses = &Analyses{kernels: p.Kernels, lineSize: lineSize, pool: p.Pool, derived: make(map[any]any)}
	}
	return p.analyses
}

// onDerive, set by a test only, is called before each kernel instance
// derive folds in.
var onDerive func()

// derive returns the aggregate kept under key. On first use that is
// acc, a reference to an empty aggregate, after fold has merged every
// kernel instance into it in launch order. Under a Detach whose context
// ends between two instances it stops there and keeps nothing.
func derive[T any](a *Analyses, key any, acc T, fold func(T, *KernelProfile)) T {
	a.mu.Lock()
	defer a.mu.Unlock()
	if kept, ok := a.derived[key]; ok {
		return kept.(T)
	}
	for _, kp := range a.kernels {
		if onDerive != nil {
			onDerive()
		}
		if a.stop != nil && a.stop.Err() != nil {
			return acc
		}
		fold(acc, kp)
	}
	a.derived[key] = acc
	return acc
}

// Coverage is how much of what the run's kernel instances offered their
// memory and basic-block trace buffers is still held, summed over the
// instances; either is Partial once a trace sampled.
func (a *Analyses) Coverage() (mem, blocks analysis.Events) {
	c := derive(a, "Coverage", new([2]analysis.Events), func(c *[2]analysis.Events, kp *KernelProfile) {
		c[0].Add(kp.Trace.MemCoverage())
		c[1].Add(kp.Trace.BlocksCoverage())
	})
	return c[0], c[1]
}

// reuseProfile is the reuse of a run under one model: the distance
// histogram over all instances and per kernel name, and the per-site
// forward reuse by location and by calling context.
type reuseProfile struct {
	total    analysis.ReuseResult
	byKernel map[string]*analysis.ReuseResult
	sites    map[ir.Loc]*analysis.SiteReuse
	reused   map[analysis.ContextSite]int64
}

// reuse derives the profile under opt from one walk per kernel instance.
// A caller that reads only the per-site half passes hist false: unless
// the whole profile is already kept (a detached bundle's always is) it
// gets one from walks that skip the histogram and its superseded
// timestamps, which are about a sixth of an uncached `advise` of syr2k.
func (a *Analyses) reuse(opt analysis.ReuseOptions, hist bool) *reuseProfile {
	key := any(opt)
	if !hist {
		a.mu.Lock()
		whole, ok := a.derived[key].(*reuseProfile)
		a.mu.Unlock()
		if ok {
			return whole
		}
		key = "SiteReuse"
	}
	return derive(a, key, &reuseProfile{
		byKernel: make(map[string]*analysis.ReuseResult),
		sites:    make(map[ir.Loc]*analysis.SiteReuse),
		reused:   make(map[analysis.ContextSite]int64),
	}, func(r *reuseProfile, kp *KernelProfile) {
		rd, sites := new(analysis.ReuseResult), map[ir.Loc]*analysis.SiteReuse(nil)
		if hist {
			rd, sites = analysis.Reuse(kp.Trace, opt, a.pool)
		} else {
			sites = analysis.ReuseBySite(kp.Trace, opt, a.pool)
		}
		r.total.Merge(rd)
		if cur := r.byKernel[kp.Trace.Kernel]; cur != nil {
			cur.Merge(rd)
		} else {
			r.byKernel[kp.Trace.Kernel] = rd
		}
		for loc, s := range sites {
			if s.Reused > 0 {
				r.reused[analysis.ContextSite{Ctx: s.Ctx, Loc: loc}] += s.Reused
			}
		}
		analysis.MergeSiteReuse(r.sites, sites)
	})
}

// ReuseElem is the element-based reuse-distance profile (Figure 4).
func (a *Analyses) ReuseElem() *analysis.ReuseResult {
	return &a.reuse(analysis.DefaultElementReuse(), true).total
}

// ReuseElemByKernel is ReuseElem per kernel name: the instances of one
// kernel merged (Section 3.3's offline grouping).
func (a *Analyses) ReuseElemByKernel() map[string]*analysis.ReuseResult {
	return a.reuse(analysis.DefaultElementReuse(), true).byKernel
}

// ReuseLine is the line-based reuse-distance profile at the run's cache
// line size (the R.D. input of the Eq. (1) bypass model).
func (a *Analyses) ReuseLine() *analysis.ReuseResult {
	return &a.reuse(analysis.LineReuse(a.lineSize), true).total
}

// MemDiv is the memory-divergence profile at the run's line size
// (Figure 5, and the M.D. input of the bypass model).
func (a *Analyses) MemDiv() *analysis.MemDivResult {
	return derive(a, "MemDiv", &analysis.MemDivResult{LineSize: a.lineSize},
		func(r *analysis.MemDivResult, kp *KernelProfile) {
			r.Merge(analysis.MemDivergenceOn(kp.Trace, a.lineSize, a.pool))
		})
}

// BranchDiv is the branch-divergence profile (Table 3); empty unless the
// run instrumented basic blocks.
func (a *Analyses) BranchDiv() *analysis.BranchDivResult {
	return derive(a, "BranchDiv", &analysis.BranchDivResult{},
		func(r *analysis.BranchDivResult, kp *KernelProfile) {
			r.Merge(analysis.BranchDivergenceOn(kp.Trace, kp.Tables, a.pool))
		})
}

// SharedBank is the shared-memory bank-conflict profile; empty unless
// the run instrumented the shared-memory category.
func (a *Analyses) SharedBank() *analysis.SharedBankResult {
	return derive(a, "SharedBank", &analysis.SharedBankResult{},
		func(r *analysis.SharedBankResult, kp *KernelProfile) {
			r.Merge(analysis.SharedBankConflictsOn(kp.Trace, a.pool))
		})
}

// SiteReuse is the forward reuse of every load site under the
// element-based model (the vertical-bypass criterion).
func (a *Analyses) SiteReuse() map[ir.Loc]*analysis.SiteReuse {
	return a.reuse(analysis.DefaultElementReuse(), false).sites
}

// ReusedByContext sums the reused loads of SiteReuse under each site's
// representative context in the kernel instance that issued them, for
// the sites that have any.
func (a *Analyses) ReusedByContext() map[analysis.ContextSite]int64 {
	return a.reuse(analysis.DefaultElementReuse(), false).reused
}

// SharedRaces sums, per load site, the lane reads the simulator's
// same-interval last-writer check flagged; empty unless the
// shared-memory watch ran.
func (a *Analyses) SharedRaces() map[ir.Loc]int64 {
	return derive(a, "SharedRaces", make(map[ir.Loc]int64), func(races map[ir.Loc]int64, kp *KernelProfile) {
		if kp.Result == nil {
			return
		}
		for _, rs := range kp.Result.SharedRaces {
			races[rs.Loc] += rs.Count
		}
	})
}

// DetachedAnalyses is the detached bundle at lineSize that holds the
// four aggregates the figures read — what a "profile" cache entry keeps
// of a run — and reads as empty for every other getter.
func DetachedAnalyses(lineSize int, reuseElem, reuseLine *analysis.ReuseResult,
	memDiv *analysis.MemDivResult, branchDiv *analysis.BranchDivResult) *Analyses {
	return &Analyses{lineSize: lineSize, derived: map[any]any{
		analysis.DefaultElementReuse(): &reuseProfile{total: *reuseElem},
		analysis.LineReuse(lineSize):   &reuseProfile{total: *reuseLine},
		"MemDiv":                       memDiv,
		"BranchDiv":                    branchDiv,
	}}
}

// Detach derives everything a getter of the bundle answers — the two
// reuse walks, memory and branch divergence, shared-bank conflicts,
// shared races, coverage — then releases the records of the run's
// traces: what is left of the run is O(sites + contexts + CTAs), and
// every reader of its Profiler renders from it as before. Once ctx ends
// it stops at the next kernel instance and returns ctx's error, keeping
// only the aggregates it finished and every record; it is for the run's
// owner, before the run is shared.
func (a *Analyses) Detach(ctx context.Context) error {
	a.mu.Lock()
	a.stop = ctx
	a.mu.Unlock()
	a.ReuseElem()
	a.ReuseLine()
	a.MemDiv()
	a.BranchDiv()
	a.SharedBank()
	a.SharedRaces()
	a.Coverage()
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stop = nil
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, kp := range a.kernels {
		kp.Trace.Release()
	}
	return nil
}
