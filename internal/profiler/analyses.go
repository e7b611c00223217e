package profiler

import (
	"encoding/json"
	"errors"
	"sync"

	"cudaadvisor/internal/analysis"
	"cudaadvisor/internal/ir"
)

// Analyses is the analysis bundle of one profiled run: every aggregate
// the analyzer derives from the run's kernel instances (Section 3.3
// merges instances offline), each computed per instance, merged in
// launch order on first use, and kept. It is the one place that walks a
// run's kernels calling the per-instance analyses, so a figure, a
// report and the advisor's join that read the same bundle derive each
// analysis once between them — and an uncached Figure 4 pays for reuse
// distance only.
//
// A bundle is safe for concurrent use; what it returns is shared and
// must be treated as immutable. Build it when the run is complete:
// instances launched later are not seen.
type Analyses struct {
	mu       sync.Mutex
	kernels  []*KernelProfile // nil once detached or decoded
	lineSize int

	reuse       map[analysis.ReuseOptions]*analysis.ReuseResult
	memDiv      *analysis.MemDivResult
	branchDiv   *analysis.BranchDivResult
	sharedBank  *analysis.SharedBankResult
	siteReuse   map[ir.Loc]*analysis.SiteReuse
	sharedRaces map[ir.Loc]int64
}

// NewAnalyses wraps a completed run for derivation at the given
// cache-line size (the architecture's L1LineSize).
func NewAnalyses(p *Profiler, lineSize int) *Analyses {
	return &Analyses{kernels: p.Kernels, lineSize: lineSize}
}

// Reuse is the reuse-distance profile under the given model.
func (a *Analyses) Reuse(opt analysis.ReuseOptions) *analysis.ReuseResult {
	a.mu.Lock()
	defer a.mu.Unlock()
	r := a.reuse[opt]
	if r == nil {
		r = &analysis.ReuseResult{}
		for _, kp := range a.kernels {
			r.Merge(analysis.ReuseDistance(kp.Trace, opt))
		}
		if a.reuse == nil {
			a.reuse = make(map[analysis.ReuseOptions]*analysis.ReuseResult)
		}
		a.reuse[opt] = r
	}
	return r
}

// ReuseElem is the element-based reuse-distance profile (Figure 4).
func (a *Analyses) ReuseElem() *analysis.ReuseResult {
	return a.Reuse(analysis.DefaultElementReuse())
}

// ReuseLine is the line-based reuse-distance profile at the run's cache
// line size (the R.D. input of the Eq. (1) bypass model).
func (a *Analyses) ReuseLine() *analysis.ReuseResult {
	return a.Reuse(analysis.LineReuse(a.lineSize))
}

// MemDiv is the memory-divergence profile at the run's line size
// (Figure 5, and the M.D. input of the bypass model).
func (a *Analyses) MemDiv() *analysis.MemDivResult {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.memDiv == nil {
		a.memDiv = &analysis.MemDivResult{LineSize: a.lineSize}
		for _, kp := range a.kernels {
			a.memDiv.Merge(analysis.MemDivergence(kp.Trace, a.lineSize))
		}
	}
	return a.memDiv
}

// BranchDiv is the branch-divergence profile (Table 3); empty unless the
// run instrumented basic blocks.
func (a *Analyses) BranchDiv() *analysis.BranchDivResult {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.branchDiv == nil {
		a.branchDiv = &analysis.BranchDivResult{}
		for _, kp := range a.kernels {
			a.branchDiv.Merge(analysis.BranchDivergence(kp.Trace, kp.Tables))
		}
	}
	return a.branchDiv
}

// SharedBank is the shared-memory bank-conflict profile; empty unless
// the run instrumented the shared-memory category.
func (a *Analyses) SharedBank() *analysis.SharedBankResult {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.sharedBank == nil {
		a.sharedBank = &analysis.SharedBankResult{}
		for _, kp := range a.kernels {
			a.sharedBank.Merge(analysis.SharedBankConflicts(kp.Trace))
		}
	}
	return a.sharedBank
}

// SiteReuse is the forward reuse of every load site under the
// element-based model (the vertical-bypass criterion).
func (a *Analyses) SiteReuse() map[ir.Loc]*analysis.SiteReuse {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.siteReuse == nil {
		a.siteReuse = make(map[ir.Loc]*analysis.SiteReuse)
		for _, kp := range a.kernels {
			analysis.MergeSiteReuse(a.siteReuse, analysis.ReuseBySite(kp.Trace, analysis.DefaultElementReuse()))
		}
	}
	return a.siteReuse
}

// SharedRaces sums, per load site, the lane reads the simulator's
// same-interval last-writer check flagged; empty unless the
// shared-memory watch ran.
func (a *Analyses) SharedRaces() map[ir.Loc]int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.sharedRaces == nil {
		a.sharedRaces = make(map[ir.Loc]int64)
		for _, kp := range a.kernels {
			if kp.Result == nil {
				continue
			}
			for _, rs := range kp.Result.SharedRaces {
				a.sharedRaces[rs.Loc] += rs.Count
			}
		}
	}
	return a.sharedRaces
}

// analysesJSON is the bundle's serialized form: the four aggregates the
// figures read, which is what a cache entry keeps of a run. The raw
// traces stay behind, and with them everything only a view renders
// (shared-memory and per-site evidence).
type analysesJSON struct {
	LineSize  int
	ReuseElem *analysis.ReuseResult
	ReuseLine *analysis.ReuseResult
	MemDiv    *analysis.MemDivResult
	BranchDiv *analysis.BranchDivResult
}

// serialized derives what the serialized form carries.
func (a *Analyses) serialized() analysesJSON {
	return analysesJSON{a.lineSize, a.ReuseElem(), a.ReuseLine(), a.MemDiv(), a.BranchDiv()}
}

// Detach derives the serialized aggregates and releases the run, so the
// bundle no longer pins the raw traces. Anything else not yet derived
// reads as empty afterwards.
func (a *Analyses) Detach() {
	a.serialized()
	a.mu.Lock()
	a.kernels = nil
	a.mu.Unlock()
}

// MarshalJSON implements json.Marshaler.
func (a *Analyses) MarshalJSON() ([]byte, error) { return json.Marshal(a.serialized()) }

// UnmarshalJSON implements json.Unmarshaler; the result is a detached
// bundle.
func (a *Analyses) UnmarshalJSON(b []byte) error {
	var p analysesJSON
	if err := json.Unmarshal(b, &p); err != nil {
		return err
	}
	if p.ReuseElem == nil || p.ReuseLine == nil || p.MemDiv == nil || p.BranchDiv == nil {
		return errors.New("profiler: serialized analyses lack an aggregate")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.kernels, a.lineSize = nil, p.LineSize
	a.reuse = map[analysis.ReuseOptions]*analysis.ReuseResult{
		analysis.DefaultElementReuse(): p.ReuseElem,
		analysis.LineReuse(p.LineSize): p.ReuseLine,
	}
	a.memDiv, a.branchDiv = p.MemDiv, p.BranchDiv
	return nil
}
