package bypass

import (
	"sort"

	"cudaadvisor/internal/analysis"
	"cudaadvisor/internal/ir"
)

// Vertical cache bypassing (the per-instruction scheme of Xie et al. that
// Section 4.2-D contrasts with horizontal bypassing): individual load
// instructions whose data is never reused are rewritten to non-cached
// loads (PTX ld.global.cg / our ld.cg), so they stop evicting the lines
// other loads still need. The paper notes vertical bypassing "is more
// fine-grained but requires architectural and runtime information to
// evaluate every individual load" — exactly the information CUDAAdvisor's
// per-site reuse profile provides.

// The site-selection heuristic mirrors the conservative stance of the
// paper's models: only overwhelmingly streaming loads are bypassed.
const (
	// minSamples drops sites with too few dynamic accesses to judge.
	minSamples = 64
	// streamThreshold is the minimum no-forward-reuse fraction for a
	// load site to be bypassed.
	streamThreshold = 0.95
)

// VerticalPlan selects the load sites to bypass from a per-site reuse
// profile. The result is sorted for deterministic application.
func VerticalPlan(sites map[ir.Loc]*analysis.SiteReuse) []ir.Loc {
	var out []ir.Loc
	for loc, s := range sites {
		if s.Samples >= minSamples && s.StreamFraction() >= streamThreshold {
			out = append(out, loc)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// ApplyVertical marks every global load at one of the planned source
// locations as non-cached, returning how many instructions were
// rewritten. The module must be re-finalized by the caller if it was
// already finalized (the rewrite only flips a flag, so this is optional).
func ApplyVertical(m *ir.Module, locs []ir.Loc) int {
	want := make(map[ir.Loc]bool, len(locs))
	for _, l := range locs {
		want[l] = true
	}
	n := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpLd && in.Space == ir.Global && !in.NonCached && want[in.Loc] {
					in.NonCached = true
					n++
				}
			}
		}
	}
	return n
}
