package analysis

import (
	"cudaadvisor/internal/ir"
	"cudaadvisor/internal/trace"
)

// SiteReuse is the per-source-location reuse profile: how often the data
// a load site brings in is reused later (forward-looking, by any site).
// It is the input to vertical cache bypassing (the per-instruction scheme
// of Xie et al. the paper contrasts with horizontal bypassing in Section
// 4.2-D): loads whose data is never reused afterwards are safe to send
// around the L1.
type SiteReuse struct {
	Loc     ir.Loc
	Ctx     int32 // a representative calling context: the site's first access in the trace
	Samples int64 // read accesses issued by this site
	Reused  int64 // of those, how many were re-read later (before a write)
}

// StreamFraction is the share of this site's loads whose data is never
// reused afterwards — the vertical-bypass criterion.
func (s *SiteReuse) StreamFraction() float64 {
	if s.Samples == 0 {
		return 0
	}
	return 1 - float64(s.Reused)/float64(s.Samples)
}

// ReuseBySite computes per-site reuse statistics for a kernel trace under
// the same per-CTA, write-restart model as ReuseDistance. Each read
// access is attributed to the source location of its load.
func ReuseBySite(tr *trace.KernelTrace, opt ReuseOptions) map[ir.Loc]*SiteReuse {
	sites := newSiteTable(tr)
	walkReuse(tr, opt, nil, sites)
	return sitesByLoc(tr, sites)
}

// newSiteTable returns one counter per interned location of tr, indexed
// by Loc id, and a last one that siteIndex gives every other id (they
// all resolve to trace.UnknownLoc, which no table interns).
func newSiteTable(tr *trace.KernelTrace) []SiteReuse {
	return make([]SiteReuse, tr.Locs.Len()+1)
}

func siteIndex(tr *trace.KernelTrace, id int32) int32 {
	return int32(min(uint32(id), uint32(tr.Locs.Len()))) // a negative id is a large one
}

// sitesByLoc keys the counters of the sites that issued reads by their
// location in tr, each under the context of its first access in tr.
func sitesByLoc(tr *trace.KernelTrace, sites []SiteReuse) map[ir.Loc]*SiteReuse {
	for i := len(tr.Mem) - 1; i >= 0; i-- { // backwards: the first access is assigned last
		sites[siteIndex(tr, tr.Mem[i].Loc)].Ctx = tr.Mem[i].Ctx
	}
	out := make(map[ir.Loc]*SiteReuse)
	for id := range sites {
		if s := &sites[id]; s.Samples > 0 {
			s.Loc = tr.Locs.Loc(int32(id))
			out[s.Loc] = s
		}
	}
	return out
}

// MergeSiteReuse accumulates per-site maps across kernel instances into
// dst, which the caller has made.
func MergeSiteReuse(dst, src map[ir.Loc]*SiteReuse) {
	mergeTable(&dst, src, func(cur, s *SiteReuse) {
		cur.Samples += s.Samples
		cur.Reused += s.Reused
	})
}
