package analysis

import (
	"sort"

	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/ir"
	"cudaadvisor/internal/trace"
)

// SharedBankResult is the shared-memory bank-conflict profile: for every
// executed warp-level shared-memory instruction, the conflict degree —
// the maximum number of distinct 4-byte words the active lanes address
// in one of the 32 banks (1 = conflict-free or broadcast, 32 = fully
// serialized). It requires a trace recorded with the shared-memory
// instrumentation category enabled; without it, no shared events exist
// and the result is empty.
type SharedBankResult struct {
	// Dist[n] counts warp instructions of conflict degree n (1..32).
	Dist  [gpu.NumBanks + 1]int64
	Total int64

	// Replays accumulates degree-1 per instruction: the extra bank
	// passes the hardware serializes the access into.
	Replays int64

	Events // the trace's memory-event coverage (shared events ride the same buffer as global ones)

	sites map[ir.Loc]*SiteBankConflict
}

// SiteBankConflict aggregates bank conflicts per source location, the
// code-centric view the advisor joins against the static prediction.
type SiteBankConflict struct {
	Loc        ir.Loc
	Ctx        int32 // a representative calling context
	Count      int64 // warp instructions at this site
	ReplaySum  int64 // sum of (degree - 1)
	MaxDegree  int
	Conflicted int64 // executions with degree > 1
}

// Degree returns the site's average conflict degree per instruction.
func (s *SiteBankConflict) Degree() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.ReplaySum+s.Count) / float64(s.Count)
}

// Degree returns the application's average bank-conflict degree per warp
// shared-memory instruction.
func (r *SharedBankResult) Degree() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Replays+r.Total) / float64(r.Total)
}

// Sites returns the per-source-location aggregates, most conflicted
// first (ties in deterministic site order).
func (r *SharedBankResult) Sites() []*SiteBankConflict {
	out := make([]*SiteBankConflict, 0, len(r.sites))
	for _, s := range r.sites {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		return worseSite(out[i].Degree(), out[j].Degree(), out[i].Loc, out[j].Loc)
	})
	return out
}

// Merge accumulates other into r.
func (r *SharedBankResult) Merge(other *SharedBankResult) {
	for i := range r.Dist {
		r.Dist[i] += other.Dist[i]
	}
	r.Total += other.Total
	r.Replays += other.Replays
	r.Add(other.EventsRecorded, other.EventsSeen)
	mergeTable(&r.sites, other.sites, func(cur, s *SiteBankConflict) {
		cur.Count += s.Count
		cur.ReplaySum += s.ReplaySum
		cur.Conflicted += s.Conflicted
		cur.MaxDegree = max(cur.MaxDegree, s.MaxDegree)
	})
}

// SharedBankConflicts computes the bank-conflict distribution of a
// kernel trace under the 32-bank × 4-byte geometry, using the same
// per-access degree as the simulator's WatchShared counter
// (gpu.BankConflictDegree), so trace-derived per-site sums reconcile
// with the launch-level replay totals.
func SharedBankConflicts(tr *trace.KernelTrace) *SharedBankResult {
	res := &SharedBankResult{sites: make(map[ir.Loc]*SiteBankConflict)}
	res.Add(tr.MemCoverage())
	var addrs [trace.WarpSize]uint64
	for i := range tr.Mem {
		m := &tr.Mem[i]
		if m.Space != ir.Shared {
			continue
		}
		tr.LaneAddrs(m, &addrs)
		n := gpu.BankConflictDegree(m.Mask, &addrs, int(m.Bits)/8)
		res.Dist[n]++
		res.Total++
		res.Replays += int64(n - 1)

		loc := tr.Locs.Loc(m.Loc)
		s := res.sites[loc]
		if s == nil {
			s = &SiteBankConflict{Loc: loc, Ctx: m.Ctx}
			res.sites[loc] = s
		}
		s.Count++
		s.ReplaySum += int64(n - 1)
		if n > s.MaxDegree {
			s.MaxDegree = n
		}
		if n > 1 {
			s.Conflicted++
		}
	}
	return res
}
