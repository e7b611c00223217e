package analysis

import (
	"sort"

	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/ir"
	"cudaadvisor/internal/runner"
	"cudaadvisor/internal/trace"
)

// SharedBankResult is the shared-memory bank-conflict profile: the
// conflict degree of every executed warp-level shared-memory instruction
// — the maximum number of distinct 4-byte words the active lanes address
// in one of the 32 banks (1 = conflict-free or broadcast, 32 = fully
// serialized) — summed overall and per site. It requires a trace
// recorded with the shared-memory instrumentation category enabled;
// without it, no shared events exist and the result is empty.
type SharedBankResult struct {
	Total int64 // warp shared-memory instructions

	// Replays accumulates degree-1 per instruction: the extra bank
	// passes the hardware serializes the access into.
	Replays int64

	Events // the shared-memory events recorded of those offered

	sites map[ir.Loc]*SiteBankConflict
}

// SiteBankConflict aggregates bank conflicts per source location, the
// code-centric view the advisor joins against the static prediction.
type SiteBankConflict struct {
	Loc        ir.Loc
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
// kernel trace under the 32-bank × 4-byte geometry, using the
// simulator's per-access degree (gpu.BankConflictDegree).
func SharedBankConflicts(tr *trace.KernelTrace) *SharedBankResult {
	return SharedBankConflictsOn(tr, nil)
}

// SharedBankConflictsOn is SharedBankConflicts with the trace's record
// ranges derived on pool (see fanOut), merged in trace order.
func SharedBankConflictsOn(tr *trace.KernelTrace, pool *runner.Pool) *SharedBankResult {
	res := fanOut(pool, recordBounds(pool, len(tr.Mem)), func(lo, hi int) *SharedBankResult { return sharedBankRange(tr, lo, hi) }, (*SharedBankResult).Merge)
	// Shared events ride the memory buffer with the global ones, so its
	// coverage is not theirs: every record of Total is one kept.
	res.Add(res.Total, tr.SharedSeen)
	return res
}

// sharedBankRange is the profile of the records [lo, hi) of tr.
func sharedBankRange(tr *trace.KernelTrace, lo, hi int) *SharedBankResult {
	res := &SharedBankResult{sites: make(map[ir.Loc]*SiteBankConflict)}
	bySite := make([]*SiteBankConflict, tr.Locs.Len()+1) // res.sites by siteIndex
	var addrs [trace.WarpSize]uint64
	for i := lo; i < hi; i++ {
		m := &tr.Mem[i]
		if m.Space != ir.Shared {
			continue
		}
		tr.LaneAddrs(m, &addrs)
		n := gpu.BankConflictDegree(m.Mask, &addrs, int(m.Bits)/8)
		res.Total++
		res.Replays += int64(n - 1)

		id := siteIndex(tr, m.Loc)
		s := bySite[id]
		if s == nil {
			s = &SiteBankConflict{Loc: tr.Locs.Loc(m.Loc)}
			bySite[id], res.sites[s.Loc] = s, s
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
