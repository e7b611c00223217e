package analysis

import (
	"math/bits"
	"sort"

	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/ir"
	"cudaadvisor/internal/runner"
	"cudaadvisor/internal/trace"
)

// MemDivResult is the memory-divergence profile of Section 4.2(B): for
// every executed warp-level global-memory instruction, the number of
// unique cache lines its active threads touch (1 = fully coalesced,
// 32 = fully diverged).
type MemDivResult struct {
	LineSize int
	// Dist[n] counts warp instructions that touched n unique lines
	// (index 1..32; straddling accesses are clamped to 32).
	Dist  [gpu.WarpSize + 1]int64
	Total int64

	// WeightedSum accumulates n per instruction for the divergence
	// degree metric.
	WeightedSum int64

	Events // the trace's memory-event coverage

	sites map[ir.Loc]*SiteDivergence
	lines map[ContextSite]int64
}

// LinesByContext is WeightedSum spread over the leaves of the
// calling-context tree: the unique lines summed per (context, location).
// It comes from a trace only; a cache entry does not carry it.
func (r *MemDivResult) LinesByContext() map[ContextSite]int64 { return r.lines }

// SiteDivergence aggregates divergence per source location, the
// code-centric view behind Figure 8 ("Line 33 of Kernel.cu has
// significant memory divergence").
type SiteDivergence struct {
	Loc         ir.Loc
	Ctx         int32 // a representative calling context
	Count       int64 // warp instructions at this site
	WeightedSum int64 // sum of unique-line counts
	MaxLines    int
	Diverged    int64 // executions touching >1 line

	addr uint64
}

// SampleAddr is an address the site touched (the first active lane's,
// at the execution Ctx is taken from) for the data-centric view to
// chase. Like LinesByContext it comes from a trace only.
func (s *SiteDivergence) SampleAddr() uint64 { return s.addr }

// Degree returns the site's average unique lines per instruction.
func (s *SiteDivergence) Degree() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.WeightedSum) / float64(s.Count)
}

// Degree returns the application's memory divergence degree: the average
// number of unique cache lines touched per warp memory instruction (the
// M.D. term of the bypassing model, Eq. 1).
func (r *MemDivResult) Degree() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.WeightedSum) / float64(r.Total)
}

// Fraction returns the share of warp instructions touching n unique lines.
func (r *MemDivResult) Fraction(n int) float64 {
	if r.Total == 0 || n < 1 || n > gpu.WarpSize {
		return 0
	}
	return float64(r.Dist[n]) / float64(r.Total)
}

// Sites returns the per-source-location aggregates, most divergent first.
func (r *MemDivResult) Sites() []*SiteDivergence {
	out := make([]*SiteDivergence, 0, len(r.sites))
	for _, s := range r.sites {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		return worseSite(out[i].Degree(), out[j].Degree(), out[i].Loc, out[j].Loc)
	})
	return out
}

// worseSite orders the per-site listings: higher degree first, ties by
// line and then by ir.Loc.Less, so no order is left to the map.
func worseSite(di, dj float64, li, lj ir.Loc) bool {
	if di != dj {
		return di > dj
	}
	if li.Line != lj.Line {
		return li.Line < lj.Line
	}
	return li.Less(lj)
}

// Merge accumulates other into r.
func (r *MemDivResult) Merge(other *MemDivResult) {
	for i := range r.Dist {
		r.Dist[i] += other.Dist[i]
	}
	r.Total += other.Total
	r.WeightedSum += other.WeightedSum
	r.Add(other.EventsRecorded, other.EventsSeen)
	r.lines = mergeSums(r.lines, other.lines)
	mergeTable(&r.sites, other.sites, func(cur, s *SiteDivergence) {
		cur.Count += s.Count
		cur.WeightedSum += s.WeightedSum
		cur.Diverged += s.Diverged
		cur.MaxLines = max(cur.MaxLines, s.MaxLines)
	})
}

// MemDivergence computes the memory-divergence distribution of a kernel
// trace for the given cache-line size (128 B on Kepler, 32 B on Pascal).
func MemDivergence(tr *trace.KernelTrace, lineSize int) *MemDivResult {
	return MemDivergenceOn(tr, lineSize, nil)
}

// MemDivergenceOn is MemDivergence with the trace's record ranges
// derived on pool (see fanOut). Ranges merge in trace order, so a site's
// Ctx and sample address are those of its first access in the trace.
func MemDivergenceOn(tr *trace.KernelTrace, lineSize int, pool *runner.Pool) *MemDivResult {
	res := fanOut(pool, recordBounds(pool, len(tr.Mem)), func(lo, hi int) *MemDivResult { return memDivRange(tr, lineSize, lo, hi) }, (*MemDivResult).Merge)
	res.Add(tr.MemCoverage())
	return res
}

// memDivRange is the profile of the records [lo, hi) of tr.
func memDivRange(tr *trace.KernelTrace, lineSize, lo, hi int) *MemDivResult {
	res := &MemDivResult{LineSize: lineSize, sites: make(map[ir.Loc]*SiteDivergence), lines: make(map[ContextSite]int64)}
	byID := make(map[[2]int32]int64)                   // lines per (context, location id): an 8-byte key per record, resolved once
	bySite := make([]*SiteDivergence, tr.Locs.Len()+1) // res.sites by siteIndex
	var addrs [trace.WarpSize]uint64
	for i := lo; i < hi; i++ {
		m := &tr.Mem[i]
		if m.Space != ir.Global {
			continue
		}
		// A uniform record touches the line of its address and of its
		// last byte; any other is coalesced as the simulator does.
		n, first := 1, uint64(0)
		if a, ok := tr.Uniform(m); ok {
			if line := ^uint64(lineSize - 1); a&line != (a+uint64(m.Bits/8)-1)&line {
				n = 2
			}
			first = a
		} else {
			tr.LaneAddrs(m, &addrs)
			n = gpu.UniqueLines(m.Mask, &addrs, int(m.Bits)/8, lineSize)
			first = addrs[bits.TrailingZeros32(m.Mask)]
		}
		if n == 0 {
			continue
		}
		if n > gpu.WarpSize {
			n = gpu.WarpSize
		}
		res.Dist[n]++
		res.Total++
		res.WeightedSum += int64(n)
		byID[[2]int32{m.Ctx, m.Loc}] += int64(n)

		id := siteIndex(tr, m.Loc)
		s := bySite[id]
		if s == nil {
			s = &SiteDivergence{Loc: tr.Locs.Loc(m.Loc), Ctx: m.Ctx, addr: first}
			bySite[id], res.sites[s.Loc] = s, s
		}
		s.Count++
		s.WeightedSum += int64(n)
		if n > s.MaxLines {
			s.MaxLines = n
		}
		if n > 1 {
			s.Diverged++
		}
	}
	for k, n := range byID {
		res.lines[ContextSite{k[0], tr.Locs.Loc(k[1])}] += n
	}
	return res
}
