package analysis

import (
	"sort"

	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/ir"
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

	// EventsRecorded/EventsSeen carry the trace's memory-event coverage
	// (see ReuseResult): Recorded < Seen means a sampled, partial profile.
	EventsRecorded int64
	EventsSeen     int64

	sites map[siteKey]*SiteDivergence
}

// Partial reports whether the underlying trace dropped events.
func (r *MemDivResult) Partial() bool { return r.EventsSeen > r.EventsRecorded }

// Coverage returns the recorded share of seen events (1 when complete).
func (r *MemDivResult) Coverage() float64 {
	if !r.Partial() {
		return 1
	}
	return float64(r.EventsRecorded) / float64(r.EventsSeen)
}

type siteKey struct {
	loc ir.Loc
}

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
}

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
		if out[i].Degree() != out[j].Degree() {
			return out[i].Degree() > out[j].Degree()
		}
		if out[i].Loc.Line != out[j].Loc.Line {
			return out[i].Loc.Line < out[j].Loc.Line
		}
		return out[i].Loc.File < out[j].Loc.File
	})
	return out
}

// Merge accumulates other into r.
func (r *MemDivResult) Merge(other *MemDivResult) {
	for i := range r.Dist {
		r.Dist[i] += other.Dist[i]
	}
	r.Total += other.Total
	r.WeightedSum += other.WeightedSum
	r.EventsRecorded += other.EventsRecorded
	r.EventsSeen += other.EventsSeen
	if r.sites == nil {
		r.sites = make(map[siteKey]*SiteDivergence)
	}
	for k, s := range other.sites {
		if cur, ok := r.sites[k]; ok {
			cur.Count += s.Count
			cur.WeightedSum += s.WeightedSum
			cur.Diverged += s.Diverged
			if s.MaxLines > cur.MaxLines {
				cur.MaxLines = s.MaxLines
			}
		} else {
			cp := *s
			r.sites[k] = &cp
		}
	}
}

// MemDivergence computes the memory-divergence distribution of a kernel
// trace for the given cache-line size (128 B on Kepler, 32 B on Pascal).
func MemDivergence(tr *trace.KernelTrace, lineSize int) *MemDivResult {
	res := &MemDivResult{LineSize: lineSize, sites: make(map[siteKey]*SiteDivergence)}
	res.EventsRecorded, res.EventsSeen = tr.MemCoverage()
	var addrs [trace.WarpSize]uint64
	for i := range tr.Mem {
		m := &tr.Mem[i]
		if m.Space != ir.Global {
			continue
		}
		tr.LaneAddrs(m, &addrs)
		n := gpu.UniqueLines(m.Mask, &addrs, int(m.Bits)/8, lineSize)
		if n == 0 {
			continue
		}
		if n > gpu.WarpSize {
			n = gpu.WarpSize
		}
		res.Dist[n]++
		res.Total++
		res.WeightedSum += int64(n)

		loc := tr.Locs.Loc(m.Loc)
		k := siteKey{loc: loc}
		s := res.sites[k]
		if s == nil {
			s = &SiteDivergence{Loc: loc, Ctx: m.Ctx}
			res.sites[k] = s
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
	return res
}
