// Package analysis implements CUDAAdvisor's analyzer (Section 3.3): the
// online per-kernel-instance analyses of the case studies — reuse
// distance (Section 4.2 A), memory divergence (B), branch divergence (C)
// — plus the offline statistics that merge kernel instances on the same
// call path.
package analysis

import (
	"fmt"
	"math/bits"

	"cudaadvisor/internal/ir"
	"cudaadvisor/internal/trace"
)

// ReuseBucketBounds are the inclusive upper bounds of the finite
// reuse-distance histogram buckets used in Figure 4; distances above the
// last bound fall in the ">512" bucket, and no-reuse accesses in "inf".
var ReuseBucketBounds = []int64{0, 2, 8, 32, 128, 512}

// NumReuseBuckets is len(finite buckets) + the >last bucket + inf.
const NumReuseBuckets = 8

// ReuseBucketLabel names histogram bucket i.
func ReuseBucketLabel(i int) string {
	switch {
	case i == 0:
		return "0"
	case i < len(ReuseBucketBounds):
		return fmt.Sprintf("%d-%d", ReuseBucketBounds[i-1]+1, ReuseBucketBounds[i])
	case i == len(ReuseBucketBounds):
		return fmt.Sprintf(">%d", ReuseBucketBounds[len(ReuseBucketBounds)-1])
	default:
		return "inf"
	}
}

// reuseBucket maps a distance (-1 = infinite) to its bucket index.
func reuseBucket(d int64) int {
	if d < 0 {
		return NumReuseBuckets - 1
	}
	for i, ub := range ReuseBucketBounds {
		if d <= ub {
			return i
		}
	}
	return len(ReuseBucketBounds)
}

// ReuseOptions configure the reuse-distance analysis.
type ReuseOptions struct {
	// Granularity is the element size in bytes; the cache line size gives
	// the paper's line-based model. Zero selects the memory-element-based
	// model: each access's element is its own aligned address at its own
	// access width, so byte flags in one word stay distinct elements.
	Granularity int
	// GlobalOnly restricts the analysis to global-memory records (the
	// default behaviour of the paper's case study).
	GlobalOnly bool
}

// DefaultElementReuse is the memory-element-based model.
func DefaultElementReuse() ReuseOptions { return ReuseOptions{GlobalOnly: true} }

// LineReuse is the cache-line-based model.
func LineReuse(lineSize int) ReuseOptions {
	return ReuseOptions{Granularity: lineSize, GlobalOnly: true}
}

// ReuseResult is the aggregated reuse-distance profile of one kernel
// instance, accumulated per CTA as the paper's tool does (traces are
// regrouped by CTA id before analysis).
type ReuseResult struct {
	Buckets [NumReuseBuckets]int64
	Samples int64 // total read accesses analysed
	// Infinite counts no-reuse accesses: never reused by the same CTA, or
	// invalidated by an intervening write (write-evict L1).
	Infinite  int64
	FiniteSum int64
	FiniteMax int64
	FiniteN   int64
	// TrimSum/TrimN cover finite distances up to the last histogram bound
	// (512): the outlier-trimmed estimator for the bypassing model.
	TrimSum int64
	TrimN   int64
	// Streaming counts elements that were accessed exactly once by their
	// CTA (never reused at all).
	Streaming int64

	Events // the trace's memory-event coverage
}

// Events is the coverage every result carries of the trace buffer it was
// derived from (trace.KernelTrace.MemCoverage, BlocksCoverage): when a
// bounded buffer fell back to sampling or flushed, Recorded < Seen and
// the profile is a deterministic subset of the run.
type Events struct {
	EventsRecorded int64
	EventsSeen     int64
}

// Add accumulates the coverage of one more trace, or of a merged result.
func (e *Events) Add(recorded, seen int64) {
	e.EventsRecorded += recorded
	e.EventsSeen += seen
}

// Partial reports whether the underlying trace dropped events.
func (e Events) Partial() bool { return e.EventsSeen > e.EventsRecorded }

// Coverage returns the recorded share of seen events (1 when complete).
func (e Events) Coverage() float64 {
	if !e.Partial() {
		return 1
	}
	return float64(e.EventsRecorded) / float64(e.EventsSeen)
}

// Fraction returns bucket i's share of all samples.
func (r *ReuseResult) Fraction(i int) float64 {
	if r.Samples == 0 {
		return 0
	}
	return float64(r.Buckets[i]) / float64(r.Samples)
}

// MeanFinite is the average finite reuse distance (the R.D. term of the
// bypassing model, Eq. 1).
func (r *ReuseResult) MeanFinite() float64 {
	if r.FiniteN == 0 {
		return 0
	}
	return float64(r.FiniteSum) / float64(r.FiniteN)
}

// TrimmedMean is the average finite reuse distance with extreme data
// points (distances beyond the last histogram bound) eliminated — the
// estimator variant Section 4.2-D mentions.
func (r *ReuseResult) TrimmedMean() float64 {
	if r.TrimN == 0 {
		return 0
	}
	return float64(r.TrimSum) / float64(r.TrimN)
}

// InfiniteFraction is the no-reuse share of all samples.
func (r *ReuseResult) InfiniteFraction() float64 {
	if r.Samples == 0 {
		return 0
	}
	return float64(r.Infinite) / float64(r.Samples)
}

// Merge accumulates other into r (for aggregating kernel instances).
func (r *ReuseResult) Merge(other *ReuseResult) {
	for i := range r.Buckets {
		r.Buckets[i] += other.Buckets[i]
	}
	r.Samples += other.Samples
	r.Infinite += other.Infinite
	r.FiniteSum += other.FiniteSum
	r.FiniteN += other.FiniteN
	r.TrimSum += other.TrimSum
	r.TrimN += other.TrimN
	if other.FiniteMax > r.FiniteMax {
		r.FiniteMax = other.FiniteMax
	}
	r.Streaming += other.Streaming
	r.Add(other.EventsRecorded, other.EventsSeen)
}

// ReuseDistance computes the reuse-distance profile of a kernel trace.
// Per the paper's definition: the distance between two consecutive reads
// of the same element is the number of distinct elements read in between;
// a write to an element restarts its counting (GPU L1 is
// write-no-allocate/write-evict); analysis is per CTA.
func ReuseDistance(tr *trace.KernelTrace, opt ReuseOptions) *ReuseResult {
	res := &ReuseResult{}
	res.Add(tr.MemCoverage())
	walkReuse(tr, opt, res, nil)
	return res
}

// Reuse is ReuseDistance and ReuseBySite from one traversal of tr.
func Reuse(tr *trace.KernelTrace, opt ReuseOptions) (*ReuseResult, map[ir.Loc]*SiteReuse) {
	res := &ReuseResult{}
	res.Add(tr.MemCoverage())
	sites := newSiteTable(tr)
	walkReuse(tr, opt, res, sites)
	return res, sitesByLoc(tr, sites)
}

// elemKey maps an access to its element identity: the aligned address at
// the fixed granularity, or at the access's own width in element mode.
func elemKey(addr uint64, width uint8, gran int) uint64 {
	if gran > 0 {
		return addr / uint64(gran)
	}
	size := uint64(width) / 8
	if size == 0 {
		size = 1
	}
	return addr &^ (size - 1)
}

// groupByCTA regroups the warp-level trace by CTA with one counting
// sort: per CTA id (they are dense), the indices into tr.Mem of that
// CTA's records in execution order.
func groupByCTA(tr *trace.KernelTrace, globalOnly bool) [][]int32 {
	var counts []int32
	keep := func(m *trace.MemAccess) bool { return !globalOnly || m.Space == 0 } // ir.Global == 0
	total := 0
	for i := range tr.Mem {
		if m := &tr.Mem[i]; keep(m) {
			for int(m.CTA) >= len(counts) {
				counts = append(counts, 0)
			}
			counts[m.CTA]++
			total++
		}
	}
	order := make([]int32, total)
	out := make([][]int32, len(counts))
	for cta, n := 0, 0; cta < len(counts); cta++ {
		out[cta] = order[n : n : n+int(counts[cta])]
		n += int(counts[cta])
	}
	for i := range tr.Mem {
		if m := &tr.Mem[i]; keep(m) {
			out[m.CTA] = append(out[m.CTA], int32(i))
		}
	}
	return out
}

// elemState is what the walk knows about one element of the current
// CTA, stored inline in the walker's table.
type elemState struct {
	elem     uint64
	cta      uint32 // walker.cta when the slot was claimed; any other value means free
	lastTime int32  // timestamp of the last read, 0 if none
	lastSite int32  // siteIndex of the last read
	dirty    bool   // written since the last read
	reread   bool   // read more than once (maintained for the histogram only)
}

// reuseWalker holds what one derivation reuses across its CTAs: the
// timestamp tree and an open-addressed, linearly probed table of element
// state (slots of earlier CTAs are free by their stamp, never cleared).
type reuseWalker struct {
	slots []elemState // power-of-two length, at most half full
	live  int         // slots claimed by the current CTA
	cta   uint32      // stamp of the current CTA, from 1
	tree  fenwick
}

// state returns the slot of elem in the current CTA, claiming one (zero
// state) at its first access.
func (w *reuseWalker) state(elem uint64) *elemState {
	if 2*w.live >= len(w.slots) {
		old := w.slots
		w.slots = make([]elemState, max(1024, 2*len(old)))
		w.live = 0
		for i := range old {
			if old[i].cta == w.cta {
				*w.state(old[i].elem) = old[i]
			}
		}
	}
	mask := len(w.slots) - 1 // the hash's top log2(len) bits pick the first slot
	for i := int(elem * 0x9E3779B97F4A7C15 >> bits.LeadingZeros64(uint64(mask))); ; i = (i + 1) & mask {
		s := &w.slots[i]
		if s.cta != w.cta {
			*s = elemState{elem: elem, cta: w.cta}
			w.live++
			return s
		}
		if s.elem == elem {
			return s
		}
	}
}

// onWalk, set by a test only, is told of every traversal walkReuse starts.
var onWalk func(ReuseOptions)

// walkReuse is the one traversal behind Reuse, ReuseDistance and
// ReuseBySite: every CTA's lane accesses in execution order under the
// per-CTA, write-restart model. With res set it accumulates the distance
// histogram (the timestamp tree is only maintained then); with sites set
// (a newSiteTable), per-site forward reuse: when an element is re-read
// with no intervening write, the site of the PREVIOUS read gets the
// credit — its load brought in data worth caching.
func walkReuse(tr *trace.KernelTrace, opt ReuseOptions, res *ReuseResult, sites []SiteReuse) {
	if onWalk != nil {
		onWalk(opt)
	}
	var w reuseWalker
	var addrs [trace.WarpSize]uint64
	for _, records := range groupByCTA(tr, opt.GlobalOnly) {
		w.cta++
		w.live = 0
		if res != nil {
			w.tree.reset(trace.WarpSize * len(records)) // a timestamp per read, at most
		}
		// t is the timestamp of the newest read, marks the number of
		// elements read so far: each has one mark in the tree.
		t, marks := int32(0), int32(0)
		for _, i := range records {
			m := &tr.Mem[i]
			tr.LaneAddrs(m, &addrs)
			site := siteIndex(tr, m.Loc)
			var st *elemState
			for rest := m.Mask; rest != 0; rest &= rest - 1 {
				// Neighbouring lanes often share an element (a broadcast,
				// a line): look it up once.
				if elem := elemKey(addrs[bits.TrailingZeros32(rest)], m.Bits, opt.Granularity); st == nil || st.elem != elem {
					st = w.state(elem)
				}
				if m.Kind != trace.Store { // loads and atomics read
					reused := st.lastTime > 0 && !st.dirty
					// Re-reading the element read last moves nothing: its
					// mark is already the newest, at distance 0.
					newest := st.lastTime == t && t > 0
					if res != nil {
						res.Samples++
						switch {
						case st.lastTime == 0:
							res.Streaming++ // read exactly once so far
							marks++
						case !st.reread:
							res.Streaming--
							st.reread = true
						}
						switch {
						case !reused:
							res.Buckets[NumReuseBuckets-1]++
							res.Infinite++
						case newest:
							res.addFinite(0)
						default: // the marks after this element's own
							res.addFinite(int64(marks - w.tree.prefix(int(st.lastTime))))
						}
						if !newest {
							if st.lastTime > 0 {
								w.tree.add(int(st.lastTime), -1)
							}
							w.tree.add(int(t+1), 1)
						}
					}
					if sites != nil {
						sites[site].Samples++
						if reused {
							sites[st.lastSite].Reused++
						}
					}
					if !newest {
						t++
					}
					st.lastTime, st.lastSite, st.dirty = t, site, false
				}
				if m.Kind != trace.Load { // stores and atomics write
					st.dirty = true
				}
			}
		}
	}
}

// addFinite accounts one read at finite reuse distance d.
func (r *ReuseResult) addFinite(d int64) {
	r.Buckets[reuseBucket(d)]++
	r.FiniteSum += d
	r.FiniteN++
	if d <= ReuseBucketBounds[len(ReuseBucketBounds)-1] {
		r.TrimSum += d
		r.TrimN++
	}
	if d > r.FiniteMax {
		r.FiniteMax = d
	}
}

// fenwick is a Fenwick tree (binary indexed tree) over access timestamps:
// a 1 at position t marks "some element's most recent read was at t", so
// the marks after a position count the distinct elements read since —
// the O(log n) engine behind the reuse-distance analysis.
type fenwick []int32

// reset empties the tree and sizes it for timestamps 1..n.
func (f *fenwick) reset(n int) {
	if cap(*f) <= n {
		*f = make(fenwick, n+1)
		return
	}
	*f = (*f)[:n+1]
	clear(*f)
}

// add moves the count at timestamp t by delta.
func (f fenwick) add(t int, delta int32) {
	for ; t < len(f); t += t & (-t) {
		f[t] += delta
	}
}

// prefix counts the marks at timestamps 1..t.
func (f fenwick) prefix(t int) int32 {
	s := int32(0)
	for ; t > 0; t -= t & (-t) {
		s += f[t]
	}
	return s
}

// ctaAccess is one per-thread access in CTA program order.
type ctaAccess struct {
	elem  uint64
	site  int32 // siteIndex
	write bool
}

// naiveReuse is the O(N^2) reference the property tests validate the
// walker against: it spells out each CTA's per-thread access sequence
// (an atomic is a read, then a write) and scans backwards from every
// read for the read it reuses.
func naiveReuse(tr *trace.KernelTrace, opt ReuseOptions) (*ReuseResult, map[ir.Loc]*SiteReuse) {
	res := &ReuseResult{}
	res.Add(tr.MemCoverage())
	sites := newSiteTable(tr)
	var addrs [trace.WarpSize]uint64
	for _, records := range groupByCTA(tr, opt.GlobalOnly) {
		var seq []ctaAccess
		for _, i := range records {
			m := &tr.Mem[i]
			tr.LaneAddrs(m, &addrs)
			for lane := 0; lane < trace.WarpSize; lane++ {
				if m.Mask&(1<<uint(lane)) == 0 {
					continue
				}
				a := ctaAccess{elem: elemKey(addrs[lane], m.Bits, opt.Granularity), site: siteIndex(tr, m.Loc)}
				if m.Kind != trace.Store {
					seq = append(seq, a)
				}
				if m.Kind != trace.Load {
					a.write = true
					seq = append(seq, a)
				}
			}
		}
		reads := make(map[uint64]int64)
		for i, a := range seq {
			if a.write {
				continue
			}
			reads[a.elem]++
			res.Samples++
			sites[a.site].Samples++
			// The previous access to the element is the read this one
			// reuses, unless it is a write: then the distance is infinite.
			prev := i - 1
			for prev >= 0 && seq[prev].elem != a.elem {
				prev--
			}
			if prev < 0 || seq[prev].write {
				res.Buckets[NumReuseBuckets-1]++
				res.Infinite++
				continue
			}
			sites[seq[prev].site].Reused++
			distinct := map[uint64]bool{}
			for j := prev + 1; j < i; j++ {
				if !seq[j].write {
					distinct[seq[j].elem] = true
				}
			}
			res.addFinite(int64(len(distinct)))
		}
		for _, n := range reads {
			if n == 1 {
				res.Streaming++
			}
		}
	}
	return res, sitesByLoc(tr, sites)
}

// NaiveReuseDistance is the O(N^2) reference for ReuseDistance.
func NaiveReuseDistance(tr *trace.KernelTrace, opt ReuseOptions) *ReuseResult {
	res, _ := naiveReuse(tr, opt)
	return res
}

// NaiveReuseBySite is the O(N^2) reference for ReuseBySite.
func NaiveReuseBySite(tr *trace.KernelTrace, opt ReuseOptions) map[ir.Loc]*SiteReuse {
	_, sites := naiveReuse(tr, opt)
	return sites
}
