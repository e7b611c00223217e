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
	"cudaadvisor/internal/runner"
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

// ReuseOptions configure the reuse-distance analysis, which reads the
// global-memory records of a trace (the paper's case study).
type ReuseOptions struct {
	// Granularity is the element size in bytes; the cache line size gives
	// the paper's line-based model. Zero selects the memory-element-based
	// model: each access's element is its own aligned address at its own
	// access width, so byte flags in one word stay distinct elements.
	Granularity int
}

// DefaultElementReuse is the memory-element-based model.
func DefaultElementReuse() ReuseOptions { return ReuseOptions{} }

// LineReuse is the cache-line-based model.
func LineReuse(lineSize int) ReuseOptions {
	return ReuseOptions{Granularity: lineSize}
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
	FiniteN   int64
	// Streaming counts elements that were accessed exactly once by their
	// CTA (never reused at all).
	Streaming int64

	Events // the trace's memory-event coverage
}

// Events is the coverage every result carries of the trace buffer it was
// derived from (trace.KernelTrace.MemCoverage, BlocksCoverage): when a
// bounded buffer fell back to sampling, Recorded < Seen and
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
	r.Streaming += other.Streaming
	r.Add(other.EventsRecorded, other.EventsSeen)
}

// ReuseDistance computes the reuse-distance profile of a kernel trace.
// Per the paper's definition: the distance between two consecutive reads
// of the same element is the number of distinct elements read in between;
// a write to an element restarts its counting (GPU L1 is
// write-no-allocate/write-evict); analysis is per CTA.
func ReuseDistance(tr *trace.KernelTrace, opt ReuseOptions) *ReuseResult {
	return walkReuse(tr, opt, true, false, nil).res
}

// Reuse is ReuseDistance and ReuseBySite from one traversal of tr, its
// CTA ranges walked on pool (see fanOut).
func Reuse(tr *trace.KernelTrace, opt ReuseOptions, pool *runner.Pool) (*ReuseResult, map[ir.Loc]*SiteReuse) {
	w := walkReuse(tr, opt, true, true, pool)
	return w.res, sitesByLoc(tr, w.sites)
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
// CTA's global-memory records in execution order.
func groupByCTA(tr *trace.KernelTrace) [][]int32 {
	var counts []int32
	keep := func(m *trace.MemAccess) bool { return m.Space == ir.Global }
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

// reuseWalker holds what one walk reuses across its CTAs: the set of
// superseded timestamps and an open-addressed, linearly probed table of
// element state (slots of earlier CTAs are free by their stamp, never
// cleared), and what it accumulates into.
type reuseWalker struct {
	slots []elemState // power-of-two length, at most half full
	live  int         // slots claimed by the current CTA
	cta   uint32      // stamp of the current CTA, from 1
	dead  deadSet
	t     int32 // the timestamp of the current CTA's newest read

	res   *ReuseResult // the histogram, when asked for
	sites []SiteReuse  // the site table, when asked for
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

// access accounts one lane's access of kind to st's element by site:
// loads and atomics read it, stores and atomics write it.
//
// Every read but a re-read of the newest element takes the next
// timestamp, and a re-read supersedes the element's old one. So the
// distinct elements read since an element's last read at L are the
// timestamps after L that are still some element's last read: t − L,
// less the superseded ones in (L, t].
func (w *reuseWalker) access(st *elemState, kind trace.AccessKind, site int32) {
	if kind != trace.Store {
		reused := st.lastTime > 0 && !st.dirty
		// Re-reading the element read last moves nothing: its timestamp
		// is already the newest, at distance 0.
		newest := st.lastTime == w.t && w.t > 0
		if res := w.res; res != nil {
			res.Samples++
			switch {
			case st.lastTime == 0:
				res.Streaming++ // read exactly once so far
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
			default:
				res.addFinite(int64(w.t - st.lastTime - w.dead.count(st.lastTime, w.t)))
			}
			if !newest && st.lastTime > 0 {
				w.dead.kill(st.lastTime)
			}
		}
		if w.sites != nil {
			w.sites[site].Samples++
			if reused {
				w.sites[st.lastSite].Reused++
			}
		}
		if !newest {
			w.t++
		}
		st.lastTime, st.lastSite, st.dirty = w.t, site, false
	}
	if kind != trace.Load {
		st.dirty = true
	}
}

// lanes accounts n lanes in a row of one record, of kind and by site,
// that access st's element. An atomic's or a store's keep the per-lane
// rule. A load's after the first re-read the newest element, each at
// distance 0 and moving no timestamp, so they fold into one O(1) update:
// what n-1 more calls of access would do.
func (w *reuseWalker) lanes(st *elemState, kind trace.AccessKind, site int32, n int64) {
	if kind != trace.Load {
		for ; n > 0; n-- {
			w.access(st, kind, site)
		}
		return
	}
	w.access(st, kind, site)
	if n--; n == 0 {
		return
	}
	if res := w.res; res != nil {
		res.Samples += n
		if !st.reread {
			res.Streaming--
			st.reread = true
		}
		res.Buckets[0] += n
		res.FiniteN += n
	}
	if w.sites != nil {
		w.sites[site].Samples += n
		w.sites[site].Reused += n
	}
}

// onWalk, set by a test only, is told of every traversal walkReuse starts.
var onWalk func(ReuseOptions)

// reuseShare is what a walk over some CTAs accumulates: the distance
// histogram and the site table (newSiteTable), each nil when not asked
// for.
type reuseShare struct {
	res   *ReuseResult
	sites []SiteReuse
}

// merge adds s, the share of later CTAs, into r.
func (r reuseShare) merge(s reuseShare) {
	if r.res != nil {
		r.res.Merge(s.res)
	}
	for i := range r.sites {
		r.sites[i].Samples += s.sites[i].Samples
		r.sites[i].Reused += s.sites[i].Reused
	}
}

// walkReuse is the one traversal behind Reuse, ReuseDistance and
// ReuseBySite: every CTA's lane accesses in execution order under the
// per-CTA, write-restart model, with the histogram (hist) or the site
// table (bySite) or both. The CTAs split into ranges walked on pool,
// each with its own walker, and the ranges merge in order: every count
// restarts per CTA, so the sums are exact. The coverage is the trace's,
// added once.
func walkReuse(tr *trace.KernelTrace, opt ReuseOptions, hist, bySite bool, pool *runner.Pool) reuseShare {
	if onWalk != nil {
		onWalk(opt)
	}
	ctas := groupByCTA(tr)
	w := fanOut(pool, ctaBounds(pool, ctas), func(lo, hi int) reuseShare {
		var s reuseShare
		if hist {
			s.res = &ReuseResult{}
		}
		if bySite {
			s.sites = newSiteTable(tr)
		}
		walkCTAs(tr, opt, ctas[lo:hi], s.res, s.sites)
		return s
	}, reuseShare.merge)
	if hist {
		w.res.Add(tr.MemCoverage())
	}
	return w
}

// walkCTAs walks the given CTA groups of tr. With res set it accumulates
// the distance histogram (the superseded timestamps are only kept then);
// with sites set, per-site forward reuse: when an element is re-read
// with no intervening write, the site of the PREVIOUS read gets the
// credit — its load brought in data worth caching.
//
// Lanes of a record that access the element the lane before did go to
// lanes as one run, and a uniform record is one run that is never
// expanded.
func walkCTAs(tr *trace.KernelTrace, opt ReuseOptions, ctas [][]int32, res *ReuseResult, sites []SiteReuse) {
	w := reuseWalker{res: res, sites: sites}
	var addrs [trace.WarpSize]uint64
	for _, records := range ctas {
		w.cta++
		w.live, w.t = 0, 0
		if res != nil {
			w.dead.reset(trace.WarpSize * len(records)) // a timestamp per read, at most
		}
		for _, i := range records {
			m := &tr.Mem[i]
			site := siteIndex(tr, m.Loc)
			if a, ok := tr.Uniform(m); ok {
				w.lanes(w.state(elemKey(a, m.Bits, opt.Granularity)), m.Kind, site, int64(bits.OnesCount32(m.Mask)))
				continue
			}
			tr.LaneAddrs(m, &addrs)
			var st *elemState
			n := int64(0) // lanes in a row that access st's element
			for rest := m.Mask; rest != 0; rest &= rest - 1 {
				// Neighbouring lanes often share an element (a broadcast,
				// a line): look it up once. A run is accounted before the
				// next lookup, which may move the table.
				elem := elemKey(addrs[bits.TrailingZeros32(rest)], m.Bits, opt.Granularity)
				if st != nil && st.elem == elem {
					n++
					continue
				}
				if st != nil {
					w.lanes(st, m.Kind, site, n)
				}
				st, n = w.state(elem), 1
			}
			if st != nil {
				w.lanes(st, m.Kind, site, n)
			}
		}
	}
}

// addFinite accounts one read at finite reuse distance d.
func (r *ReuseResult) addFinite(d int64) {
	r.Buckets[reuseBucket(d)]++
	r.FiniteSum += d
	r.FiniteN++
}

// deadSet is the set of superseded read timestamps of one CTA: a bit
// per timestamp, and a count per block of 1<<blockShift words, so that a
// death costs one bit and one count, and a query over a long range sums
// whole blocks instead of words.
type deadSet struct {
	words  []uint64
	blocks []int32
}

// blockShift is log2 of the words a block counts. Only a test lowers it.
var blockShift = 4

// reset empties the set and sizes it for timestamps 0..n.
func (d *deadSet) reset(n int) {
	words := n>>6 + 2 // count reads the word of n+1
	d.words = append(d.words[:0], make([]uint64, words)...)
	d.blocks = append(d.blocks[:0], make([]int32, (words-1)>>blockShift+1)...)
}

// kill marks timestamp t superseded.
func (d *deadSet) kill(t int32) {
	d.words[t>>6] |= 1 << (t & 63)
	d.blocks[t>>6>>blockShift]++
}

// count returns the superseded timestamps in (lo, hi].
func (d *deadSet) count(lo, hi int32) int32 {
	a, b := int(lo)+1, int(hi)+1 // the bits [a, b)
	wa, wb := a>>6, b>>6
	first, last := d.words[wa]&(^uint64(0)<<(a&63)), d.words[wb]&(1<<(b&63)-1)
	if wa == wb {
		return int32(bits.OnesCount64(first & last))
	}
	n := bits.OnesCount64(first) + bits.OnesCount64(last)
	mask := 1<<blockShift - 1
	i := wa + 1
	for ; i < wb && i&mask != 0; i++ {
		n += bits.OnesCount64(d.words[i])
	}
	for ; i+mask < wb; i += mask + 1 {
		n += int(d.blocks[i>>blockShift])
	}
	for ; i < wb; i++ {
		n += bits.OnesCount64(d.words[i])
	}
	return int32(n)
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
	for _, records := range groupByCTA(tr) {
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
