// Package analysis implements CUDAAdvisor's analyzer (Section 3.3): the
// online per-kernel-instance analyses of the case studies — reuse
// distance (Section 4.2 A), memory divergence (B), branch divergence (C)
// — plus the offline statistics that merge kernel instances on the same
// call path.
package analysis

import (
	"fmt"

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

	// EventsRecorded/EventsSeen carry the trace's memory-event coverage
	// (trace.KernelTrace.MemCoverage): when a bounded buffer fell back to
	// sampling, Recorded < Seen and the profile is a deterministic subset.
	EventsRecorded int64
	EventsSeen     int64
}

// Partial reports whether the underlying trace dropped events (sampling
// under a bounded buffer), i.e. this profile covers a subset of the run.
func (r *ReuseResult) Partial() bool { return r.EventsSeen > r.EventsRecorded }

// Coverage returns the recorded share of seen events (1 when complete).
func (r *ReuseResult) Coverage() float64 {
	if !r.Partial() {
		return 1
	}
	return float64(r.EventsRecorded) / float64(r.EventsSeen)
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
	r.EventsRecorded += other.EventsRecorded
	r.EventsSeen += other.EventsSeen
}

// ReuseDistance computes the reuse-distance profile of a kernel trace.
// Per the paper's definition: the distance between two consecutive reads
// of the same element is the number of distinct elements read in between;
// a write to an element restarts its counting (GPU L1 is
// write-no-allocate/write-evict); analysis is per CTA.
func ReuseDistance(tr *trace.KernelTrace, opt ReuseOptions) *ReuseResult {
	res := &ReuseResult{}
	res.EventsRecorded, res.EventsSeen = tr.MemCoverage()
	for _, cta := range groupByCTA(tr, opt.GlobalOnly) {
		analyzeCTAReuse(cta, opt.Granularity, res)
	}
	return res
}

// elemKey maps an access to its element identity: the aligned address at
// the fixed granularity, or at the access's own width in element mode.
func elemKey(addr uint64, bits uint8, gran int) uint64 {
	if gran > 0 {
		return addr / uint64(gran)
	}
	size := uint64(bits) / 8
	if size == 0 {
		size = 1
	}
	return addr &^ (size - 1)
}

// ctaAccess is one per-thread access in CTA program order.
type ctaAccess struct {
	elem  uint64
	write bool
}

// groupByCTA regroups the warp-level trace into per-CTA, per-thread
// access sequences, preserving execution order within each CTA.
func groupByCTA(tr *trace.KernelTrace, globalOnly bool) map[int32][]trace.MemAccess {
	out := make(map[int32][]trace.MemAccess)
	for i := range tr.Mem {
		m := &tr.Mem[i]
		if globalOnly && m.Space != 0 { // ir.Global == 0
			continue
		}
		out[m.CTA] = append(out[m.CTA], *m)
	}
	return out
}

type elemState struct {
	lastTime int64 // BIT position of the last read, -1 if none
	dirty    bool  // written since the last read
	reads    int64 // reads in the current CTA
}

func analyzeCTAReuse(records []trace.MemAccess, gran int, res *ReuseResult) {
	// Count reads to size the Fenwick tree.
	nReads := int64(0)
	for i := range records {
		if records[i].Kind != trace.Store {
			nReads += int64(popcount(records[i].Mask))
		}
	}
	bit := newFenwick(nReads + 1)
	state := make(map[uint64]*elemState)
	t := int64(0)

	singleUse := make(map[uint64]bool) // element -> read exactly once

	for i := range records {
		m := &records[i]
		isWrite := m.Kind == trace.Store
		isAtomic := m.Kind == trace.Atomic
		for lane := 0; lane < trace.WarpSize; lane++ {
			if m.Mask&(1<<uint(lane)) == 0 {
				continue
			}
			elem := elemKey(m.Addrs[lane], m.Bits, gran)
			st := state[elem]
			if st == nil {
				st = &elemState{lastTime: -1}
				state[elem] = st
			}
			if !isWrite { // loads and atomics read
				t++
				res.Samples++
				if st.lastTime >= 0 {
					bit.add(st.lastTime, -1)
					if !st.dirty {
						d := bit.rangeSum(st.lastTime+1, t-1)
						res.Buckets[reuseBucket(d)]++
						res.FiniteSum += d
						res.FiniteN++
						if d <= ReuseBucketBounds[len(ReuseBucketBounds)-1] {
							res.TrimSum += d
							res.TrimN++
						}
						if d > res.FiniteMax {
							res.FiniteMax = d
						}
					} else {
						res.Buckets[NumReuseBuckets-1]++
						res.Infinite++
					}
				} else {
					res.Buckets[NumReuseBuckets-1]++
					res.Infinite++
				}
				bit.add(t, 1)
				st.lastTime = t
				st.dirty = false
				st.reads++
				singleUse[elem] = st.reads == 1
			}
			if isWrite || isAtomic {
				st.dirty = true
			}
		}
	}
	for _, once := range singleUse {
		if once {
			res.Streaming++
		}
	}
}

func popcount(m uint32) int {
	n := 0
	for ; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// fenwick is a Fenwick tree (binary indexed tree) over access timestamps:
// a 1 at position t marks "some element's most recent read was at t", so
// a range sum counts distinct elements read in a window — the O(log n)
// engine behind the reuse-distance analysis.
type fenwick struct {
	tree []int64
}

func newFenwick(n int64) *fenwick { return &fenwick{tree: make([]int64, n+1)} }

func (f *fenwick) add(pos int64, delta int64) {
	for i := pos + 1; i < int64(len(f.tree)); i += i & (-i) {
		f.tree[i] += delta
	}
}

func (f *fenwick) prefix(pos int64) int64 {
	s := int64(0)
	if pos >= int64(len(f.tree))-1 {
		pos = int64(len(f.tree)) - 2
	}
	for i := pos + 1; i > 0; i -= i & (-i) {
		s += f.tree[i]
	}
	return s
}

func (f *fenwick) rangeSum(lo, hi int64) int64 {
	if hi < lo {
		return 0
	}
	return f.prefix(hi) - f.prefix(lo-1)
}

// NaiveReuseDistance is an O(N^2) reference implementation used by the
// property tests to validate the Fenwick-tree engine.
func NaiveReuseDistance(tr *trace.KernelTrace, opt ReuseOptions) *ReuseResult {
	res := &ReuseResult{}
	res.EventsRecorded, res.EventsSeen = tr.MemCoverage()
	for _, records := range groupByCTA(tr, opt.GlobalOnly) {
		var seq []ctaAccess
		for i := range records {
			m := &records[i]
			for lane := 0; lane < trace.WarpSize; lane++ {
				if m.Mask&(1<<uint(lane)) == 0 {
					continue
				}
				elem := elemKey(m.Addrs[lane], m.Bits, opt.Granularity)
				if m.Kind != trace.Store {
					seq = append(seq, ctaAccess{elem: elem})
				}
				if m.Kind != trace.Load {
					seq = append(seq, ctaAccess{elem: elem, write: true})
				}
			}
		}
		naiveCTAReuse(seq, res)
	}
	return res
}

func naiveCTAReuse(seq []ctaAccess, res *ReuseResult) {
	reads := make(map[uint64]int64)
	for i, a := range seq {
		if a.write {
			continue
		}
		reads[a.elem]++
		res.Samples++
		// Scan backwards for the previous read; a write to the same
		// element in between makes the distance infinite.
		prev := -1
		dirty := false
		for j := i - 1; j >= 0; j-- {
			if seq[j].elem != a.elem {
				continue
			}
			if seq[j].write {
				dirty = true
				break
			}
			prev = j
			break
		}
		if prev < 0 || dirty {
			res.Buckets[NumReuseBuckets-1]++
			res.Infinite++
			continue
		}
		distinct := map[uint64]bool{}
		for j := prev + 1; j < i; j++ {
			if !seq[j].write && seq[j].elem != a.elem {
				distinct[seq[j].elem] = true
			}
		}
		d := int64(len(distinct))
		res.Buckets[reuseBucket(d)]++
		res.FiniteSum += d
		res.FiniteN++
		if d <= ReuseBucketBounds[len(ReuseBucketBounds)-1] {
			res.TrimSum += d
			res.TrimN++
		}
		if d > res.FiniteMax {
			res.FiniteMax = d
		}
	}
	for _, n := range reads {
		if n == 1 {
			res.Streaming++
		}
	}
	return
}
