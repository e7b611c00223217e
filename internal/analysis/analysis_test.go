package analysis

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cudaadvisor/internal/ir"
	"cudaadvisor/internal/trace"
)

// mkTrace builds a synthetic single-CTA trace from a compact access list:
// each entry is (element index, isWrite); every access is one lane wide.
func mkTrace(accesses []struct {
	elem  uint64
	write bool
}) *trace.KernelTrace {
	tr := trace.NewKernelTrace("synthetic", 0, [3]int{1, 1, 1}, [3]int{32, 1, 1})
	for _, a := range accesses {
		kind := trace.Load
		if a.write {
			kind = trace.Store
		}
		var rec trace.MemAccess
		rec.CTA = 0
		rec.Mask = 1
		rec.Kind = kind
		rec.Bits = 32
		addRec(tr, rec, [trace.WarpSize]uint64{a.elem * 4})
	}
	return tr
}

// addRec records rec with the given lane addresses. The traces built
// here are unbounded, so AddMem has no error to return.
func addRec(tr *trace.KernelTrace, rec trace.MemAccess, addrs [trace.WarpSize]uint64) {
	if err := tr.AddMem(rec, &addrs); err != nil {
		panic(err)
	}
}

func acc(elems ...uint64) []struct {
	elem  uint64
	write bool
} {
	out := make([]struct {
		elem  uint64
		write bool
	}, len(elems))
	for i, e := range elems {
		out[i].elem = e
	}
	return out
}

func TestReuseDistanceSequence(t *testing.T) {
	// Paper example: A B C C D E F A A A B.
	// Backward distances: all first uses inf; C->C 0; A->A 5 (B C D E F);
	// A->A 0; A->A 0; B->B 5 (C D E F A).
	seq := acc(0, 1, 2, 2, 3, 4, 5, 0, 0, 0, 1)
	res := ReuseDistance(mkTrace(seq), DefaultElementReuse())
	if res.Samples != 11 {
		t.Fatalf("samples = %d, want 11", res.Samples)
	}
	if res.Infinite != 6 {
		t.Errorf("infinite = %d, want 6 (first uses)", res.Infinite)
	}
	if res.Buckets[0] != 3 { // three distance-0 reuses
		t.Errorf("bucket[0] = %d, want 3", res.Buckets[0])
	}
	// Two distance-5 reuses land in bucket "3-8".
	if res.Buckets[2] != 2 {
		t.Errorf("bucket[2] (3-8) = %d, want 2", res.Buckets[2])
	}
	if got := res.MeanFinite(); got != 2.0 { // (0+0+0+5+5)/5
		t.Errorf("mean finite = %g, want 2", got)
	}
}

func TestReuseDistanceWriteRestarts(t *testing.T) {
	// read A, write A, read A: the second read must be infinite
	// (write-evict L1), not distance 0.
	seq := []struct {
		elem  uint64
		write bool
	}{{7, false}, {7, true}, {7, false}}
	res := ReuseDistance(mkTrace(seq), DefaultElementReuse())
	if res.Samples != 2 {
		t.Fatalf("samples = %d, want 2 (writes are not samples)", res.Samples)
	}
	if res.Infinite != 2 {
		t.Errorf("infinite = %d, want 2", res.Infinite)
	}
	if res.FiniteN != 0 {
		t.Errorf("finite samples = %d, want 0", res.FiniteN)
	}
}

func TestReuseDistanceWriteToOtherElementDoesNotRestart(t *testing.T) {
	// read A, write B, read A: distance 0 (writes don't count as reads
	// and only restart their own element).
	seq := []struct {
		elem  uint64
		write bool
	}{{1, false}, {2, true}, {1, false}}
	res := ReuseDistance(mkTrace(seq), DefaultElementReuse())
	if res.Buckets[0] != 1 || res.Infinite != 1 {
		t.Errorf("buckets = %v, infinite = %d", res.Buckets, res.Infinite)
	}
}

func TestReuseDistanceAtomicActsAsReadAndWrite(t *testing.T) {
	tr := trace.NewKernelTrace("a", 0, [3]int{1, 1, 1}, [3]int{32, 1, 1})
	add := func(kind trace.AccessKind, elem uint64) {
		var rec trace.MemAccess
		rec.Mask = 1
		rec.Kind = kind
		rec.Bits = 32
		addRec(tr, rec, [trace.WarpSize]uint64{elem * 4})
	}
	add(trace.Load, 3)   // inf (first)
	add(trace.Atomic, 3) // reads: distance 0; then dirties
	add(trace.Load, 3)   // inf (restarted by atomic's write half)
	res := ReuseDistance(tr, DefaultElementReuse())
	if res.Samples != 3 {
		t.Fatalf("samples = %d, want 3", res.Samples)
	}
	if res.Buckets[0] != 1 || res.Infinite != 2 {
		t.Errorf("bucket0 = %d, infinite = %d, want 1, 2", res.Buckets[0], res.Infinite)
	}
}

func TestReuseDistancePerCTA(t *testing.T) {
	// Same element accessed by two CTAs: no cross-CTA reuse.
	tr := trace.NewKernelTrace("c", 0, [3]int{2, 1, 1}, [3]int{32, 1, 1})
	for cta := int32(0); cta < 2; cta++ {
		var rec trace.MemAccess
		rec.CTA = cta
		rec.Mask = 1
		rec.Kind = trace.Load
		rec.Bits = 32
		addRec(tr, rec, [trace.WarpSize]uint64{400})
	}
	res := ReuseDistance(tr, DefaultElementReuse())
	if res.Infinite != 2 {
		t.Errorf("infinite = %d, want 2 (no cross-CTA reuse)", res.Infinite)
	}
}

func TestReuseDistanceLineGranularity(t *testing.T) {
	// Two addresses in the same 128B line: line-based sees a reuse,
	// element-based does not.
	seq := acc(0, 1) // elements 0 and 1 -> addrs 0 and 4
	elemRes := ReuseDistance(mkTrace(seq), DefaultElementReuse())
	lineRes := ReuseDistance(mkTrace(seq), LineReuse(128))
	if elemRes.FiniteN != 0 {
		t.Errorf("element mode finite = %d, want 0", elemRes.FiniteN)
	}
	if lineRes.FiniteN != 1 || lineRes.Buckets[0] != 1 {
		t.Errorf("line mode finite = %d, bucket0 = %d, want 1, 1", lineRes.FiniteN, lineRes.Buckets[0])
	}
}

func TestReuseDistanceStreaming(t *testing.T) {
	seq := acc(1, 2, 3, 1) // 2 and 3 are streaming; 1 is reused
	res := ReuseDistance(mkTrace(seq), DefaultElementReuse())
	if res.Streaming != 2 {
		t.Errorf("streaming = %d, want 2", res.Streaming)
	}
}

func TestReuseBucketLabels(t *testing.T) {
	want := []string{"0", "1-2", "3-8", "9-32", "33-128", "129-512", ">512", "inf"}
	for i, w := range want {
		if got := ReuseBucketLabel(i); got != w {
			t.Errorf("label[%d] = %q, want %q", i, got, w)
		}
	}
}

// randomTrace builds a pseudo-random multi-warp, multi-CTA trace.
func randomTrace(seed int64, n int) *trace.KernelTrace {
	rng := rand.New(rand.NewSource(seed))
	tr := trace.NewKernelTrace("rand", 0, [3]int{2, 1, 1}, [3]int{64, 1, 1})
	for i := 0; i < n; i++ {
		var rec trace.MemAccess
		rec.CTA = int32(rng.Intn(2))
		rec.Warp = int32(rng.Intn(2))
		rec.Kind = trace.AccessKind(rng.Intn(3))
		rec.Bits = 32
		nLanes := 1 + rng.Intn(4)
		var addrs [trace.WarpSize]uint64
		for l := 0; l < nLanes; l++ {
			lane := rng.Intn(trace.WarpSize)
			rec.Mask |= 1 << uint(lane)
			addrs[lane] = uint64(rng.Intn(24)) * 4
		}
		addRec(tr, rec, addrs)
	}
	return tr
}

func TestReuseDistanceMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		tr := randomTrace(seed, 60)
		fast := ReuseDistance(tr, DefaultElementReuse())
		slow := NaiveReuseDistance(tr, DefaultElementReuse())
		return *fast == *slow
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestReuseDistanceMatchesNaiveLineMode(t *testing.T) {
	f := func(seed int64) bool {
		tr := randomTrace(seed, 40)
		fast := ReuseDistance(tr, LineReuse(32))
		slow := NaiveReuseDistance(tr, LineReuse(32))
		return *fast == *slow
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestReuseMergeIsSum(t *testing.T) {
	a := ReuseDistance(randomTrace(1, 50), DefaultElementReuse())
	b := ReuseDistance(randomTrace(2, 50), DefaultElementReuse())
	var merged ReuseResult
	merged.Merge(a)
	merged.Merge(b)
	if merged.Samples != a.Samples+b.Samples {
		t.Errorf("merged samples = %d, want %d", merged.Samples, a.Samples+b.Samples)
	}
	if merged.Infinite != a.Infinite+b.Infinite {
		t.Errorf("merged infinite wrong")
	}
	max := a.FiniteMax
	if b.FiniteMax > max {
		max = b.FiniteMax
	}
	if merged.FiniteMax != max {
		t.Errorf("merged max = %d, want %d", merged.FiniteMax, max)
	}
}

func TestMemDivergenceDistribution(t *testing.T) {
	tr := trace.NewKernelTrace("md", 0, [3]int{1, 1, 1}, [3]int{32, 1, 1})
	// Record 1: fully coalesced (32 lanes in one 128B line).
	var rec1 trace.MemAccess
	rec1.Mask = 0xFFFFFFFF
	rec1.Kind = trace.Load
	rec1.Bits = 32
	var addrs1, addrs2 [trace.WarpSize]uint64
	for l := 0; l < 32; l++ {
		addrs1[l] = 0x1000 + uint64(4*l)
	}
	// Record 2: fully diverged.
	var rec2 trace.MemAccess
	rec2.Mask = 0xFFFFFFFF
	rec2.Kind = trace.Load
	rec2.Bits = 32
	for l := 0; l < 32; l++ {
		addrs2[l] = uint64(l) * 4096
	}
	rec1.Loc = tr.Locs.Intern(loc("k.cu", 10))
	rec2.Loc = tr.Locs.Intern(loc("k.cu", 20))
	addRec(tr, rec1, addrs1)
	addRec(tr, rec2, addrs2)

	res := MemDivergence(tr, 128)
	if res.Total != 2 {
		t.Fatalf("total = %d", res.Total)
	}
	if res.Dist[1] != 1 || res.Dist[32] != 1 {
		t.Errorf("dist = %v", res.Dist)
	}
	if got := res.Degree(); got != 16.5 {
		t.Errorf("degree = %g, want 16.5", got)
	}
	sites := res.Sites()
	if len(sites) != 2 || sites[0].Loc.Line != 20 {
		t.Errorf("worst site = %+v, want line 20", sites[0])
	}
	if sites[0].MaxLines != 32 || sites[0].Diverged != 1 {
		t.Errorf("site stats = %+v", sites[0])
	}
}

func TestMemDivergenceLineSizeMatters(t *testing.T) {
	tr := trace.NewKernelTrace("md", 0, [3]int{1, 1, 1}, [3]int{32, 1, 1})
	var rec trace.MemAccess
	rec.Mask = 0xFFFFFFFF
	rec.Kind = trace.Load
	rec.Bits = 32
	var addrs [trace.WarpSize]uint64
	for l := 0; l < 32; l++ {
		addrs[l] = uint64(4 * l) // 128 contiguous bytes
	}
	addRec(tr, rec, addrs)
	if got := MemDivergence(tr, 128).Degree(); got != 1 {
		t.Errorf("kepler degree = %g, want 1", got)
	}
	if got := MemDivergence(tr, 32).Degree(); got != 4 {
		t.Errorf("pascal degree = %g, want 4", got)
	}
}

func loc(file string, line int) ir.Loc {
	return ir.Loc{File: file, Line: line}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 || s.Min != 2 || s.Max != 9 {
		t.Errorf("summary = %+v", s)
	}
	if s.StdDev < 2.13 || s.StdDev > 2.15 { // sample stddev ~2.138
		t.Errorf("stddev = %g", s.StdDev)
	}
	empty := Summarize(nil)
	if empty.N != 0 || empty.Mean != 0 {
		t.Errorf("empty summary = %+v", empty)
	}
}

func TestInstanceMetrics(t *testing.T) {
	type inst struct{ v float64 }
	s := InstanceMetrics([]inst{{1}, {2}, {3}}, func(i inst) float64 { return i.v })
	if s.Mean != 2 || s.Min != 1 || s.Max != 3 {
		t.Errorf("summary = %+v", s)
	}
}
