package analysis

import (
	"math/rand"
	"reflect"
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

// addRec records rec with the given lane addresses.
func addRec(tr *trace.KernelTrace, rec trace.MemAccess, addrs [trace.WarpSize]uint64) {
	tr.AddMem(rec, &addrs)
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

// TestSitesBreakTiesOnColumn: two sites a builder-made kernel puts on
// one line, with equal degree, list in column order every time — the
// order used to be the map's (the code-centric view prints the top
// three sites).
func TestSitesBreakTiesOnColumn(t *testing.T) {
	tr := trace.NewKernelTrace("tie", 0, [3]int{1, 1, 1}, [3]int{32, 1, 1})
	for _, space := range []ir.Space{ir.Global, ir.Shared} {
		for _, col := range []int{9, 3} {
			rec := trace.MemAccess{Mask: 0xF, Kind: trace.Load, Space: space, Bits: 32,
				Loc: tr.Locs.Intern(ir.Loc{File: "tie.cu", Line: 7, Col: col})}
			addRec(tr, rec, [trace.WarpSize]uint64{0, 4, 8, 12})
		}
	}
	for i := 0; i < 50; i++ {
		md, sb := MemDivergence(tr, 128).Sites(), SharedBankConflicts(tr).Sites()
		if len(md) != 2 || md[0].Loc.Col != 3 || md[1].Loc.Col != 9 {
			t.Fatalf("listing %d: memory-divergence sites at columns %d, %d; want 3, 9", i, md[0].Loc.Col, md[1].Loc.Col)
		}
		if len(sb) != 2 || sb[0].Loc.Col != 3 || sb[1].Loc.Col != 9 {
			t.Fatalf("listing %d: bank-conflict sites at columns %d, %d; want 3, 9", i, sb[0].Loc.Col, sb[1].Loc.Col)
		}
	}
}

// TestPerContextViews: besides their aggregates the passes keep what the
// views render. Two kernels reach one device-function location through
// different contexts: the per-context sums keep the two apart across
// Merge and add up to the aggregate, ids no table holds stay visible,
// and a site's context and sample address are its first execution's.
func TestPerContextViews(t *testing.T) {
	shared := ir.Loc{File: "dev.cu", Line: 3, Col: 1}
	kernel := func(name string, ctx int32, base uint64) *trace.KernelTrace {
		tr := trace.NewKernelTrace(name, 0, [3]int{2, 1, 1}, [3]int{32, 1, 1})
		at := tr.Locs.Intern(shared)
		// CTA 1 runs first, under a deeper context: trace order, not CTA
		// order, picks the representative.
		for i, cta := range []int32{1, 0, 0} {
			rec := trace.MemAccess{CTA: cta, Mask: 0xF0, Kind: trace.Load, Space: ir.Global, Bits: 32, Loc: at, Ctx: ctx + int32(i)}
			var addrs [trace.WarpSize]uint64
			for l := 4; l < 8; l++ {
				addrs[l] = base + uint64(l)*256 // four lines, and CTA 0 re-reads its elements
			}
			addRec(tr, rec, addrs)
		}
		addRec(tr, trace.MemAccess{Mask: 1, Kind: trace.Load, Space: ir.Global, Bits: 32, Loc: 99, Ctx: -7}, [trace.WarpSize]uint64{base})
		tr.Blocks = append(tr.Blocks,
			trace.BlockExec{Mask: 1, InitMask: 3, Loc: at, Ctx: ctx},
			trace.BlockExec{Mask: 1, InitMask: 3, Loc: at, Ctx: ctx},
			trace.BlockExec{Mask: 3, InitMask: 3, Loc: at, Ctx: ctx + 1})
		return tr
	}
	a, b := kernel("a", 10, 0x1000), kernel("b", 20, 0x9000)

	var md MemDivResult
	var bd BranchDivResult
	for _, tr := range []*trace.KernelTrace{a, b} {
		md.Merge(MemDivergence(tr, 128))
		bd.Merge(BranchDivergence(tr, nil))
	}
	wantLines := map[ContextSite]int64{
		{10, shared}: 4, {11, shared}: 4, {12, shared}: 4, {20, shared}: 4, {21, shared}: 4, {22, shared}: 4,
		{-7, trace.UnknownLoc}: 2,
	}
	if got := md.LinesByContext(); !reflect.DeepEqual(got, wantLines) || md.WeightedSum != 26 {
		t.Errorf("lines by context = %v (total %d), want %v (26)", got, md.WeightedSum, wantLines)
	}
	wantDiv := map[ContextSite]int64{{10, shared}: 2, {20, shared}: 2}
	if got := bd.DivergentByContext(); !reflect.DeepEqual(got, wantDiv) || bd.Divergent != 4 {
		t.Errorf("divergent by context = %v (total %d), want %v (4)", got, bd.Divergent, wantDiv)
	}
	if s := md.Sites()[0]; s.Loc != shared || s.Ctx != 10 || s.SampleAddr() != 0x1000+4*256 {
		t.Errorf("worst site %+v: want kernel a's first execution (context 10, lane 4's address)", *s)
	}
	for _, naive := range []bool{false, true} {
		sites := ReuseBySite(b, DefaultElementReuse(), nil)
		if naive {
			sites = NaiveReuseBySite(b, DefaultElementReuse())
		}
		if s := sites[shared]; s == nil || s.Ctx != 20 || s.Reused != 4 {
			t.Errorf("naive=%v: reuse site %+v, want context 20 (the first access in the trace) and 4 reused loads", naive, s)
		}
		if s := sites[trace.UnknownLoc]; s == nil || s.Ctx != -7 {
			t.Errorf("naive=%v: un-interned site %+v, want it kept under context -7", naive, s)
		}
	}
}
