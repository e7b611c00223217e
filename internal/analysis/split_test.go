package analysis

import (
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"cudaadvisor/internal/instrument"
	"cudaadvisor/internal/runner"
	"cudaadvisor/internal/trace"
)

// randomBounds cuts [0, n) at a random number of distinct random points:
// the bounds of the ranges, first 0 and last n.
func randomBounds(rng *rand.Rand, n int) []int {
	b := []int{0, n}
	for _, cut := range rng.Perm(n + 1)[:rng.Intn(min(n, 9)+1)] {
		if cut > 0 && cut < n {
			b = append(b, cut)
		}
	}
	sort.Ints(b)
	return b
}

// splitTrace is a mixedTrace over eight CTAs whose records carry random
// contexts, so that the representative a merge keeps is seen, plus block
// records over three blocks at two sites.
func splitTrace(seed int64) *trace.KernelTrace {
	rng := rand.New(rand.NewSource(seed))
	tr := mixedTrace(seed, 120, 8)
	for i := range tr.Mem {
		tr.Mem[i].Ctx = int32(rng.Intn(5))
	}
	for i := 0; i < 80; i++ {
		tr.Blocks = append(tr.Blocks, trace.BlockExec{
			CTA: int32(rng.Intn(8)), Mask: rng.Uint32() | 1, InitMask: 0xFFFFFFFF >> uint(rng.Intn(2)),
			Block: int32(rng.Intn(3)), Loc: int32(rng.Intn(2)), Ctx: int32(rng.Intn(5)),
		})
	}
	return tr
}

// TestSplitDerivationsMatchWhole cuts random traces into random ranges —
// of CTAs for the reuse walk, of records for memory divergence, branch
// divergence and bank conflicts — derives each range on its own (serially
// and on a pool) and merges the ranges in order: every result equals the
// one loop over the whole trace, per-site representatives and sample
// addresses included, and the walk equals the O(N^2) references too.
func TestSplitDerivationsMatchWhole(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	tables := &instrument.Tables{Blocks: []instrument.BlockInfo{{Func: "k", Block: "a"}, {Func: "k", Block: "b"}, {Func: "k", Block: "c"}}}
	splits := 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(-seed))
		tr := splitTrace(seed)
		for _, pool := range []*runner.Pool{nil, runner.New(4)} {
			for _, opt := range []ReuseOptions{DefaultElementReuse(), LineReuse(32)} {
				ctas := groupByCTA(tr)
				bounds := randomBounds(rng, len(ctas))
				splits += len(bounds) - 2
				w := fanOut(pool, bounds, func(lo, hi int) reuseShare {
					s := reuseShare{&ReuseResult{}, newSiteTable(tr)}
					walkCTAs(tr, opt, ctas[lo:hi], s.res, s.sites)
					return s
				}, reuseShare.merge)
				w.res.Add(tr.MemCoverage())
				hist, sites := Reuse(tr, opt, nil)
				if *w.res != *hist || *hist != *NaiveReuseDistance(tr, opt) {
					t.Errorf("seed %d, %+v, CTA ranges %v: histogram\n %+v\nwhole\n %+v", seed, opt, bounds, *w.res, *hist)
				}
				if got := sitesByLoc(tr, w.sites); !reflect.DeepEqual(got, sites) || !reflect.DeepEqual(sites, NaiveReuseBySite(tr, opt)) {
					t.Errorf("seed %d, %+v, CTA ranges %v: sites %v, whole %v", seed, opt, bounds, siteList(got), siteList(sites))
				}
			}

			bounds := randomBounds(rng, len(tr.Mem))
			md := fanOut(pool, bounds, func(lo, hi int) *MemDivResult { return memDivRange(tr, 32, lo, hi) }, (*MemDivResult).Merge)
			md.Add(tr.MemCoverage())
			if want := MemDivergence(tr, 32); !reflect.DeepEqual(md, want) {
				t.Errorf("seed %d, record ranges %v: memory divergence\n %+v\nwhole\n %+v", seed, bounds, md, want)
			}
			sb := fanOut(pool, bounds, func(lo, hi int) *SharedBankResult { return sharedBankRange(tr, lo, hi) }, (*SharedBankResult).Merge)
			sb.Add(sb.Total, tr.SharedSeen)
			if want := SharedBankConflicts(tr); !reflect.DeepEqual(sb, want) || want.Total == 0 {
				t.Errorf("seed %d, record ranges %v: bank conflicts\n %+v\nwhole\n %+v", seed, bounds, sb, want)
			}
			bounds = randomBounds(rng, len(tr.Blocks))
			bd := fanOut(pool, bounds, func(lo, hi int) *BranchDivResult { return branchDivRange(tr, tables, lo, hi) }, (*BranchDivResult).Merge)
			bd.Add(tr.BlocksCoverage())
			if want := BranchDivergence(tr, tables); !reflect.DeepEqual(bd, want) {
				t.Errorf("seed %d, block ranges %v: branch divergence\n %+v\nwhole\n %+v", seed, bounds, bd, want)
			}
		}
	}
	if splits == 0 {
		t.Fatal("no walk was split")
	}
}

// TestBoundsCoverInOrder: the ranges a pool cuts a trace into cover it in
// order without a gap or an empty range, and there is one range unless
// the pool has a worker to spare and every range keeps its minimum.
func TestBoundsCoverInOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	defer func(w, r int) { walkRangeMin, recordRangeMin = w, r }(walkRangeMin, recordRangeMin)
	walkRangeMin, recordRangeMin = 10, 10
	ctas := [][]int32{make([]int32, 50), make([]int32, 5), make([]int32, 5), make([]int32, 30), nil, make([]int32, 10)}
	for _, c := range []struct {
		pool          *runner.Pool
		records, ctas []int
	}{
		{nil, []int{0, 95}, []int{0, 6}},
		{runner.New(1), []int{0, 95}, []int{0, 6}},
		{runner.New(2), []int{0, 11, 23, 35, 47, 59, 71, 83, 95}, []int{0, 1, 4, 6}},
	} {
		if got := recordBounds(c.pool, 95); !reflect.DeepEqual(got, c.records) {
			t.Errorf("%d workers: record bounds %v, want %v", c.pool.Workers(), got, c.records)
		}
		if got := ctaBounds(c.pool, ctas); !reflect.DeepEqual(got, c.ctas) {
			t.Errorf("%d workers: CTA bounds %v, want %v", c.pool.Workers(), got, c.ctas)
		}
	}
	if got := recordBounds(runner.New(2), 15); !reflect.DeepEqual(got, []int{0, 15}) {
		t.Errorf("15 records at a minimum of 10: bounds %v, want one range", got)
	}
}
