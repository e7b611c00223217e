package analysis

import (
	"math/rand"
	"reflect"
	"testing"

	"cudaadvisor/internal/ir"
	"cudaadvisor/internal/trace"
)

// mixedTrace builds a seeded random trace shaped like a real one: ctas
// CTAs interleaved, four sites, loads, stores and atomics of 1, 2, 4 and
// 8 bytes, full and partial masks, and both address forms — strided
// warps (affine records, two 16-lane rows per warp) and scattered ones
// (explicit records) over a small pool of addresses so that elements are
// re-read within and across sites. A few shared-memory records check the
// global-only filter.
func mixedTrace(seed int64, n, ctas int) *trace.KernelTrace {
	rng := rand.New(rand.NewSource(seed))
	tr := trace.NewKernelTrace("mixed", 0, [3]int{ctas, 1, 1}, [3]int{16, 4, 1})
	sites := make([]int32, 4)
	for i := range sites {
		sites[i] = tr.Locs.Intern(ir.Loc{File: "k.mir", Line: 10 * (i + 1)})
	}
	for i := 0; i < n; i++ {
		rec := trace.MemAccess{
			CTA:  int32(rng.Intn(ctas)),
			Warp: int32(rng.Intn(2)),
			Kind: trace.AccessKind(rng.Intn(3)),
			Bits: uint8(8 << uint(rng.Intn(4))),
			Loc:  sites[rng.Intn(len(sites))],
		}
		if rng.Intn(8) == 0 {
			rec.Space = ir.Shared
		}
		switch rng.Intn(3) {
		case 0:
			rec.Mask = 0xFFFFFFFF
		case 1:
			rec.Mask = rng.Uint32()
		default:
			rec.Mask = 1 << uint(rng.Intn(trace.WarpSize))
		}
		var addrs [trace.WarpSize]uint64
		if rng.Intn(2) == 0 {
			base, stride, row := uint64(rng.Intn(16))*8, int64(rng.Intn(5)-1)*4, int64(rng.Intn(3))*32
			for l := range addrs {
				addrs[l] = base + uint64(stride)*uint64(l%16) + uint64(row)*uint64(l/16)
			}
		} else {
			for l := range addrs {
				addrs[l] = uint64(rng.Intn(96))
			}
		}
		addRec(tr, rec, addrs)
	}
	return tr
}

// explicitForm reports whether the trace encoder spelled rec's lane
// addresses out in the trace's arena instead of as base and strides. The
// flag is private to internal/trace, so it is read by reflection.
func explicitForm(rec *trace.MemAccess) bool {
	return reflect.ValueOf(rec).Elem().FieldByName("explicit").Bool()
}

// TestReuseWalkerMatchesNaive checks the shared walker against both
// O(N^2) references — the distance histogram and the per-site forward
// reuse, each alone and the two from one traversal — in element and
// line mode.
func TestReuseWalkerMatchesNaive(t *testing.T) {
	affine, explicit := 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		tr := mixedTrace(seed, 70, 3)
		for i := range tr.Mem {
			if explicitForm(&tr.Mem[i]) {
				explicit++
			} else {
				affine++
			}
		}
		for _, opt := range []ReuseOptions{DefaultElementReuse(), LineReuse(32), {Granularity: 128}} {
			if fast, slow := ReuseDistance(tr, opt), NaiveReuseDistance(tr, opt); *fast != *slow {
				t.Errorf("seed %d, %+v: walker histogram\n %+v\nnaive\n %+v", seed, opt, *fast, *slow)
			}
			if fast, slow := ReuseBySite(tr, opt, nil), NaiveReuseBySite(tr, opt); !reflect.DeepEqual(fast, slow) {
				t.Errorf("seed %d, %+v: walker sites %v, naive %v", seed, opt, siteList(fast), siteList(slow))
			}
			// Both from one traversal.
			if hist, sites := Reuse(tr, opt, nil); *hist != *NaiveReuseDistance(tr, opt) || !reflect.DeepEqual(sites, NaiveReuseBySite(tr, opt)) {
				t.Errorf("seed %d, %+v: the fused walk gives\n %+v\n %v", seed, opt, *hist, siteList(sites))
			}
		}
	}
	if affine == 0 || explicit == 0 {
		t.Fatalf("traces held %d affine and %d explicit records; the test needs both", affine, explicit)
	}
}

func siteList(m map[ir.Loc]*SiteReuse) []SiteReuse {
	var out []SiteReuse
	for _, s := range m {
		out = append(out, *s)
	}
	return out
}

// TestReuseWalkerTableGrowsAndRecycles drives the element table through
// growth inside one CTA and reuse by the next: a large CTA of distinct
// elements, each read twice, then a second CTA reading the same
// addresses once.
func TestReuseWalkerTableGrowsAndRecycles(t *testing.T) {
	tr := trace.NewKernelTrace("grow", 0, [3]int{2, 1, 1}, [3]int{32, 1, 1})
	const warps = 200 // 6400 elements: past the table's first size
	for cta := int32(0); cta < 2; cta++ {
		for pass := 0; pass < 2-int(cta); pass++ {
			for w := 0; w < warps; w++ {
				var addrs [trace.WarpSize]uint64
				for l := range addrs {
					addrs[l] = uint64(w*trace.WarpSize+l) * 4
				}
				addRec(tr, trace.MemAccess{CTA: cta, Mask: 0xFFFFFFFF, Bits: 32}, addrs)
			}
		}
	}
	res := ReuseDistance(tr, DefaultElementReuse())
	const elems = warps * trace.WarpSize
	if res.Samples != 3*elems || res.Infinite != 2*elems || res.FiniteN != elems {
		t.Fatalf("samples/infinite/finite = %d/%d/%d, want %d/%d/%d",
			res.Samples, res.Infinite, res.FiniteN, 3*elems, 2*elems, elems)
	}
	if res.Streaming != elems {
		t.Errorf("streaming %d, want %d", res.Streaming, elems)
	}
}
