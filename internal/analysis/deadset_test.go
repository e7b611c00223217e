package analysis

import (
	"math/rand"
	"reflect"
	"testing"

	"cudaadvisor/internal/ir"
	"cudaadvisor/internal/trace"
)

// withBlockShift runs f with the superseded-timestamp set counting blocks
// of 1<<shift words.
func withBlockShift(shift int, f func()) {
	defer func(old int) { blockShift = old }(blockShift)
	blockShift = shift
	f()
}

// TestDeadSetCountAtEdges checks the range count against prefix sums,
// with both ends of the range on, and one off, word and block edges, for
// blocks of one word up to the default size. The set is reset twice,
// shrinking, so a stale bit or block count would show; the second size
// ends one short of a word edge, where count reads the word after it.
func TestDeadSetCountAtEdges(t *testing.T) {
	for _, shift := range []int{0, 1, 2, blockShift} {
		withBlockShift(shift, func() {
			var d deadSet
			for _, n := range []int{64 << shift * 5, 64<<shift*3 - 1} {
				d.reset(n)
				upTo := make([]int32, n+1) // superseded timestamps in [1, ts]
				for ts := 1; ts <= n; ts++ {
					upTo[ts] = upTo[ts-1]
					if ts%3 == 0 || ts%7 == 1 || ts%64 == 63 {
						d.kill(int32(ts))
						upTo[ts]++
					}
				}
				var edges []int
				for e := 0; e <= n; e += 64 {
					edges = append(edges, e-1, e, e+1)
				}
				for e := 0; e <= n; e += 64 << shift {
					edges = append(edges, e-1, e, e+1)
				}
				edges = append(edges, n-1, n)
				for _, lo := range edges {
					for _, hi := range edges {
						if lo < 0 || lo > hi || hi > n {
							continue
						}
						if got, want := d.count(int32(lo), int32(hi)), upTo[hi]-upTo[lo]; got != want {
							t.Fatalf("blocks of %d words, n=%d: count(%d, %d] = %d, want %d", 1<<shift, n, lo, hi, got, want)
						}
					}
				}
			}
		})
	}
}

// longDistanceCTA appends one CTA of the long-distance pattern to tr and
// returns the histogram it must give under the element model. Its n =
// 32·warps elements are loaded once forwards and once backwards, so the
// second read of element i has read the elements after it twice in
// between, and half the timestamps in its range are superseded. An
// atomic on one more element follows every load record, a store to
// elements no one reads follows every forward one, and a broadcast of
// one address opens the backward pass.
func longDistanceCTA(tr *trace.KernelTrace, cta int32, warps int) ReuseResult {
	const (
		atomicAt    = 1 << 30
		broadcastAt = 2 << 30
		storesAt    = 3 << 30
	)
	var none [trace.WarpSize]uint64
	atomicAddrs, broadcast := none, none
	atomicAddrs[0] = atomicAt + uint64(cta)
	for l := range broadcast {
		broadcast[l] = broadcastAt
	}
	load := trace.MemAccess{CTA: cta, Mask: 0xFFFFFFFF, Bits: 32}
	atomic := trace.MemAccess{CTA: cta, Mask: 1, Bits: 32, Kind: trace.Atomic}
	store := trace.MemAccess{CTA: cta, Mask: 0xFFFFFFFF, Bits: 32, Kind: trace.Store}
	for w := 0; w < warps; w++ {
		var fwd, st [trace.WarpSize]uint64
		for l := range fwd {
			fwd[l] = uint64(w*trace.WarpSize+l) * 4
			st[l] = storesAt + fwd[l]
		}
		addRec(tr, load, fwd)
		addRec(tr, atomic, atomicAddrs)
		addRec(tr, store, st)
	}
	addRec(tr, load, broadcast)
	for w := warps - 1; w >= 0; w-- {
		var bwd [trace.WarpSize]uint64
		for l := range bwd {
			bwd[l] = uint64(w*trace.WarpSize+trace.WarpSize-1-l) * 4
		}
		addRec(tr, load, bwd)
		addRec(tr, atomic, atomicAddrs)
	}

	// The backward read of element i has read elements i+1..n-1, the
	// atomic's and the broadcast's in between: n+1-i distinct elements.
	// So the n finite distances are 2..n+1, each once, and the broadcast
	// adds 31 re-reads at distance 0. Every atomic reads its element
	// dirty, and so does nothing else: first reads, the atomics and the
	// broadcast's first lane are infinite.
	n := int64(warps * trace.WarpSize)
	want := ReuseResult{
		Samples:   2*n + 2*int64(warps) + trace.WarpSize,
		Infinite:  n + 2*int64(warps) + 1,
		FiniteSum: (n+1)*(n+2)/2 - 1,
		FiniteN:   n + trace.WarpSize - 1,
	}
	want.Buckets[0] = trace.WarpSize - 1
	for d := int64(2); d <= n+1; d++ {
		want.Buckets[reuseBucket(d)]++
	}
	want.Buckets[NumReuseBuckets-1] = want.Infinite
	return want
}

// TestReuseLongDistances checks the walker where the naive reference is
// too slow to follow: reads about 13,000 timestamps apart across about a
// dozen blocks, in two CTAs of different sizes (one interleaved into the
// other), against the histogram in closed form, at the default block
// size and at one word per block.
func TestReuseLongDistances(t *testing.T) {
	var want ReuseResult
	var parts [2]*trace.KernelTrace
	for cta, warps := range []int{200, 40} {
		parts[cta] = trace.NewKernelTrace("", 0, [3]int{1, 1, 1}, [3]int{32, 1, 1})
		w := longDistanceCTA(parts[cta], int32(cta), warps)
		want.Merge(&w)
	}
	tr := trace.NewKernelTrace("long", 0, [3]int{2, 1, 1}, [3]int{32, 1, 1})
	for i := range parts[0].Mem { // CTA 1's records between CTA 0's
		for _, p := range parts {
			if i < len(p.Mem) {
				var addrs [trace.WarpSize]uint64
				p.LaneAddrs(&p.Mem[i], &addrs)
				addRec(tr, p.Mem[i], addrs)
			}
		}
	}
	want.Add(tr.MemCoverage())
	if want.Buckets[len(ReuseBucketBounds)] == 0 {
		t.Fatal("the pattern reaches no distance past the last finite bucket")
	}
	for _, shift := range []int{blockShift, 0} {
		withBlockShift(shift, func() {
			if got := ReuseDistance(tr, DefaultElementReuse()); *got != want {
				t.Errorf("blocks of %d words: walker\n %+v\nwant\n %+v", 1<<shift, *got, want)
			}
		})
	}
}

// fuzzTrace decodes data into a trace of three CTAs, 8 bytes a record:
// CTA, kind, width and one of three sites; the mask (full, one lane, or
// spelled out); and the lane addresses: strided rows (affine records),
// scattered over 96 bytes (explicit ones), one address for every lane
// (uniform loads, stores and atomics), or a unit-stride run, one element
// a lane, that a line holds several lanes of. One record in sixteen is
// in shared memory.
func fuzzTrace(data []byte) *trace.KernelTrace {
	tr := trace.NewKernelTrace("fuzz", 0, [3]int{3, 1, 1}, [3]int{64, 1, 1})
	var sites [3]int32
	for i := range sites {
		sites[i] = tr.Locs.Intern(ir.Loc{File: "f.mir", Line: i + 1})
	}
	for n := 0; len(data) >= 8 && n < 32; data, n = data[8:], n+1 {
		c := data[0]
		rec := trace.MemAccess{
			CTA:  int32(c % 3),
			Warp: int32(data[1] & 1),
			Kind: trace.AccessKind(c / 3 % 3),
			Bits: 8 << (c / 9 % 4),
			Loc:  sites[c/36%3],
		}
		switch data[1] >> 1 % 3 {
		case 0:
			rec.Mask = 0xFFFFFFFF
		case 1:
			rec.Mask = 1 << (data[1] >> 3 % trace.WarpSize)
		default:
			rec.Mask = uint32(data[4]) | uint32(data[5])<<8 | uint32(data[6])<<16 | uint32(data[7])<<24
		}
		if data[2]&0xF0 == 0xF0 {
			rec.Space = ir.Shared
		}
		var addrs [trace.WarpSize]uint64
		for l := range addrs {
			switch data[2] & 3 {
			case 0:
				stride, row := int64(data[2]>>2%7)-3, uint64(data[2]>>4%3)*32
				addrs[l] = uint64(data[3])*4 + uint64(stride*4*int64(l%16)) + row*uint64(l/16)
			case 1:
				addrs[l] = uint64(int(data[3])*31+l*int(data[4]|1)*7) % 96
			case 2:
				addrs[l] = uint64(data[3]) * 4
			default:
				addrs[l] = uint64(data[3])*4 + uint64(l)*uint64(rec.Bits/8)
			}
		}
		addRec(tr, rec, addrs)
	}
	return tr
}

// FuzzReuseWalk checks the fused walk against both naive references on
// decoded traces, under the element model and two line sizes, with
// blocks of one, two and the default number of words, so that short
// traces reach the block sums too. The last seed spells out the records
// the walk folds (uniform loads, unit-stride runs) beside the uniform
// atomics and stores it must not fold.
func FuzzReuseWalk(f *testing.F) {
	f.Add([]byte{})
	for seed := int64(1); seed <= 4; seed++ {
		data := make([]byte, 8*32)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	// Full-mask 4-byte records of CTA 0: uniform loads around a uniform
	// atomic and a uniform store of their element, then unit-stride runs
	// of loads and of atomics.
	load, atomic, store := []byte{18, 0, 2, 5}, []byte{24, 0, 2, 5}, []byte{21, 0, 2, 5}
	run, atomicRun := []byte{18, 0, 3, 8}, []byte{24, 0, 3, 8}
	var recs []byte
	for _, r := range [][]byte{load, load, atomic, load, store, load, run, run, atomicRun, run, atomic, atomic, load} {
		recs = append(append(recs, r...), 0, 0, 0, 0)
	}
	f.Add(recs)
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := fuzzTrace(data)
		for _, opt := range []ReuseOptions{DefaultElementReuse(), LineReuse(32), LineReuse(128)} {
			hist, sites := naiveReuse(tr, opt)
			for _, shift := range []int{0, 1, blockShift} {
				withBlockShift(shift, func() {
					gotHist, gotSites := Reuse(tr, opt, nil)
					if *gotHist != *hist || !reflect.DeepEqual(gotSites, sites) {
						t.Fatalf("%+v, blocks of %d words: walker\n %+v\n %v\nnaive\n %+v\n %v", opt, 1<<shift, *gotHist, siteList(gotSites), *hist, siteList(sites))
					}
				})
			}
		}
	})
}
