package trace

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"cudaadvisor/internal/ir"
)

func TestMemAccessIsCompact(t *testing.T) {
	if n := unsafe.Sizeof(MemAccess{}); n > 48 {
		t.Fatalf("sizeof(MemAccess) = %d, want <= 48", n)
	}
}

// affineLanes spells out base + stride*x + rowStride*y for every lane of
// a warp whose rows are w lanes wide.
func affineLanes(w int, base uint64, stride, rowStride int64) [WarpSize]uint64 {
	var a [WarpSize]uint64
	for l := range a {
		a[l] = base + uint64(stride)*uint64(l%w) + uint64(rowStride)*uint64(l/w)
	}
	return a
}

// roundTrip encodes one record into a fresh trace of block width blockW
// and checks the accessor against the raw addresses on every active lane.
func roundTrip(t *testing.T, blockW int, mask uint32, addrs [WarpSize]uint64) *MemAccess {
	t.Helper()
	tr := NewKernelTrace("k", 0, [3]int{1, 1, 1}, [3]int{blockW, 4, 1})
	// A neighbour on each side, so an arena offset of zero proves nothing.
	noise := [WarpSize]uint64{7, 1, 99}
	for _, rec := range []struct {
		mask  uint32
		addrs *[WarpSize]uint64
	}{{0x7, &noise}, {mask, &addrs}, {0x7, &noise}} {
		tr.AddMem(MemAccess{Mask: rec.mask}, rec.addrs)
	}
	m := &tr.Mem[1]
	var got [WarpSize]uint64
	tr.LaneAddrs(m, &got)
	uniform := mask != 0
	for l := 0; l < WarpSize; l++ {
		if mask&(1<<uint(l)) != 0 && got[l] != addrs[l] {
			t.Fatalf("width %d mask %#x lane %d: decoded %#x, recorded %#x (affine=%v)",
				blockW, mask, l, got[l], addrs[l], !m.explicit)
		}
		uniform = uniform && (mask&(1<<uint(l)) == 0 || addrs[l] == addrs[bits.TrailingZeros32(mask)])
	}
	if a, ok := tr.Uniform(m); ok != uniform || ok && a != addrs[bits.TrailingZeros32(mask)] {
		t.Fatalf("width %d mask %#x: Uniform = %#x, %v; the lanes say %v", blockW, mask, a, ok, uniform)
	}
	if mask == 0xFFFFFFFF {
		// The one-scan verdict on a full mask is the proposal rule's: the
		// strides lanes 0, 1 and the next row's first lane imply.
		w := 1 << tr.rowShift
		var stride, rowStride int64
		if w > 1 {
			stride = int64(addrs[1] - addrs[0])
		}
		if w < WarpSize {
			rowStride = int64(addrs[w] - addrs[0])
		}
		if affine := addrs == affineLanes(w, addrs[0], stride, rowStride); affine == m.explicit {
			t.Fatalf("width %d: affine = %v, the proposed strides say %v", blockW, !m.explicit, affine)
		}
	}
	return m
}

func TestEncoderForms(t *testing.T) {
	offRow := affineLanes(32, 0x1000, 4, 0)
	offRow[17]++
	for _, tc := range []struct {
		name   string
		blockW int
		mask   uint32
		addrs  [WarpSize]uint64
		affine bool
	}{
		{"empty mask", 32, 0, [WarpSize]uint64{1, 2, 4}, true},
		{"single lane", 32, 1 << 9, affineLanes(32, 0xdead, 0, 0), true},
		{"coalesced", 32, 0xFFFFFFFF, affineLanes(32, 0x1000, 4, 0), true},
		{"uniform", 32, 0xFFFFFFFF, affineLanes(32, 0x1000, 0, 0), true},
		{"negative stride", 32, 0xFFFFFFFF, affineLanes(32, 0x1000, -8, 0), true},
		{"wraps past zero", 32, 0xFFFFFFFF, affineLanes(32, 16, -8, 0), true},
		{"wraps past max", 32, 0xFFFFFFFF, affineLanes(32, ^uint64(0)-40, 4, 0), true},
		{"partial mask", 32, 0xF0F0A005, affineLanes(32, 0x1000, 12, 0), true},
		{"one lane off the row", 32, 0xFFFFFFFF, offRow, false},
		{"off lane masked out", 32, 0xFFFFFFFF &^ (1 << 17), offRow, true},
		{"two rows", 16, 0xFFFFFFFF, affineLanes(16, 0x1000, 4, 4096), true},
		{"two rows, one lane each", 16, 1<<3 | 1<<20, affineLanes(16, 0x1000, 4, 4096), true},
		{"two rows, backwards", 16, 0xFFFFFFFF, affineLanes(16, 1<<40, -4, -512), true},
		{"four rows", 8, 0xFFFFFFFF, affineLanes(8, 0x1000, 8, 1<<20), true},
		{"rows read as one warp", 32, 0xFFFFFFFF, affineLanes(16, 0x1000, 4, 4096), false},
		{"width not dividing the warp", 24, 0xFFFFFFFF, affineLanes(32, 0x1000, 4, 0), true},
		{"odd gap", 32, 1<<0 | 1<<2, [WarpSize]uint64{0: 10, 2: 13}, false},
	} {
		if m := roundTrip(t, tc.blockW, tc.mask, tc.addrs); !m.explicit != tc.affine {
			t.Errorf("%s: affine = %v, want %v", tc.name, !m.explicit, tc.affine)
		}
	}
}

// FuzzLaneAddrsRoundTrip: whatever the mask, the 32 addresses and the
// block width — and at rows of 8, 16 and 32 lanes too — what LaneAddrs
// returns equals what AddMem was given on every active lane, Uniform
// finds an address exactly when every active lane holds it, and a full
// mask's one-scan verdict is the proposed strides'.
func FuzzLaneAddrsRoundTrip(f *testing.F) {
	raw := func(a [WarpSize]uint64) []byte {
		b := make([]byte, 8*WarpSize)
		for l, v := range a {
			binary.LittleEndian.PutUint64(b[8*l:], v)
		}
		return b
	}
	offRow := affineLanes(32, 0x1000, 4, 0)
	offRow[5] ^= 1 << 63
	f.Add(uint32(0), uint8(32), raw(offRow))
	f.Add(uint32(1<<31), uint8(32), raw(offRow))
	f.Add(uint32(0xFFFFFFFF), uint8(32), raw(affineLanes(32, 0x1000, -4, 0)))
	f.Add(uint32(0xFFFFFFFF), uint8(32), raw(affineLanes(32, 0x1000, 0, 0)))
	f.Add(uint32(0xFFFFFFFF), uint8(32), raw(affineLanes(32, 8, -4, 0)))
	f.Add(uint32(0xFFFFFFFF), uint8(32), raw(offRow))
	f.Add(uint32(0x0FF0F00F), uint8(16), raw(affineLanes(16, 0x1000, 4, 4096)))
	f.Add(uint32(0xFFFFFFFF), uint8(8), raw(affineLanes(8, 0x1000, 4, -64)))
	f.Add(uint32(0xFFFFFFFF), uint8(0), []byte{1, 2, 3})
	f.Add(uint32(0xFFFFFFFF), uint8(16), raw(affineLanes(16, 0x1000, 0, 0)))
	f.Add(uint32(0xFFFFFFFF), uint8(8), raw(affineLanes(8, 0x1000, 0, 4096)))
	f.Add(uint32(0xFFFFFFFF), uint8(1), raw(affineLanes(1, 0x1000, 0, 12)))
	f.Fuzz(func(t *testing.T, mask uint32, blockW uint8, data []byte) {
		var addrs [WarpSize]uint64
		for l := range addrs {
			if len(data) >= 8*(l+1) {
				addrs[l] = binary.LittleEndian.Uint64(data[8*l:])
			}
		}
		for _, w := range []int{int(blockW), 8, 16, 32} {
			roundTrip(t, w, mask, addrs)
		}
	})
}

// scattered fabricates a record of warp (0, warp) that no affine form
// fits: three lanes whose addresses spell out the warp and its sequence
// number.
func scattered(warp int32, seq uint64) (MemAccess, *[WarpSize]uint64) {
	return MemAccess{Warp: warp, Mask: 0x7}, &[WarpSize]uint64{seq, uint64(warp), seq + 3}
}

// checkArena asserts the arena holds exactly the addresses of the
// explicit records still buffered, in order, within O(cap) memory.
func checkArena(t *testing.T, tr *KernelTrace) {
	t.Helper()
	want := 0
	for i := range tr.Mem {
		if m := &tr.Mem[i]; m.explicit {
			if int(m.base) != want {
				t.Fatalf("record %d points at arena[%d], want %d: arena not packed", i, m.base, want)
			}
			want += bits.OnesCount32(m.Mask)
		}
	}
	if len(tr.arena) != want {
		t.Fatalf("arena holds %d addresses, the %d buffered records need %d", len(tr.arena), len(tr.Mem), want)
	}
	if limit := 2 * WarpSize * (tr.limit + 1); cap(tr.arena) > limit {
		t.Fatalf("arena capacity %d exceeds %d for a cap of %d records", cap(tr.arena), limit, tr.limit)
	}
}

func TestSamplingCompactsArena(t *testing.T) {
	tr := NewKernelTrace("k", 0, [3]int{1, 1, 1}, [3]int{128, 1, 1})
	tr.SetCap(16)
	for i := 0; i < 4000; i++ {
		warp, seq := int32(i%4), uint64(i/4)
		if i%3 == 0 { // every third record is affine and owns no arena
			addMem(tr, 0, warp, seq)
		} else {
			tr.AddMem(scattered(warp, seq))
		}
		checkArena(t, tr)
	}
	if tr.MemSampleN < 2 {
		t.Fatalf("sampling period %d did not grow past the cap", tr.MemSampleN)
	}
	var got [WarpSize]uint64
	for i := range tr.Mem {
		m := &tr.Mem[i]
		tr.LaneAddrs(m, &got)
		if seq := got[0]; seq%uint64(tr.MemSampleN) != 0 {
			t.Errorf("kept record %d has seq %d, not divisible by period %d", i, seq, tr.MemSampleN)
		}
		if m.explicit && (got[1] != uint64(m.Warp) || got[2] != got[0]+3) {
			t.Errorf("kept record %d of warp %d decodes to %v after compaction", i, m.Warp, got[:3])
		}
	}
}

// TestReleaseKeepsHeaderAndCoverage: a released trace holds no record
// and no arena, and still reports the coverage of the run it recorded,
// sampled or complete.
func TestReleaseKeepsHeaderAndCoverage(t *testing.T) {
	for _, limit := range []int{0, 16} {
		tr := NewKernelTrace("k", 3, [3]int{1, 1, 1}, [3]int{128, 1, 1})
		if limit > 0 {
			tr.SetCap(limit)
		}
		for i := 0; i < 100; i++ {
			tr.AddMem(scattered(int32(i%4), uint64(i/4)))
			tr.AddBlock(BlockExec{Warp: int32(i % 4), Mask: 1, InitMask: 1})
		}
		memRec, memSeen := tr.MemCoverage()
		blkRec, blkSeen := tr.BlocksCoverage()
		if memSeen != 100 || blkSeen != 100 || (limit > 0) != (memRec < memSeen) || (limit > 0) != (blkRec < blkSeen) {
			t.Fatalf("cap %d: coverage mem %d/%d, blocks %d/%d before the release", limit, memRec, memSeen, blkRec, blkSeen)
		}
		locs := tr.Locs
		tr.Release()
		tr.Release() // releasing twice changes nothing
		if cap(tr.Mem) != 0 || cap(tr.Blocks) != 0 || cap(tr.arena) != 0 || tr.memWarpSeen != nil || tr.blockWarpSeen != nil {
			t.Errorf("cap %d: a released trace still holds %d/%d/%d record/block/arena capacity", limit, cap(tr.Mem), cap(tr.Blocks), cap(tr.arena))
		}
		if r, s := tr.MemCoverage(); r != memRec || s != memSeen {
			t.Errorf("cap %d: mem coverage %d/%d after the release, %d/%d before", limit, r, s, memRec, memSeen)
		}
		if r, s := tr.BlocksCoverage(); r != blkRec || s != blkSeen {
			t.Errorf("cap %d: block coverage %d/%d after the release, %d/%d before", limit, r, s, blkRec, blkSeen)
		}
		if tr.Kernel != "k" || tr.Instance != 3 || tr.Locs != locs {
			t.Errorf("cap %d: the release touched the header: %q #%d", limit, tr.Kernel, tr.Instance)
		}
	}
}

// AppendAll leaves the trace that adding every record directly would
// have left: the fragments' explicit records rebased onto the arena,
// their locations interned in first-use order, their contexts mapped,
// their counts added — onto an empty trace and onto one holding records.
func TestAppendEqualsDirectAdds(t *testing.T) {
	locs := []ir.Loc{{File: "a.mir", Line: 1}, {File: "a.mir", Line: 2}, {File: "a.mir", Line: 3}}
	type ev struct {
		loc, ctx int
		affine   bool
	}
	calls := [][][]ev{{{{0, 5, false}, {1, 5, true}}}, {{{2, 7, true}, {0, 9, false}, {2, 7, false}}, {{1, 9, false}, {0, 5, true}}}}
	add := func(tr *KernelTrace, i int, e ev, ctx int32) {
		rec, addrs := scattered(int32(i), uint64(i))
		if e.affine {
			a := affineLanes(WarpSize, uint64(4096*i), 4, 0)
			addrs = &a
		}
		rec.Loc, rec.Ctx = tr.Locs.Intern(locs[e.loc]), ctx
		tr.AddMem(rec, addrs)
		tr.AddBlock(BlockExec{Warp: int32(i), Loc: rec.Loc, Ctx: ctx})
	}
	block := [3]int{128, 1, 1}
	want := NewKernelTrace("k", 0, [3]int{1, 1, 1}, block)
	got := NewKernelTrace("k", 0, [3]int{1, 1, 1}, block)
	i := 0
	for _, parts := range calls {
		var frags []*KernelTrace
		var ctxs [][]int32
		for _, part := range parts {
			// The fragment numbers its contexts 0, 1, … in first-use
			// order; its ctxs row maps them back.
			frag := NewKernelTrace("k", 0, [3]int{1, 1, 1}, block)
			var ctx []int32
			local := map[int]int32{}
			for _, e := range part {
				add(want, i, e, int32(e.ctx))
				if _, ok := local[e.ctx]; !ok {
					local[e.ctx] = int32(len(ctx))
					ctx = append(ctx, int32(e.ctx))
				}
				add(frag, i, e, local[e.ctx])
				i++
			}
			frags, ctxs = append(frags, frag), append(ctxs, ctx)
		}
		got.AppendAll(frags, ctxs)
		for _, frag := range frags {
			if len(frag.Mem) != 0 || len(frag.Blocks) != 0 || len(frag.arena) != 0 {
				t.Fatal("AppendAll left records in a fragment")
			}
		}
	}
	if !reflect.DeepEqual(want.Mem, got.Mem) || !reflect.DeepEqual(want.Blocks, got.Blocks) ||
		!reflect.DeepEqual(want.arena, got.arena) || !reflect.DeepEqual(want.Locs, got.Locs) {
		t.Errorf("appended trace differs from the direct one:\nwant %+v\ngot  %+v", want.Mem, got.Mem)
	}
	if want.MemSeen != got.MemSeen || want.BlocksSeen != got.BlocksSeen {
		t.Errorf("seen %d/%d, want %d/%d", got.MemSeen, got.BlocksSeen, want.MemSeen, want.BlocksSeen)
	}
	checkArena(t, got)
}

// TestAppendAllMatchesOrdered splits seeded random event streams — full
// and partial masks, affine and explicit records, five locations and
// contexts from a small tree — at random points into per-SM fragments,
// as a fanned-out launch records them, and checks that AppendAll gives
// the trace the ordered stream records, record for record, and exactly
// sized buffers.
func TestAppendAllMatchesOrdered(t *testing.T) {
	locs := make([]ir.Loc, 5)
	for i := range locs {
		locs[i] = ir.Loc{File: "k.mir", Line: 10 * (i + 1)}
	}
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		block := [3]int{8 << rng.Intn(3), 2, 1}
		ordered := NewKernelTrace("k", 0, [3]int{4, 1, 1}, block)
		var frags []*KernelTrace
		var ctxs [][]int32
		var frag *KernelTrace
		var local map[int32]int32
		for i, n := 0, 50+rng.Intn(200); i < n; i++ {
			if frag == nil || rng.Intn(40) == 0 {
				frag, local = NewKernelTrace("k", 0, [3]int{4, 1, 1}, block), map[int32]int32{}
				frags, ctxs = append(frags, frag), append(ctxs, nil)
			}
			loc, ctx := locs[rng.Intn(len(locs))], int32(1+rng.Intn(6))
			id, ok := local[ctx]
			if !ok {
				id = int32(len(ctxs[len(ctxs)-1]))
				local[ctx], ctxs[len(ctxs)-1] = id, append(ctxs[len(ctxs)-1], ctx)
			}
			rec := MemAccess{CTA: int32(rng.Intn(4)), Warp: int32(rng.Intn(2)), Mask: 0xFFFFFFFF, Bits: 32}
			if rng.Intn(3) == 0 {
				rec.Mask = rng.Uint32()
			}
			addrs := affineLanes(block[0], uint64(rng.Intn(1<<20)), int64(rng.Intn(9)-4)*4, int64(rng.Intn(3))*512)
			if rng.Intn(3) == 0 {
				addrs[rng.Intn(WarpSize)] ^= 1 << 40 // explicit, unless that lane is masked out
			}
			blockRec := BlockExec{CTA: rec.CTA, Warp: rec.Warp, Mask: rec.Mask, Block: int32(i)}
			rec.Loc, rec.Ctx, blockRec.Loc, blockRec.Ctx = ordered.Locs.Intern(loc), ctx, ordered.Locs.Intern(loc), ctx
			ordered.AddMem(rec, &addrs)
			ordered.AddBlock(blockRec)
			rec.Loc, rec.Ctx, blockRec.Loc, blockRec.Ctx = frag.Locs.Intern(loc), id, frag.Locs.Intern(loc), id
			frag.AddMem(rec, &addrs)
			frag.AddBlock(blockRec)
		}
		got := NewKernelTrace("k", 0, [3]int{4, 1, 1}, block)
		got.AppendAll(frags, ctxs)
		if len(got.Mem) != len(ordered.Mem) || cap(got.Mem) > len(got.Mem)*5/4+1 {
			t.Fatalf("seed %d: %d records in %d capacity, want %d", seed, len(got.Mem), cap(got.Mem), len(ordered.Mem))
		}
		var wa, ga [WarpSize]uint64
		for i := range ordered.Mem {
			w, g := &ordered.Mem[i], &got.Mem[i]
			ordered.LaneAddrs(w, &wa)
			got.LaneAddrs(g, &ga)
			for l := 0; l < WarpSize; l++ {
				if w.Mask&(1<<uint(l)) != 0 && wa[l] != ga[l] {
					t.Fatalf("seed %d record %d lane %d: %#x, ordered %#x", seed, i, l, ga[l], wa[l])
				}
			}
			if *w != *g {
				t.Fatalf("seed %d record %d: %+v, ordered %+v", seed, i, *g, *w)
			}
		}
		if !reflect.DeepEqual(ordered.Blocks, got.Blocks) || !reflect.DeepEqual(ordered.arena, got.arena) ||
			!reflect.DeepEqual(ordered.Locs, got.Locs) || ordered.MemSeen != got.MemSeen || ordered.BlocksSeen != got.BlocksSeen {
			t.Fatalf("seed %d: blocks, arena, locations or counts differ from the ordered trace", seed)
		}
	}
}
