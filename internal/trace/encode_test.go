package trace

import (
	"encoding/binary"
	"math/bits"
	"testing"
	"unsafe"
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
		if err := tr.AddMem(MemAccess{Mask: rec.mask}, rec.addrs); err != nil {
			t.Fatal(err)
		}
	}
	m := &tr.Mem[1]
	var got [WarpSize]uint64
	tr.LaneAddrs(m, &got)
	for l := 0; l < WarpSize; l++ {
		if mask&(1<<uint(l)) != 0 && got[l] != addrs[l] {
			t.Fatalf("width %d mask %#x lane %d: decoded %#x, recorded %#x (affine=%v)",
				blockW, mask, l, got[l], addrs[l], m.Affine())
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
		if m := roundTrip(t, tc.blockW, tc.mask, tc.addrs); m.Affine() != tc.affine {
			t.Errorf("%s: affine = %v, want %v", tc.name, m.Affine(), tc.affine)
		}
	}
}

// FuzzLaneAddrsRoundTrip: whatever the mask, the 32 addresses and the
// block width, what LaneAddrs returns equals what AddMem was given on
// every active lane.
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
	f.Fuzz(func(t *testing.T, mask uint32, blockW uint8, data []byte) {
		var addrs [WarpSize]uint64
		for l := range addrs {
			if len(data) >= 8*(l+1) {
				addrs[l] = binary.LittleEndian.Uint64(data[8*l:])
			}
		}
		roundTrip(t, int(blockW), mask, addrs)
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
		if m := &tr.Mem[i]; !m.Affine() {
			if int(m.base) != want {
				t.Fatalf("record %d points at arena[%d], want %d: arena not packed", i, m.base, want)
			}
			want += bits.OnesCount32(m.Mask)
		}
	}
	if len(tr.arena) != want {
		t.Fatalf("arena holds %d addresses, the %d buffered records need %d", len(tr.arena), len(tr.Mem), want)
	}
	if limit := 2 * WarpSize * (tr.MemCap + 1); cap(tr.arena) > limit {
		t.Fatalf("arena capacity %d exceeds %d for a cap of %d records", cap(tr.arena), limit, tr.MemCap)
	}
}

func TestSamplingCompactsArena(t *testing.T) {
	tr := NewKernelTrace("k", 0, [3]int{1, 1, 1}, [3]int{128, 1, 1})
	tr.SetBounds(16, 0, nil)
	for i := 0; i < 4000; i++ {
		warp, seq := int32(i%4), uint64(i/4)
		var err error
		if i%3 == 0 { // every third record is affine and owns no arena
			err = addMem(tr, 0, warp, seq)
		} else {
			err = tr.AddMem(scattered(warp, seq))
		}
		if err != nil {
			t.Fatal(err)
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
		if !m.Affine() && (got[1] != uint64(m.Warp) || got[2] != got[0]+3) {
			t.Errorf("kept record %d of warp %d decodes to %v after compaction", i, m.Warp, got[:3])
		}
	}
}

// decodingSink reads every flushed record's lanes through the trace it
// is handed, as a real sink must.
type decodingSink struct {
	t    *testing.T
	seqs []uint64
}

func (s *decodingSink) FlushMem(tr *KernelTrace, recs []MemAccess) error {
	var got [WarpSize]uint64
	for i := range recs {
		tr.LaneAddrs(&recs[i], &got)
		if got[1] != uint64(recs[i].Warp) || got[2] != got[0]+3 {
			s.t.Errorf("flushed record of warp %d decodes to %v", recs[i].Warp, got[:3])
		}
		s.seqs = append(s.seqs, got[0])
	}
	return nil
}

func (s *decodingSink) FlushBlocks(*KernelTrace, []BlockExec) error { return nil }

func TestSinkFlushResetsArena(t *testing.T) {
	tr := NewKernelTrace("k", 0, [3]int{1, 1, 1}, [3]int{32, 1, 1})
	sink := &decodingSink{t: t}
	tr.SetBounds(8, 0, sink)
	const n = 1000
	for i := 0; i < n; i++ {
		if err := tr.AddMem(scattered(int32(i%2), uint64(i))); err != nil {
			t.Fatal(err)
		}
		checkArena(t, tr)
	}
	if err := tr.FlushAll(); err != nil {
		t.Fatal(err)
	}
	checkArena(t, tr)
	if len(sink.seqs) != n {
		t.Fatalf("sink decoded %d records, want %d", len(sink.seqs), n)
	}
	for i, seq := range sink.seqs {
		if seq != uint64(i) {
			t.Fatalf("sink record %d has seq %d", i, seq)
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
			tr.SetBounds(limit, limit, nil)
		}
		for i := 0; i < 100; i++ {
			if err := tr.AddMem(scattered(int32(i%4), uint64(i/4))); err != nil {
				t.Fatal(err)
			}
			if err := tr.AddBlock(BlockExec{Warp: int32(i % 4), Mask: 1, InitMask: 1}); err != nil {
				t.Fatal(err)
			}
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
