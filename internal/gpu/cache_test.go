package gpu

import (
	"reflect"
	"testing"
)

func testCfg() ArchConfig {
	cfg := KeplerK40c()
	cfg.L1Bytes = 1024 // 2 sets x 4 ways x 128B
	return cfg
}

func TestL1HitAfterMiss(t *testing.T) {
	c := newL1(testCfg())
	if c.read(0x1000) {
		t.Error("first access hit")
	}
	if !c.read(0x1000) {
		t.Error("second access missed")
	}
	if !c.read(0x1040) { // same 128B line
		t.Error("same-line access missed")
	}
	if c.stats.Accesses != 3 || c.stats.Hits != 2 || c.stats.Misses != 1 {
		t.Errorf("stats = %+v", c.stats)
	}
}

func TestL1LRUEviction(t *testing.T) {
	cfg := testCfg()
	c := newL1(cfg) // 2 sets, 4 ways, line 128
	// Addresses mapping to set 0: line numbers even.
	set0 := func(i int) uint64 { return uint64(i) * 2 * 128 }
	for i := 0; i < 4; i++ {
		c.read(set0(i))
	}
	for i := 0; i < 4; i++ {
		if !c.read(set0(i)) {
			t.Errorf("way %d evicted prematurely", i)
		}
	}
	c.read(set0(4)) // evicts LRU = line 0
	if c.read(set0(0)) {
		t.Error("line 0 should have been evicted (LRU)")
	}
	// line 1 was second-oldest; after the two misses above (line 4 evicted
	// line 0, then line 0 evicted line 1), line 1 must miss too.
	if c.read(set0(1)) {
		t.Error("line 1 should have been evicted")
	}
}

func TestL1WriteEvict(t *testing.T) {
	c := newL1(testCfg())
	c.read(0x2000)
	if !c.read(0x2000) {
		t.Fatal("expected hit before write")
	}
	c.write(0x2000)
	if c.read(0x2000) {
		t.Error("write-evict policy violated: line still resident after store")
	}
	if c.stats.Writes != 1 {
		t.Errorf("writes = %d", c.stats.Writes)
	}
}

func TestL1WriteNoAllocate(t *testing.T) {
	c := newL1(testCfg())
	c.write(0x3000)
	if c.read(0x3000) {
		t.Error("write allocated a line (policy is no-allocate)")
	}
}

func TestMSHRStallsWhenFull(t *testing.T) {
	m := newMSHR(2)
	d1 := m.alloc(0, 100)
	d2 := m.alloc(1, 100)
	if d1 != 100 || d2 != 101 {
		t.Fatalf("first allocs complete at %d, %d", d1, d2)
	}
	// Third alloc at t=2 must stall until t=100.
	d3 := m.alloc(2, 100)
	if d3 != 200 {
		t.Errorf("stalled alloc completes at %d, want 200", d3)
	}
	if m.stallCycles != 98 {
		t.Errorf("stallCycles = %d, want 98", m.stallCycles)
	}
}

func TestMSHRRetiresCompleted(t *testing.T) {
	m := newMSHR(1)
	m.alloc(0, 10)
	// At t=50 the previous miss has retired: no stall.
	if d := m.alloc(50, 10); d != 60 {
		t.Errorf("alloc after retire completes at %d, want 60", d)
	}
	if m.stallCycles != 0 {
		t.Errorf("stallCycles = %d, want 0", m.stallCycles)
	}
}

func TestCoalesceFullyCoalesced(t *testing.T) {
	var addrs [WarpSize]uint64
	for i := range addrs {
		addrs[i] = 0x1000 + uint64(4*i) // 32 x 4B = 128B: one Kepler line
	}
	lines := coalesceLines(nil, FullMask, &addrs, 4, 128)
	if len(lines) != 1 || lines[0] != 0x1000 {
		t.Errorf("lines = %v, want [0x1000]", lines)
	}
	// 32B lines (Pascal): the same pattern touches 4 lines.
	lines = coalesceLines(nil, FullMask, &addrs, 4, 32)
	if len(lines) != 4 {
		t.Errorf("pascal lines = %d, want 4", len(lines))
	}
}

func TestCoalesceFullyDiverged(t *testing.T) {
	var addrs [WarpSize]uint64
	for i := range addrs {
		addrs[i] = uint64(i) * 4096 // each lane its own line
	}
	if got := UniqueLines(FullMask, &addrs, 4, 128); got != 32 {
		t.Errorf("unique lines = %d, want 32", got)
	}
}

func TestCoalesceRespectsMask(t *testing.T) {
	var addrs [WarpSize]uint64
	for i := range addrs {
		addrs[i] = uint64(i) * 4096
	}
	if got := UniqueLines(0x3, &addrs, 4, 128); got != 2 {
		t.Errorf("unique lines with 2 lanes = %d, want 2", got)
	}
	if got := UniqueLines(0, &addrs, 4, 128); got != 0 {
		t.Errorf("unique lines with empty mask = %d, want 0", got)
	}
}

func TestCoalesceLineStraddle(t *testing.T) {
	var addrs [WarpSize]uint64
	addrs[0] = 126 // 8-byte access crossing the 128B boundary
	lines := coalesceLines(nil, 1, &addrs, 8, 128)
	if len(lines) != 2 || lines[0] != 0 || lines[1] != 128 {
		t.Errorf("lines = %v, want [0 128]", lines)
	}
}

func TestDeviceMemoryAllocAlignment(t *testing.T) {
	d := NewDeviceMemory(1 << 20)
	a, err := d.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if a%256 != 0 || b%256 != 0 {
		t.Errorf("allocations not 256-aligned: %#x %#x", a, b)
	}
	if b < a+100 {
		t.Errorf("allocations overlap: %#x %#x", a, b)
	}
}

func TestDeviceMemoryBounds(t *testing.T) {
	d := NewDeviceMemory(4096)
	if _, err := d.Alloc(1 << 20); err == nil {
		t.Error("oversized alloc succeeded")
	}
	if err := d.WriteBytes(0, []byte{1}); err == nil {
		t.Error("write to reserved null page succeeded")
	}
	if err := d.WriteBytes(4095, []byte{1, 2}); err == nil {
		t.Error("out-of-range write succeeded")
	}
}

// naiveCoalesce is the reference coalescer: for every active lane in lane
// order, the line of the access's first byte and — when the access
// straddles — of its last, each kept at its first appearance.
func naiveCoalesce(mask uint32, addrs *[WarpSize]uint64, size, lineSize int) []uint64 {
	var out []uint64
	add := func(line uint64) {
		for _, l := range out {
			if l == line {
				return
			}
		}
		out = append(out, line)
	}
	ls := uint64(lineSize)
	for lane := 0; lane < WarpSize; lane++ {
		if mask&(1<<uint(lane)) == 0 {
			continue
		}
		a := addrs[lane]
		add(a / ls * ls)
		add((a + uint64(size) - 1) / ls * ls)
	}
	return out
}

// FuzzCoalesceLines holds coalesceLines to the naive first-touch
// reference: the same lines in the same order, for any mask, access
// width and power-of-two line size. Addresses are drawn as a base plus
// small per-lane offsets so lanes share, revisit and straddle lines.
func FuzzCoalesceLines(f *testing.F) {
	f.Add(uint32(0xFFFFFFFF), uint64(0x1000), int64(4), uint8(4), uint8(7), []byte{})
	f.Add(uint32(0xFFFFFFFF), uint64(126), int64(-8), uint8(8), uint8(7), []byte{3, 0, 3, 9})
	f.Add(uint32(0x0000FFFF), uint64(1<<40), int64(4096), uint8(1), uint8(5), []byte{1, 2, 3})
	f.Add(uint32(0xAAAAAAAA), uint64(31), int64(1), uint8(8), uint8(5), []byte{0xff, 0, 0xff})
	f.Fuzz(func(t *testing.T, mask uint32, base uint64, stride int64, size, lineShift uint8, jitter []byte) {
		size = size%8 + 1
		lineSize := 1 << (lineShift % 13)
		var addrs [WarpSize]uint64
		for lane := range addrs {
			addrs[lane] = base + uint64(int64(lane)*stride)
			if len(jitter) > 0 {
				// Signed byte offsets in units of the access width: lanes
				// collide, reorder and cross line boundaries.
				addrs[lane] += uint64(int64(int8(jitter[lane%len(jitter)])) * int64(size))
			}
		}
		got := coalesceLines(nil, mask, &addrs, int(size), lineSize)
		want := naiveCoalesce(mask, &addrs, int(size), lineSize)
		if !reflect.DeepEqual(got, want) && (len(got) != 0 || len(want) != 0) {
			t.Fatalf("mask %#x size %d line %d addrs %#x:\ngot  %#x\nwant %#x", mask, size, lineSize, addrs, got, want)
		}
		if n := UniqueLines(mask, &addrs, int(size), lineSize); n != len(want) {
			t.Fatalf("UniqueLines = %d, want %d", n, len(want))
		}
	})
}
