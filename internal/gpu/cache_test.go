package gpu

import (
	"math/rand"
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

// refL1 is the L1 as separate tag/valid/stamp arrays, dividing for the
// set index: the reference for the packed ways' victim rule (way 0 by
// default, the first invalid way from way 1 on, else the lowest stamp;
// an invalidated way keeps its stamp).
type refL1 struct {
	sets, assoc int
	shift       uint
	tags        []uint64
	valid       []bool
	lru         []int64
	stamp       int64
}

func (c *refL1) read(addr uint64) bool {
	line := addr >> c.shift
	base := int(line%uint64(c.sets)) * c.assoc
	c.stamp++
	for w := 0; w < c.assoc; w++ {
		if c.valid[base+w] && c.tags[base+w] == line {
			c.lru[base+w] = c.stamp
			return true
		}
	}
	victim := base
	for w := 1; w < c.assoc; w++ {
		if !c.valid[base+w] {
			victim = base + w
			break
		}
		if c.lru[base+w] < c.lru[victim] {
			victim = base + w
		}
	}
	c.tags[victim], c.valid[victim], c.lru[victim] = line, true, c.stamp
	return false
}

func (c *refL1) write(addr uint64) {
	line := addr >> c.shift
	base := int(line%uint64(c.sets)) * c.assoc
	for w := 0; w < c.assoc; w++ {
		if c.valid[base+w] && c.tags[base+w] == line {
			c.valid[base+w] = false
			return
		}
	}
}

// TestL1MatchesReference drives the L1 and the reference with one random
// mix of reads and stores, over masked (2 and 1 sets) and divided (3
// sets) set counts, and wants the same hit or miss on every read.
func TestL1MatchesReference(t *testing.T) {
	for _, sets := range []int{1, 2, 3} {
		cfg := testCfg()
		cfg.L1Bytes = sets * cfg.L1Assoc * cfg.L1LineSize
		c := newL1(cfg)
		n := sets * cfg.L1Assoc
		ref := &refL1{sets: sets, assoc: cfg.L1Assoc, shift: c.lineShift,
			tags: make([]uint64, n), valid: make([]bool, n), lru: make([]int64, n)}
		rng := rand.New(rand.NewSource(int64(sets)))
		for i := 0; i < 20000; i++ {
			// Line 0 included: its tag is the one the packed form offsets.
			addr := uint64(rng.Intn(4*n)) * uint64(cfg.L1LineSize)
			if rng.Intn(4) == 0 {
				c.write(addr)
				ref.write(addr)
			} else if got, want := c.read(addr), ref.read(addr); got != want {
				t.Fatalf("%d sets, access %d (line %d): hit = %v, reference %v", sets, i, addr>>c.lineShift, got, want)
			}
		}
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
}

func TestMSHRRetiresCompleted(t *testing.T) {
	m := newMSHR(1)
	m.alloc(0, 10)
	// At t=50 the previous miss has retired: no stall.
	if d := m.alloc(50, 10); d != 60 {
		t.Errorf("alloc after retire completes at %d, want 60", d)
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
// A full-mask row also goes through the executor's whole-warp path on
// its own: rowStride must accept exactly the rows at one non-negative
// stride that do not wrap, whose span its end lanes give and whose
// lines strideLines gives, where it gives them, in the reference's
// order. The last seeds are such rows — uniform and straddling, across
// lines upwards, strided 4 KB apart and 130 B apart straddling — and
// three the lane walk takes: a downward one, and two that wrap (31·stride
// overflows; the last lane falls below the first).
func FuzzCoalesceLines(f *testing.F) {
	f.Add(uint32(0xFFFFFFFF), uint64(0x1000), int64(4), uint8(4), uint8(7), []byte{})
	f.Add(uint32(0xFFFFFFFF), uint64(126), int64(-8), uint8(8), uint8(7), []byte{3, 0, 3, 9})
	f.Add(uint32(0x0000FFFF), uint64(1<<40), int64(4096), uint8(1), uint8(5), []byte{1, 2, 3})
	f.Add(uint32(0xAAAAAAAA), uint64(31), int64(1), uint8(8), uint8(5), []byte{0xff, 0, 0xff})
	f.Add(uint32(0xFFFFFFFF), uint64(0x101c), int64(0), uint8(7), uint8(5), []byte{})
	f.Add(uint32(0xFFFFFFFF), uint64(0x1006), int64(-4), uint8(3), uint8(5), []byte{})
	f.Add(uint32(0xFFFFFFFF), uint64(0x1002), int64(2), uint8(1), uint8(3), []byte{})
	f.Add(uint32(0xFFFFFFFF), uint64(0x1000), int64(4096), uint8(3), uint8(7), []byte{})
	f.Add(uint32(0xFFFFFFFF), uint64(0x107e), int64(130), uint8(3), uint8(7), []byte{})
	f.Add(uint32(0xFFFFFFFF), uint64(0x1000), int64(1<<60), uint8(3), uint8(7), []byte{})
	f.Add(uint32(0xFFFFFFFF), ^uint64(0)-64, int64(4), uint8(3), uint8(7), []byte{})
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

		step, rising := addrs[1]-addrs[0], mask == FullMask
		for l := 1; l < WarpSize; l++ {
			rising = rising && addrs[l]-addrs[l-1] == step && int64(step) >= 0 && addrs[l] >= addrs[l-1]
		}
		stride, affine := rowStride(mask, &addrs)
		if affine != rising || affine && uint64(stride) != step {
			t.Fatalf("mask %#x addrs %#x: rowStride = %d, %v; want %v", mask, addrs, stride, affine, rising)
		}
		if !affine {
			return
		}
		lo, hi := span(&addrs, mask, true)
		if wlo, whi := span(&addrs, mask, false); lo != wlo || hi != whi {
			t.Fatalf("addrs %#x: span of the end lanes [%#x, %#x], of every lane [%#x, %#x]", addrs, lo, hi, wlo, whi)
		}
		if lines, ok := strideLines(nil, addrs[0], stride, int(size), lineSize); ok && !reflect.DeepEqual(lines, want) {
			t.Fatalf("stride %d size %d line %d addrs %#x:\narithmetic %#x\nwant       %#x", stride, size, lineSize, addrs, lines, want)
		}
	})
}
