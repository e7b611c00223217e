// Package trace defines the performance-data records CUDAAdvisor's
// profiler collects during kernel execution: memory-access entries (the
// paper's Record() payload: effective address, access width, source
// location, CTA and thread identity), basic-block execution entries (the
// passBasicBlock() payload), and the interned calling-context tree that
// code-centric profiling concatenates across host and device.
//
// A memory record is a fixed 48-byte value that does not carry its 32
// lane addresses. KernelTrace.AddMem encodes them: as (base, lane
// stride, row stride) when the active lanes are affine in their
// position within the thread block's rows, and otherwise as an offset
// into the trace's arena of explicit addresses. KernelTrace.LaneAddrs
// is the one decoder, so a record is meaningful only together with the
// trace that encoded it.
//
// A trace holds its records until Release; a capped one (SetCap) keeps a
// deterministic per-warp sample of them and counts every event offered.
// Nothing flushes full buffers to the host as the paper's profiler does
// (Section 3.2).
package trace

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"cudaadvisor/internal/ir"
)

// WarpSize mirrors gpu.WarpSize without importing the simulator.
const WarpSize = 32

// AccessKind classifies a memory record.
type AccessKind uint8

// Memory access kinds.
const (
	Load AccessKind = iota
	Store
	Atomic
)

func (k AccessKind) String() string {
	switch k {
	case Load:
		return "load"
	case Store:
		return "store"
	case Atomic:
		return "atomic"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MemAccess is one warp-level memory event: the per-thread Record()
// entries of one executed memory instruction, grouped by warp. The
// effective addresses of the active lanes are encoded by
// KernelTrace.AddMem and read back with KernelTrace.LaneAddrs.
type MemAccess struct {
	CTA   int32
	Warp  int32 // warp id within the CTA
	Mask  uint32
	Kind  AccessKind
	Space ir.Space
	Bits  uint8 // access width in bits
	// Affine form: lane l holds base + stride*(l mod W) + rowStride*(l
	// div W), W being the trace's row width. Explicit form: base is the
	// arena offset of the first active lane's address.
	explicit  bool
	Loc       int32 // LocTable id of the source location
	Ctx       int32 // ContextTree id of the calling context
	base      uint64
	stride    int64
	rowStride int64
}

// BlockExec is one warp-level basic-block entry event (passBasicBlock()).
type BlockExec struct {
	CTA      int32
	Warp     int32
	Mask     uint32 // lanes that entered the block
	InitMask uint32 // the warp's full mask at kernel start
	Block    int32  // block id in the instrumentation tables
	Loc      int32
	Ctx      int32
}

// Divergent reports whether this dynamic block execution diverged: not
// every live thread of the warp executed it.
func (b BlockExec) Divergent() bool { return b.Mask != b.InitMask }

// KernelTrace is the full profile buffer of one kernel instance, copied
// "back to the host" at kernel exit.
//
// The Mem and Blocks buffers are unbounded by default. Under SetCap,
// AddMem/AddBlock keep each buffer within the cap by deterministic
// sampling that keeps every Nth access per warp (GPA-style degradation):
// the sampling period starts at 1 and doubles at each overflow, and the
// buffer is compacted to exactly the records the new period would have
// kept.
//
// MemSeen/BlocksSeen count every event offered, and SharedSeen the
// shared-memory ones among MemSeen, so analyses can report their
// coverage fraction instead of silently undercounting.
type KernelTrace struct {
	Kernel   string
	Instance int
	Grid     [3]int
	Block    [3]int

	Mem    []MemAccess
	Blocks []BlockExec

	// arena holds the active-lane addresses of Mem's explicit records,
	// in record order; rowShift is log2 of the affine form's row width
	// (Block[0] when rows of the thread block share a warp, else 32).
	arena    []uint64
	rowShift uint8

	Locs *LocTable

	// limit bounds each of Mem and Blocks (0 = unbounded); set by SetCap.
	limit int

	// MemSeen/BlocksSeen count events offered to AddMem/AddBlock,
	// SharedSeen the shared-memory events offered to AddMem.
	MemSeen    int64
	BlocksSeen int64
	SharedSeen int64

	// MemSampleN/BlockSampleN are the current sampling periods (power of
	// two, 1 = record everything); meaningful only under SetCap.
	MemSampleN   int64
	BlockSampleN int64

	memWarpSeen   map[warpID]int64
	blockWarpSeen map[warpID]int64

	memReleased, blocksReleased int64 // records Release let go of
}

type warpID struct{ cta, warp int32 }

// NewKernelTrace returns an empty trace with a fresh location table.
func NewKernelTrace(kernel string, instance int, grid, block [3]int) *KernelTrace {
	w := WarpSize
	if block[0] > 0 && WarpSize%block[0] == 0 {
		w = block[0]
	}
	return &KernelTrace{
		Kernel: kernel, Instance: instance, Grid: grid, Block: block,
		rowShift: uint8(bits.TrailingZeros(uint(w))),
		Locs:     NewLocTable(),
	}
}

// SetCap bounds the Mem and Blocks buffers at n records each (n > 0),
// before anything is recorded.
func (t *KernelTrace) SetCap(n int) {
	t.limit = n
	t.MemSampleN, t.BlockSampleN = 1, 1
	t.memWarpSeen, t.blockWarpSeen = make(map[warpID]int64), make(map[warpID]int64)
}

// AddMem records one warp-level memory event under the buffer policy:
// rec carries the header, addrs the effective address of every lane in
// rec.Mask (other lanes are ignored).
func (t *KernelTrace) AddMem(rec MemAccess, addrs *[WarpSize]uint64) {
	t.MemSeen++
	if rec.Space == ir.Shared {
		t.SharedSeen++
	}
	if t.limit > 0 && !t.admit(len(t.Mem), &t.MemSampleN, t.memWarpSeen, warpID{rec.CTA, rec.Warp}, t.compactMem) {
		return
	}
	t.appendMem(rec, addrs)
}

// admit applies the sampling policy to one offered event of warp id, for
// a buffer holding n records: it compacts the buffer when it is full and
// reports whether the event is to be appended (its per-warp seq is a
// multiple of the period).
func (t *KernelTrace) admit(n int, period *int64, seen map[warpID]int64, id warpID, compact func()) bool {
	seq := seen[id]
	seen[id] = seq + 1
	if n >= t.limit && seq%*period == 0 {
		// Double the period and compact: keeping every other record per
		// warp turns the kept set from seq%N==0 into seq%2N==0 exactly.
		*period *= 2
		compact()
	}
	return seq%*period == 0
}

// appendMem is the one encoder. A full mask is affine when one scan of
// the lane differences finds the lane stride between neighbours in a row
// and one row step between rows. Under any other mask it proposes
// strides — the lane stride from the first two active lanes that share a
// row, the row stride from the first active lanes of two rows — and
// keeps the affine form only if it reproduces every active lane exactly.
// All arithmetic is modulo 2^64; a row that is not affine sends the
// active lanes' addresses to the arena.
func (t *KernelTrace) appendMem(rec MemAccess, addrs *[WarpSize]uint64) {
	rec.explicit, rec.base, rec.stride, rec.rowStride = false, 0, 0, 0
	sh, xMask := t.rowShift, 1<<t.rowShift-1
	switch {
	case rec.Mask == 1<<WarpSize-1:
		var stride, step uint64
		if xMask > 0 {
			stride = addrs[1] - addrs[0]
		}
		if xMask < WarpSize-1 {
			step = addrs[xMask+1] - addrs[xMask]
		}
		for l := 1; l < WarpSize && !rec.explicit; l++ {
			want := step
			if l&xMask != 0 {
				want = stride
			}
			rec.explicit = addrs[l]-addrs[l-1] != want
		}
		rec.base, rec.stride = addrs[0], int64(stride)
		if xMask < WarpSize-1 {
			rec.rowStride = int64(step + stride*uint64(xMask))
		}
	case rec.Mask != 0:
		first := bits.TrailingZeros32(rec.Mask)
		for prev, rest := first, rec.Mask&(rec.Mask-1); rest != 0; rest &= rest - 1 {
			l := bits.TrailingZeros32(rest)
			if l>>sh == prev>>sh {
				rec.stride = int64(addrs[l]-addrs[prev]) / int64(l-prev)
				break
			}
			prev = l
		}
		origin := addrs[first] - uint64(rec.stride)*uint64(first&xMask)
		if later := rec.Mask &^ (uint32(1)<<((first>>sh+1)<<sh) - 1); later != 0 {
			l := bits.TrailingZeros32(later)
			d := addrs[l] - uint64(rec.stride)*uint64(l&xMask) - origin
			rec.rowStride = int64(d) / int64(l>>sh-first>>sh)
		}
		rec.base = origin - uint64(rec.rowStride)*uint64(first>>sh)
		for rest := rec.Mask; rest != 0 && !rec.explicit; rest &= rest - 1 {
			l := bits.TrailingZeros32(rest)
			rec.explicit = addrs[l] != rec.laneAddr(l, sh)
		}
	}
	if rec.explicit {
		rec.base, rec.stride, rec.rowStride = uint64(len(t.arena)), 0, 0
		for rest := rec.Mask; rest != 0; rest &= rest - 1 {
			t.arena = append(t.arena, addrs[bits.TrailingZeros32(rest)])
		}
	}
	t.Mem = append(t.Mem, rec)
}

// laneAddr evaluates the affine form at lane l.
func (m *MemAccess) laneAddr(l int, rowShift uint8) uint64 {
	return m.base + uint64(m.stride)*uint64(l&(1<<rowShift-1)) + uint64(m.rowStride)*uint64(l>>rowShift)
}

// Uniform returns the one address every active lane of m, a record of
// t.Mem, holds, and whether there is one: an affine record with no lane
// and no row stride. A record with no active lane has none.
func (t *KernelTrace) Uniform(m *MemAccess) (uint64, bool) {
	return m.base, m.Mask != 0 && !m.explicit && m.stride == 0 && m.rowStride == 0
}

// LaneAddrs expands m, a record of t.Mem, into the effective address of every lane in m.Mask.
// Lanes outside the mask are left unspecified.
func (t *KernelTrace) LaneAddrs(m *MemAccess, out *[WarpSize]uint64) {
	if m.explicit {
		src := t.arena[m.base:]
		for i, rest := 0, m.Mask; rest != 0; i, rest = i+1, rest&(rest-1) {
			out[bits.TrailingZeros32(rest)] = src[i]
		}
		return
	}
	w := 1 << t.rowShift
	for l, row := 0, m.base; l < WarpSize; l, row = l+w, row+uint64(m.rowStride) {
		for a, x := row, l; x < l+w; a, x = a+uint64(m.stride), x+1 {
			out[x] = a
		}
	}
}

// compactMem drops every other record per warp and packs the addresses
// of the explicit records that remain at the front of the arena.
func (t *KernelTrace) compactMem() {
	t.Mem = compactEveryOther(t.Mem, func(m *MemAccess) warpID { return warpID{m.CTA, m.Warp} })
	n := 0
	for i := range t.Mem {
		if m := &t.Mem[i]; m.explicit {
			k := bits.OnesCount32(m.Mask)
			copy(t.arena[n:n+k], t.arena[m.base:])
			m.base, n = uint64(n), n+k
		}
	}
	t.arena = t.arena[:n]
}

// AddBlock records one warp-level basic-block event under the buffer
// policy (same semantics as AddMem).
func (t *KernelTrace) AddBlock(rec BlockExec) {
	t.BlocksSeen++
	if t.limit > 0 && !t.admit(len(t.Blocks), &t.BlockSampleN, t.blockWarpSeen, warpID{rec.CTA, rec.Warp}, t.compactBlocks) {
		return
	}
	t.Blocks = append(t.Blocks, rec)
}

func (t *KernelTrace) compactBlocks() {
	t.Blocks = compactEveryOther(t.Blocks, func(b *BlockExec) warpID { return warpID{b.CTA, b.Warp} })
}

// compactEveryOther keeps every other record per warp, in order: kept
// positions 0, 2, 4, … of each warp's subsequence. If the kept set was
// the per-warp seqs divisible by N, the result is exactly those
// divisible by 2N.
func compactEveryOther[T any](recs []T, key func(*T) warpID) []T {
	pos := make(map[warpID]int64)
	out := recs[:0]
	for i := range recs {
		id := key(&recs[i])
		if pos[id]%2 == 0 {
			out = append(out, recs[i])
		}
		pos[id]++
	}
	return out
}

// AppendAll moves the records of frags, uncapped traces of the same
// thread-block shape, onto the end of t in order, as if each had been
// added to t directly: fragment i's locations are interned into t.Locs
// in its id order, each of its records' Ctx becomes ctxs[i][Ctx], its
// explicit records are rebased onto t's arena, and its event counts add
// to t's. Mem, Blocks and the arena grow once, to the size they end at,
// and each fragment is left without records once copied.
func (t *KernelTrace) AppendAll(frags []*KernelTrace, ctxs [][]int32) {
	var nMem, nBlocks, nArena int
	for _, f := range frags {
		nMem, nBlocks, nArena = nMem+len(f.Mem), nBlocks+len(f.Blocks), nArena+len(f.arena)
	}
	t.Mem, t.Blocks, t.arena = slices.Grow(t.Mem, nMem), slices.Grow(t.Blocks, nBlocks), slices.Grow(t.arena, nArena)
	for i, f := range frags {
		locs := make([]int32, len(f.Locs.locs))
		for j, loc := range f.Locs.locs {
			locs[j] = t.Locs.Intern(loc)
		}
		ctx, base := ctxs[i], uint64(len(t.arena))
		t.arena = append(t.arena, f.arena...)
		for _, m := range f.Mem {
			m.Loc, m.Ctx = locs[m.Loc], ctx[m.Ctx]
			if m.explicit {
				m.base += base
			}
			t.Mem = append(t.Mem, m)
		}
		for _, b := range f.Blocks {
			b.Loc, b.Ctx = locs[b.Loc], ctx[b.Ctx]
			t.Blocks = append(t.Blocks, b)
		}
		t.MemSeen += f.MemSeen
		t.BlocksSeen += f.BlocksSeen
		t.SharedSeen += f.SharedSeen
		f.Mem, f.Blocks, f.arena = nil, nil, nil
	}
}

// Release lets go of the record buffers, the arena and the sampling
// state, once everything that reads records has been derived. The
// header, Locs and the coverage counts stay as they were.
func (t *KernelTrace) Release() {
	t.memReleased += int64(len(t.Mem))
	t.blocksReleased += int64(len(t.Blocks))
	t.Mem, t.Blocks, t.arena = nil, nil, nil
	t.memWarpSeen, t.blockWarpSeen = nil, nil
}

// MemCoverage returns how many memory events the buffer holds (held,
// once released) versus how many were offered: the sampling coverage an
// analysis over t.Mem should report. seen is 0 when nothing was recorded.
func (t *KernelTrace) MemCoverage() (recorded, seen int64) {
	return int64(len(t.Mem)) + t.memReleased, t.MemSeen
}

// BlocksCoverage is MemCoverage for the basic-block buffer.
func (t *KernelTrace) BlocksCoverage() (recorded, seen int64) {
	return int64(len(t.Blocks)) + t.blocksReleased, t.BlocksSeen
}

// LocTable interns source locations.
type LocTable struct {
	locs  []ir.Loc
	index map[ir.Loc]int32
}

// NewLocTable returns an empty table.
func NewLocTable() *LocTable {
	return &LocTable{index: make(map[ir.Loc]int32)}
}

// Intern returns the id for loc, adding it if new.
func (t *LocTable) Intern(loc ir.Loc) int32 {
	if id, ok := t.index[loc]; ok {
		return id
	}
	id := int32(len(t.locs))
	t.locs = append(t.locs, loc)
	t.index[loc] = id
	return id
}

// UnknownLoc is the sentinel returned for out-of-range location ids: an
// explicit "??" file, distinguishable from any real interned entry
// (Intern never stores it) and from a merely-empty ir.Loc.
var UnknownLoc = ir.Loc{File: "??"}

// Loc returns the location for an id, or UnknownLoc if the id was never
// interned in this table.
func (t *LocTable) Loc(id int32) ir.Loc {
	if id < 0 || int(id) >= len(t.locs) {
		return UnknownLoc
	}
	return t.locs[id]
}

// Len returns the number of interned locations.
func (t *LocTable) Len() int { return len(t.locs) }

// Frame is one level of a calling context: a function plus the source
// location of the call site (or of the frame itself for roots).
type Frame struct {
	Func   string
	Loc    ir.Loc
	Device bool // GPU-side frame
}

func (f Frame) String() string {
	side := "CPU"
	if f.Device {
		side = "GPU"
	}
	return fmt.Sprintf("[%s] %s():: %s", side, f.Func, f.Loc)
}

// ContextTree interns calling contexts as a tree: every node is a frame
// plus a parent, so a full call path is recovered by walking to the root.
// Node 0 is the empty root context.
type ContextTree struct {
	parent []int32
	frame  []Frame
	index  map[ctxKey]int32
}

type ctxKey struct {
	parent int32
	frame  Frame
}

// NewContextTree returns a tree holding only the root context (id 0).
func NewContextTree() *ContextTree {
	return &ContextTree{
		parent: []int32{-1},
		frame:  []Frame{{}},
		index:  make(map[ctxKey]int32),
	}
}

// Root is the id of the empty context.
const Root int32 = 0

// Child returns the context id for frame called from parent, interning a
// new node if needed.
func (t *ContextTree) Child(parent int32, f Frame) int32 {
	k := ctxKey{parent, f}
	if id, ok := t.index[k]; ok {
		return id
	}
	id := int32(len(t.parent))
	t.parent = append(t.parent, parent)
	t.frame = append(t.frame, f)
	t.index[k] = id
	return id
}

// Parent returns the parent id of a context (Root's parent is -1).
func (t *ContextTree) Parent(id int32) int32 {
	if id <= 0 || int(id) >= len(t.parent) {
		return -1
	}
	return t.parent[id]
}

// UnknownFrame is the sentinel returned for out-of-range context ids: an
// explicit "??" function, distinguishable from the root's empty frame
// and from any interned node.
var UnknownFrame = Frame{Func: "??", Loc: UnknownLoc}

// Frame returns the frame of a context node, or UnknownFrame if the id
// does not name a node of this tree.
func (t *ContextTree) Frame(id int32) Frame {
	if id < 0 || int(id) >= len(t.frame) {
		return UnknownFrame
	}
	return t.frame[id]
}

// Path returns the frames from the outermost caller (e.g. main) down to
// the context itself.
func (t *ContextTree) Path(id int32) []Frame {
	var rev []Frame
	for id > 0 && int(id) < len(t.frame) {
		rev = append(rev, t.frame[id])
		id = t.parent[id]
	}
	out := make([]Frame, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, rev[i])
	}
	return out
}

// Len returns the number of nodes including the root.
func (t *ContextTree) Len() int { return len(t.parent) }

// FormatPath renders a call path in the style of the paper's Figure 8:
// indexed frames, host first, then device.
func FormatPath(frames []Frame) string {
	var b strings.Builder
	for i, f := range frames {
		side := "CPU"
		if f.Device {
			side = "GPU"
		}
		fmt.Fprintf(&b, "%s %d: %s():: %s:%d\n", side, i, f.Func, f.Loc.File, f.Loc.Line)
	}
	return b.String()
}
