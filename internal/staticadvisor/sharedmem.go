package staticadvisor

import (
	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/ir"
)

// bankPeriod is the byte distance at which the simulator's bank pattern
// repeats.
const bankPeriod = gpu.NumBanks * gpu.BankWidth

// SharedAccessFinding is the static classification of one shared-memory
// instruction: the predicted per-warp bank-conflict degree at this site,
// the mirror of AccessFinding for the shared address space.
type SharedAccessFinding struct {
	Block string
	Op    ir.Op  // OpLd, OpSt or OpAtom
	Bytes int    // access width
	Decl  string // shared array the address points into ("" unknown, "*" ambiguous)
	Addr  Value  // abstract address (uniformity lattice)

	// Degree is the predicted worst-case conflict degree: the maximum
	// number of distinct bank words any one bank must serve for one warp
	// access (1 = conflict-free, 32 = fully serialized).
	Degree int
	// Broadcast marks a warp-uniform address: all lanes read one word.
	Broadcast bool
	// Stride is the per-lane byte stride when the analysis resolved one
	// (valid only when StrideKnown); the basis for padding advice.
	Stride      int64
	StrideKnown bool

	Loc ir.Loc
}

// RaceFinding is a statically detected intra-CTA shared-memory hazard: a
// thread-varying write and a read of the same shared array that can
// touch the same bank word from different threads within one barrier
// interval — the static form of the simulator's last-writer check.
type RaceFinding struct {
	Decl       string // shared array ("" if unknown)
	WriteBlock string
	WriteLoc   ir.Loc
	ReadBlock  string
	ReadLoc    ir.Loc
}

// BankDegreeStride computes the worst-case conflict degree of a full
// 32-lane warp whose lane addresses advance by a constant byte stride,
// maximized over every naturally aligned base phase within the 128-byte
// bank period (the base of a shared array access is warp-uniform but
// generally unknown statically; shared accesses are naturally aligned,
// so only bases at multiples of the access width can occur). Each warp
// is counted by the simulator's own gpu.BankConflictDegree, negative
// addresses taken mod 2^64 (a multiple of the bank period). For
// word-aligned strides the degree is phase-invariant, so the prediction
// is exact; otherwise it is a sound upper bound.
func BankDegreeStride(stride int64, bytes int) int {
	step := int64(max(bytes, 1))
	if step&(step-1) != 0 {
		// Non-power-of-two widths carry no alignment guarantee.
		step = 1
	}
	deg := 1
	var addrs [gpu.WarpSize]uint64
	for base := int64(0); base < bankPeriod && deg < gpu.WarpSize; base += step {
		for lane := range addrs {
			addrs[lane] = uint64(base + stride*int64(lane))
		}
		deg = max(deg, gpu.BankConflictDegree(gpu.FullMask, &addrs, bytes))
	}
	return deg
}

// aexpr is the exact affine address expression of a register: a known
// constant base plus per-axis thread-index strides, with provenance to
// the shared array the pointer points into. Unlike Value, the base is
// tracked exactly, which lets the race detector compare the addresses
// two different threads compute. The decl component forms its own small
// lattice: "" (no shared provenance) < name < "*" (several arrays).
type aexpr struct {
	lvl  uint8 // aBottom, aExact or aTop
	base int64
	s    [3]int64 // tid.x/y/z byte strides
	decl string
}

const (
	aBottom uint8 = iota
	aExact
	aTop
)

func declJoin(a, b string) string {
	switch {
	case a == b, b == "":
		return a
	case a == "":
		return b
	}
	return "*"
}

func ajoin(a, b aexpr) aexpr {
	if a.lvl == aBottom {
		return b
	}
	if b.lvl == aBottom {
		return a
	}
	d := declJoin(a.decl, b.decl)
	if a.lvl == aExact && b.lvl == aExact && a.base == b.base && a.s == b.s {
		return aexpr{lvl: aExact, base: a.base, s: a.s, decl: d}
	}
	return aexpr{lvl: aTop, decl: d}
}

func aconst(v int64) aexpr { return aexpr{lvl: aExact, base: v} }

func atop(decl string) aexpr { return aexpr{lvl: aTop, decl: decl} }

// sharedExprs runs the exact-affine fixed point over one function,
// mirroring the flow-insensitive register dataflow of analyzeLocal: a
// register's expression is the join over its definitions. The lattice
// is finite (bottom < exact < top per register, three decl levels), so
// the iteration terminates.
func sharedExprs(f *ir.Function, lay Layout) []aexpr {
	exprs := make([]aexpr, f.NumRegs)
	for i, p := range f.Params {
		e := atop("")
		if p.Type == ir.Ptr && !f.IsKernel {
			// Device functions may receive pointers into any shared
			// array of their callers.
			e.decl = "*"
		}
		exprs[i] = e
	}
	for {
		changed := false
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.DstReg < 0 {
					continue
				}
				v := sharedTransfer(in, exprs, lay, f)
				if nv := ajoin(exprs[in.DstReg], v); nv != exprs[in.DstReg] {
					exprs[in.DstReg] = nv
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return exprs
}

// sharedTransfer computes the exact-affine result of one instruction.
func sharedTransfer(in *ir.Instr, exprs []aexpr, lay Layout, f *ir.Function) aexpr {
	arg := func(i int) aexpr {
		o := &in.Args[i]
		if o.Kind == ir.KConstInt {
			return aconst(o.Int)
		}
		if o.Kind != ir.KReg {
			return atop("")
		}
		return exprs[o.Reg]
	}
	combine := func(a, b aexpr, sign int64) aexpr {
		if a.lvl == aBottom || b.lvl == aBottom {
			return aexpr{}
		}
		d := declJoin(a.decl, b.decl)
		if a.lvl != aExact || b.lvl != aExact {
			return atop(d)
		}
		return aexpr{lvl: aExact, base: a.base + sign*b.base,
			s: [3]int64{a.s[0] + sign*b.s[0], a.s[1] + sign*b.s[1], a.s[2] + sign*b.s[2]}, decl: d}
	}
	scale := func(a aexpr, c int64) aexpr {
		if a.lvl != aExact {
			return a
		}
		return aexpr{lvl: aExact, base: a.base * c,
			s: [3]int64{a.s[0] * c, a.s[1] * c, a.s[2] * c}, decl: a.decl}
	}

	switch {
	case in.Op == ir.OpAdd:
		return combine(arg(0), arg(1), 1)
	case in.Op == ir.OpSub:
		return combine(arg(0), arg(1), -1)
	case in.Op == ir.OpMul:
		a, b := arg(0), arg(1)
		if a.lvl == aBottom || b.lvl == aBottom {
			return aexpr{}
		}
		if c, ok := constOf(&in.Args[1]); ok && a.lvl == aExact {
			return scale(a, c)
		}
		if c, ok := constOf(&in.Args[0]); ok && b.lvl == aExact {
			return scale(b, c)
		}
		return atop(declJoin(a.decl, b.decl))
	case in.Op == ir.OpShl:
		a := arg(0)
		if a.lvl == aBottom {
			return aexpr{}
		}
		if c, ok := constOf(&in.Args[1]); ok && a.lvl == aExact && c >= 0 && c < 32 {
			return scale(a, 1<<uint(c))
		}
		return atop(a.decl)
	case in.Op == ir.OpMov, in.Op == ir.OpSext, in.Op == ir.OpTrunc:
		return arg(0)
	case in.Op == ir.OpGEP:
		base, idx := arg(0), arg(1)
		if base.lvl == aBottom || idx.lvl == aBottom {
			return aexpr{}
		}
		return combine(base, scale(idx, in.Scale), 1)
	case in.Op == ir.OpShPtr:
		off := int64(0)
		if sd := f.SharedArray(in.Callee); sd != nil {
			off = sd.Offset
		}
		return aexpr{lvl: aExact, base: off, decl: in.Callee}
	case in.Op == ir.OpSReg:
		switch in.SReg {
		case ir.SRegTidX:
			return aexpr{lvl: aExact, s: [3]int64{1, 0, 0}}
		case ir.SRegTidY:
			return aexpr{lvl: aExact, s: [3]int64{0, 1, 0}}
		case ir.SRegTidZ:
			return aexpr{lvl: aExact, s: [3]int64{0, 0, 1}}
		case ir.SRegNtidX, ir.SRegNtidY, ir.SRegNtidZ:
			if lay.Known() {
				d := int(in.SReg - ir.SRegNtidX)
				n := lay.Block[d]
				if n <= 0 {
					n = 1
				}
				return aconst(int64(n))
			}
			return atop("")
		default:
			// ctaid/nctaid vary across CTAs: not a constant base.
			return atop("")
		}
	case in.Op == ir.OpSelect:
		a, b := arg(1), arg(2)
		return ajoin(ajoin(a, b), atop(declJoin(a.decl, b.decl)))
	case in.Op == ir.OpCall:
		if in.DstReg >= 0 && f.RegTypes[in.DstReg] == ir.Ptr {
			// A device function may return a pointer into any shared array.
			return atop("*")
		}
		return atop("")
	}
	// Loads never yield shared pointers (no MemType registers as Ptr),
	// and everything else has no affine structure.
	return atop("")
}

// sharedDegree predicts the conflict degree of one shared access. The
// exact expression plus a known layout lets the analysis evaluate every
// warp of the CTA with the dynamic counter's own model; a known lane
// stride falls back to the phase-maximized stride degree; anything else
// is conservatively fully serialized. Soundness is one-sided: the
// prediction never undershoots what the simulator measures.
func sharedDegree(e aexpr, v Value, lay Layout, bytes int) (degree int, broadcast bool, stride int64, strideKnown bool) {
	if s, ok := lay.LaneStride(v); ok {
		stride, strideKnown = s, true
	}
	if e.lvl == aExact {
		if d, ok := exactWarpDegree(e, lay, bytes); ok {
			return d, strideKnown && stride == 0, stride, strideKnown
		}
		if e.s[1] == 0 && e.s[2] == 0 {
			// Pure tid.x indexing needs no layout: lanes hold
			// consecutive tid.x in 1D launches.
			if e.s[0] == 0 {
				return 1, true, 0, true
			}
			return BankDegreeStride(e.s[0], bytes), false, e.s[0], true
		}
	}
	if strideKnown {
		if stride == 0 {
			return 1, true, 0, true
		}
		return BankDegreeStride(stride, bytes), false, stride, true
	}
	return gpu.WarpSize, false, 0, false
}

// exactWarpDegree evaluates an exact address expression over every warp
// of the CTA layout and returns the worst per-warp conflict degree, each
// warp counted by gpu.BankConflictDegree over its live lanes.
func exactWarpDegree(e aexpr, lay Layout, bytes int) (int, bool) {
	g, ok := lay.geometry()
	if !ok {
		return 0, false
	}
	deg := 1
	var addrs [gpu.WarpSize]uint64
	for base := 0; base < g.threads; base += gpu.WarpSize {
		n := min(g.threads-base, gpu.WarpSize)
		for i := 0; i < n; i++ {
			addrs[i] = uint64(g.addr(e, base+i))
		}
		deg = max(deg, gpu.BankConflictDegree(uint32(1<<n-1), &addrs, bytes))
	}
	return deg, true
}

// sharedAccess pairs one shared-memory instruction with its static
// address information for the race detector.
type sharedAccess struct {
	block *ir.Block
	in    *ir.Instr
	e     aexpr
	v     Value
}

// analyzeShared derives the shared-memory findings of one function: the
// per-access bank-conflict classification and the intra-CTA race pairs.
func analyzeShared(f *ir.Function, vals []Value, lay Layout) ([]SharedAccessFinding, []RaceFinding) {
	exprs := sharedExprs(f, lay)

	var accesses []SharedAccessFinding
	var writes, reads []sharedAccess
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if !in.Op.IsMemAccess() || in.Space != ir.Shared {
				continue
			}
			v := operandValue(&in.Args[0], vals)
			if v.Shape == Bottom {
				continue // unreachable code
			}
			e := exprs[in.Args[0].Reg]
			if in.Args[0].Kind != ir.KReg {
				e = aconst(in.Args[0].Int)
			}
			deg, bcast, stride, sknown := sharedDegree(e, v, lay, in.Mem.Size())
			accesses = append(accesses, SharedAccessFinding{
				Block: b.Name, Op: in.Op, Bytes: in.Mem.Size(), Decl: e.decl, Addr: v,
				Degree: deg, Broadcast: bcast, Stride: stride, StrideKnown: sknown,
				Loc: in.Loc,
			})
			acc := sharedAccess{block: b, in: in, e: e, v: v}
			if in.Op == ir.OpSt || in.Op == ir.OpAtom {
				writes = append(writes, acc)
			}
			if in.Op == ir.OpLd {
				reads = append(reads, acc)
			}
		}
	}

	races := detectRaces(f, writes, reads, lay)
	return accesses, races
}

// detectRaces runs the barrier-interval dataflow: intervals are the sets
// of instructions reachable bar-free from an interval start point (the
// kernel entry or the continuation of a bar), and a thread-varying write
// plus a read of the same shared array in one interval is a hazard
// unless the exact address expressions prove every thread reads only
// words it wrote itself.
func detectRaces(f *ir.Function, writes, reads []sharedAccess, lay Layout) []RaceFinding {
	if len(writes) == 0 || len(reads) == 0 {
		return nil
	}
	candidate := make(map[*ir.Instr]bool, len(writes)+len(reads))
	var varyingWrites []sharedAccess
	for _, w := range writes {
		if lay.Varying(w.v) {
			varyingWrites = append(varyingWrites, w)
			candidate[w.in] = true
		}
	}
	if len(varyingWrites) == 0 {
		return nil
	}
	for _, r := range reads {
		candidate[r.in] = true
	}

	type pairKey struct{ w, r *ir.Instr }
	seen := make(map[pairKey]bool)
	var out []RaceFinding
	forEachInterval(f, func(reach map[*ir.Instr]bool) {
		for _, w := range varyingWrites {
			if !reach[w.in] {
				continue
			}
			for _, r := range reads {
				if !reach[r.in] || seen[pairKey{w.in, r.in}] {
					continue
				}
				if !declMatch(w.e.decl, r.e.decl) || !conflictPossible(w, r, lay) {
					continue
				}
				seen[pairKey{w.in, r.in}] = true
				out = append(out, RaceFinding{
					Decl:       declJoin(w.e.decl, r.e.decl),
					WriteBlock: w.block.Name, WriteLoc: w.in.Loc,
					ReadBlock: r.block.Name, ReadLoc: r.in.Loc,
				})
			}
		}
	}, candidate)
	return out
}

// forEachInterval invokes fn once per barrier-interval start point with
// the set of candidate instructions reachable from it along bar-free
// CFG paths. Start points are visited in program order (entry first,
// then each bar's continuation), keeping the pair enumeration — and
// with it every report — deterministic.
func forEachInterval(f *ir.Function, fn func(reach map[*ir.Instr]bool), candidate map[*ir.Instr]bool) {
	type start struct {
		b   *ir.Block
		idx int
	}
	starts := []start{{f.Entry(), 0}}
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			if in.Op == ir.OpBar {
				starts = append(starts, start{b, i + 1})
			}
		}
	}
	for _, s := range starts {
		if s.b == nil {
			continue
		}
		reach := make(map[*ir.Instr]bool)
		// scan marks candidates from index from to the block's first bar;
		// it reports whether the scan ran off the end (no bar).
		scan := func(b *ir.Block, from int) bool {
			for j := from; j < len(b.Instrs); j++ {
				in := b.Instrs[j]
				if in.Op == ir.OpBar {
					return false
				}
				if candidate[in] {
					reach[in] = true
				}
			}
			return true
		}
		visited := make(map[*ir.Block]bool)
		var queue []*ir.Block
		if scan(s.b, s.idx) {
			queue = append(queue, s.b.Succs...)
		}
		for len(queue) > 0 {
			b := queue[0]
			queue = queue[1:]
			if visited[b] {
				continue
			}
			visited[b] = true
			if scan(b, 0) {
				queue = append(queue, b.Succs...)
			}
		}
		fn(reach)
	}
}

// declMatch reports whether two provenance strings may name the same
// shared array ("" and "*" are unknowns that match anything).
func declMatch(a, b string) bool {
	if a == "" || b == "" || a == "*" || b == "*" {
		return true
	}
	return a == b
}

// conflictPossible reports whether the write and the read can touch the
// same bank word from different threads. With exact expressions and a
// known layout the check enumerates the CTA's threads at word
// granularity — the same model as the simulator's last-writer stamp;
// without a layout, only identical word-aligned disjoint per-thread
// slots are provably safe. Anything unresolvable is a hazard.
func conflictPossible(w, r sharedAccess, lay Layout) bool {
	wb, rb := int64(w.in.Mem.Size()), int64(r.in.Mem.Size())
	if w.e.lvl != aExact || r.e.lvl != aExact {
		return true
	}
	if ok, safe := exactOverlap(w.e, r.e, wb, rb, lay); ok {
		return !safe
	}
	// Layout unknown: safe only when each thread reads exactly the
	// word-aligned slot it wrote (identical expression and width, word
	// multiple stride covering the access, pure tid.x indexing).
	if w.e.base == r.e.base && w.e.s == r.e.s && wb == rb &&
		w.e.s[1] == 0 && w.e.s[2] == 0 {
		st := w.e.s[0]
		if st < 0 {
			st = -st
		}
		width := (wb + gpu.BankWidth - 1) &^ (gpu.BankWidth - 1)
		if st%gpu.BankWidth == 0 && st >= width && w.e.base%gpu.BankWidth == 0 {
			return false
		}
	}
	return true
}

// exactOverlap enumerates the CTA under the layout: ok reports whether
// the enumeration applies, safe whether every read word was written
// only by the reading thread (or not written at all).
func exactOverlap(we, re aexpr, wb, rb int64, lay Layout) (ok, safe bool) {
	g, ok := lay.geometry()
	if !ok {
		return false, false
	}
	type writer struct {
		thread int
		multi  bool
	}
	writers := make(map[int64]*writer)
	for t := 0; t < g.threads; t++ {
		a := g.addr(we, t)
		for wd := floorDiv(a); wd <= floorDiv(a+wb-1); wd++ {
			if cur, okw := writers[wd]; okw {
				if cur.thread != t {
					cur.multi = true
				}
			} else {
				writers[wd] = &writer{thread: t}
			}
		}
	}
	for t := 0; t < g.threads; t++ {
		a := g.addr(re, t)
		for wd := floorDiv(a); wd <= floorDiv(a+rb-1); wd++ {
			if cur, okw := writers[wd]; okw && (cur.multi || cur.thread != t) {
				return true, false
			}
		}
	}
	return true, true
}

// floorDiv returns the bank word holding byte address a, a floor division.
func floorDiv(a int64) int64 {
	q := a / gpu.BankWidth
	if a%gpu.BankWidth != 0 && a < 0 {
		q--
	}
	return q
}
