package staticadvisor

import "cudaadvisor/internal/ir"

// analyzer drives the interprocedural fixed point: each function is
// analyzed in the join of the contexts it is called in, and re-analyzed
// when a caller widens that context or a callee's return summary grows.
// Contexts and summaries only climb the lattice, so the worklist
// terminates.
type analyzer struct {
	layout  Layout
	ctxs    map[*ir.Function]*context
	local   map[*ir.Function]localResult
	summary map[*ir.Function]Value          // current return shapes
	callers map[*ir.Function][]*ir.Function // static reverse call graph

	queue  []*ir.Function
	queued map[*ir.Function]bool
}

func newAnalyzer(m *ir.Module, lay Layout) *analyzer {
	a := &analyzer{
		layout:  lay,
		ctxs:    make(map[*ir.Function]*context),
		local:   make(map[*ir.Function]localResult),
		summary: make(map[*ir.Function]Value),
		callers: make(map[*ir.Function][]*ir.Function),
		queued:  make(map[*ir.Function]bool),
	}
	for _, f := range m.Funcs {
		seen := make(map[*ir.Function]bool)
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall && in.CalleeFn != nil && !seen[in.CalleeFn] {
					seen[in.CalleeFn] = true
					a.callers[in.CalleeFn] = append(a.callers[in.CalleeFn], f)
				}
			}
		}
	}
	return a
}

func (a *analyzer) enqueue(f *ir.Function) {
	if !a.queued[f] {
		a.queued[f] = true
		a.queue = append(a.queue, f)
	}
}

// mergeContext joins ctx into f's accumulated context, scheduling f for
// (re)analysis when it widens.
func (a *analyzer) mergeContext(f *ir.Function, ctx context) {
	cur, ok := a.ctxs[f]
	if !ok {
		c := ctx
		c.args = append([]Value(nil), ctx.args...)
		a.ctxs[f] = &c
		a.enqueue(f)
		return
	}
	if cur.mergeInto(ctx) {
		a.enqueue(f)
	}
}

// run drains the worklist.
func (a *analyzer) run() {
	for len(a.queue) > 0 {
		f := a.queue[0]
		a.queue = a.queue[1:]
		a.queued[f] = false

		res := analyzeLocal(f, *a.ctxs[f], func(callee *ir.Function) Value {
			return a.summary[callee]
		}, a.layout)
		a.local[f] = res

		// Propagate call contexts with the final values of this pass.
		divEntry := a.ctxs[f].divEntry
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op != ir.OpCall || in.CalleeFn == nil {
					continue
				}
				args := make([]Value, len(in.Args))
				for i := range in.Args {
					args[i] = operandValue(&in.Args[i], res.vals)
				}
				a.mergeContext(in.CalleeFn, context{
					args:     args,
					divEntry: divEntry || res.divBlocks[b.Index],
				})
			}
		}

		// A grown return summary invalidates the callers.
		if nv := join(a.summary[f], res.ret); nv != a.summary[f] {
			a.summary[f] = nv
			for _, caller := range a.callers[f] {
				a.enqueue(caller)
			}
		}
	}
}

// funcResult assembles the reported result — divergent blocks plus the
// three checkers' findings — for one analyzed function.
func (a *analyzer) funcResult(f *ir.Function) *FuncResult {
	res := a.local[f]
	ctx := a.ctxs[f]
	pd := ir.PostDominators(f)

	fr := &FuncResult{
		Fn:             f,
		DivergentEntry: ctx.divEntry,
		Divergent:      make([]bool, len(f.Blocks)),
		vals:           res.vals,
	}
	for i := range f.Blocks {
		fr.Divergent[i] = res.divBlocks[i] || ctx.divEntry
	}

	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			switch {
			case in.Op == ir.OpCBr:
				fr.TotalBranches++
				cond := operandValue(&in.Args[0], res.vals)
				if a.layout.Varying(cond) {
					fr.Branches = append(fr.Branches, BranchFinding{
						Block: b.Name, Cond: in.Args[0].Name, Shape: cond, Loc: in.Loc,
						Region: regionBlocks(f, b, pd),
					})
				}
			case in.Op.IsMemAccess() && in.Space == ir.Global:
				addr := operandValue(&in.Args[0], res.vals)
				if addr.Shape == Bottom {
					continue // unreachable code
				}
				af := AccessFinding{
					Block: b.Name, Op: in.Op, Bytes: in.Mem.Size(), Addr: addr, Loc: in.Loc,
				}
				stride, ok := a.layout.LaneStride(addr)
				switch {
				case !ok:
					af.Class = ClassDivergent
				case stride == 0:
					af.Class = ClassUniform
				default:
					af.Stride = stride
					if abs64(stride) == int64(af.Bytes) {
						af.Class = ClassCoalesced
					} else {
						af.Class = ClassStrided
					}
				}
				fr.Accesses = append(fr.Accesses, af)
			case in.Op == ir.OpBar:
				if fr.Divergent[b.Index] {
					fr.Barriers = append(fr.Barriers, BarrierFinding{
						Block: b.Name, Loc: in.Loc,
					})
				}
			}
		}
	}
	fr.SharedAccesses, fr.Races = analyzeShared(f, res.vals, a.layout)
	return fr
}

// regionBlocks lists the blocks inside the influence region of the
// thread-varying branch terminating b, in block order, with their
// instruction counts — the static cost basis benefit estimators weigh
// dynamic divergence observations by.
func regionBlocks(f *ir.Function, b *ir.Block, pd []int) []RegionBlock {
	region := influenceRegion(f, b, pd)
	var out []RegionBlock
	for _, blk := range f.Blocks {
		if region[blk.Index] {
			out = append(out, RegionBlock{Name: blk.Name, Instrs: len(blk.Instrs)})
		}
	}
	return out
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
