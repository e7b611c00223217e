package staticadvisor

import "cudaadvisor/internal/ir"

// FuncNamed returns the result for the named function of res, or nil.
func FuncNamed(res *ModuleResult, name string) *FuncResult {
	for _, fr := range res.Funcs {
		if fr.Fn.Name == name {
			return fr
		}
	}
	return nil
}

// BlockNamed returns the named block of fr's function, or nil.
func BlockNamed(fr *FuncResult, name string) *ir.Block {
	for _, b := range fr.Fn.Blocks {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// RegValue returns the abstract value of a register by name (Bottom if
// unknown): parameters hold the first register indices, and every other
// register is named by the instruction that defines it.
func (fr *FuncResult) RegValue(name string) Value {
	for i, p := range fr.Fn.Params {
		if p.Name == name {
			return fr.vals[i]
		}
	}
	for _, b := range fr.Fn.Blocks {
		for _, in := range b.Instrs {
			if in.Dst == name {
				return fr.vals[in.DstReg]
			}
		}
	}
	return Value{}
}

// RetOf re-derives the return-value summary of fr, a result of the
// layout-free Analyze, from its final register values: the blocks
// divergent from within the function are the influence regions of its
// branches on a varying condition.
func RetOf(fr *FuncResult) Value {
	f := fr.Fn
	pd := ir.PostDominators(f)
	div := make([]bool, len(f.Blocks))
	for _, b := range f.Blocks {
		if t := b.Terminator(); t != nil && t.Op == ir.OpCBr && (Layout{}).Varying(operandValue(&t.Args[0], fr.vals)) {
			for i, in := range influenceRegion(f, b, pd) {
				div[i] = div[i] || in
			}
		}
	}
	return retSummary(f, fr.vals, div)
}
