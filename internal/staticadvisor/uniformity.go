package staticadvisor

import (
	"fmt"

	"cudaadvisor/internal/ir"
)

// Shape is the abstract shape of a value across the active lanes of a
// warp.
type Shape uint8

// Lattice: Bottom below everything, Varying above everything, Uniform
// and Affine incomparable in the middle.
const (
	// Bottom: no executions reach this value (initial state).
	Bottom Shape = iota
	// Uniform: every active lane holds the same value.
	Uniform
	// Affine: base + Stride*tid.x + StrideY*tid.y + StrideZ*tid.z with a
	// warp-uniform base.
	Affine
	// Varying: lanes may hold arbitrary distinct values.
	Varying
)

func (s Shape) String() string {
	switch s {
	case Bottom:
		return "unreached"
	case Uniform:
		return "uniform"
	case Affine:
		return "affine"
	case Varying:
		return "varying"
	}
	return "?"
}

// Value is an abstract value: a shape plus the per-thread-index strides
// for Affine. The strides describe the value as an exact function of the
// thread's (tid.x, tid.y, tid.z) components; whether that function
// varies between the lanes of one warp depends on the launch layout and
// is resolved by Layout.LaneStride.
type Value struct {
	Shape   Shape
	Stride  int64 // tid.x stride, meaningful only when Shape == Affine
	StrideY int64 // tid.y stride
	StrideZ int64 // tid.z stride
}

func (v Value) String() string {
	if v.Shape == Affine {
		if v.StrideY == 0 && v.StrideZ == 0 {
			return fmt.Sprintf("affine(stride %d)", v.Stride)
		}
		return fmt.Sprintf("affine(strides %d,%d,%d)", v.Stride, v.StrideY, v.StrideZ)
	}
	return v.Shape.String()
}

func uniform() Value       { return Value{Shape: Uniform} }
func affine(s int64) Value { return Value{Shape: Affine, Stride: s} }
func varying() Value       { return Value{Shape: Varying} }

func normAffine3(sx, sy, sz int64) Value {
	if sx == 0 && sy == 0 && sz == 0 {
		return uniform()
	}
	return Value{Shape: Affine, Stride: sx, StrideY: sy, StrideZ: sz}
}

// join is the lattice least upper bound.
func join(a, b Value) Value {
	if a == b || b.Shape == Bottom {
		return a
	}
	if a.Shape == Bottom {
		return b
	}
	// Distinct non-bottom values: only identical Affine stride triples
	// (caught by a == b) stay below Varying.
	return varying()
}

// Layout is the launch-geometry hint the analysis resolves thread-index
// strides against: the CTA block dimensions (ntid.x/y/z) every kernel of
// the module is launched with. The zero value means the layout is
// unknown, in which case any tid.y/tid.z dependence is conservatively
// treated as intra-warp varying (lane order interleaves y and z when
// ntid.x is not a multiple of the warp size).
type Layout struct {
	Block [3]int
}

// Known reports whether a layout hint was provided.
func (l Layout) Known() bool { return l.Block[0] > 0 }

// warpSize mirrors gpu.WarpSize without importing the simulator.
const warpSize = 32

// maxLayoutThreads bounds the lane-stride evaluation; CTAs beyond the
// hardware limit fall back to the unknown-layout treatment.
const maxLayoutThreads = 4096

// LaneStride resolves an abstract value to its per-lane stride within a
// warp: ok means every warp of the CTA sees the value change by exactly
// stride from one live lane to the next (stride 0 = warp-uniform). The
// resolution evaluates the value's exact thread-index decomposition over
// every warp of the block, so it is sound for any geometry — including
// warps that span tid.y rows or wrap tid.x.
func (l Layout) LaneStride(v Value) (stride int64, ok bool) {
	switch v.Shape {
	case Uniform:
		return 0, true
	case Affine:
	default:
		return 0, false
	}
	if !l.Known() {
		// No layout: only pure-tid.x affine values have a defined lane
		// stride (lanes hold consecutive tid.x in 1D launches).
		if v.StrideY == 0 && v.StrideZ == 0 {
			return v.Stride, true
		}
		return 0, false
	}
	bx, by, bz := l.Block[0], l.Block[1], l.Block[2]
	if by <= 0 {
		by = 1
	}
	if bz <= 0 {
		bz = 1
	}
	threads := bx * by * bz
	if threads <= 0 || threads > maxLayoutThreads {
		return 0, false
	}
	at := func(t int) int64 {
		dx := t % bx
		dy := (t / bx) % by
		dz := t / (bx * by)
		return v.Stride*int64(dx) + v.StrideY*int64(dy) + v.StrideZ*int64(dz)
	}
	first := true
	for base := 0; base < threads; base += warpSize {
		n := threads - base
		if n > warpSize {
			n = warpSize
		}
		var s int64
		if n > 1 {
			s = at(base+1) - at(base)
		}
		for i := 0; i < n; i++ {
			if at(base+i) != at(base)+int64(i)*s {
				return 0, false
			}
		}
		if n > 1 {
			if first {
				stride, first = s, false
			} else if s != stride {
				return 0, false
			}
		}
	}
	return stride, true
}

// Varying reports whether the value may differ between lanes of a warp
// under this layout.
func (l Layout) Varying(v Value) bool {
	if v.Shape == Varying {
		return true
	}
	if v.Shape != Affine {
		return false
	}
	s, ok := l.LaneStride(v)
	return !ok || s != 0
}

// laneUniform reports whether every lane of every warp holds the same
// value: the condition under which an affine value may flow through a
// non-affine operation as if it were Uniform.
func (l Layout) laneUniform(v Value) bool {
	s, ok := l.LaneStride(v)
	return ok && s == 0
}

// context is the calling context a function is analyzed in: abstract
// argument values plus whether any call site reaches the function under
// divergent control flow.
type context struct {
	args     []Value
	divEntry bool
}

func uniformContext(f *ir.Function) context {
	args := make([]Value, len(f.Params))
	for i := range args {
		args[i] = uniform()
	}
	return context{args: args}
}

// mergeInto joins other into c, reporting whether c changed.
func (c *context) mergeInto(other context) bool {
	changed := false
	for i := range c.args {
		if nv := join(c.args[i], other.args[i]); nv != c.args[i] {
			c.args[i] = nv
			changed = true
		}
	}
	if other.divEntry && !c.divEntry {
		c.divEntry = true
		changed = true
	}
	return changed
}

// localResult is the intraprocedural fixed point of one function under
// one context.
type localResult struct {
	vals []Value // per register index
	// divBlocks marks blocks inside the influence region of a
	// thread-varying branch of THIS function (entry divergence is
	// layered on by the caller).
	divBlocks []bool
	ret       Value
}

// retResolver supplies the current abstract return value of a callee.
type retResolver func(callee *ir.Function) Value

// analyzeLocal runs the uniformity fixed point over one function. The
// dataflow is flow-insensitive per register (the IR is not SSA: a
// register's abstract value is the join over its definitions), with two
// control-dependence refinements driven by the influence regions of
// thread-varying branches:
//
//   - escape taint: a register defined inside the influence region of a
//     thread-varying branch and used outside it mixes values from
//     divergent paths, so it is forced to Varying;
//   - divergent returns: a ret inside an influence region returns
//     different values to different lanes, so the function's return
//     value is Varying.
//
// Regions depend on which branches are varying, which depends on the
// values, so the whole loop iterates to a fixed point (the lattice is
// finite, taints only accumulate, and values only climb).
func analyzeLocal(f *ir.Function, ctx context, resolve retResolver, lay Layout) localResult {
	vals := make([]Value, f.NumRegs)
	for i := range f.Params {
		vals[i] = join(vals[i], ctx.args[i])
	}
	tainted := make([]bool, f.NumRegs)
	pd := ir.PostDominators(f)

	var divBlocks []bool
	for {
		// Value pass under the current taint set.
		for {
			changed := false
			for _, b := range f.Blocks {
				for _, in := range b.Instrs {
					if in.DstReg < 0 {
						continue
					}
					v := transfer(in, vals, resolve, lay)
					if tainted[in.DstReg] {
						v = varying()
					}
					if nv := join(vals[in.DstReg], v); nv != vals[in.DstReg] {
						vals[in.DstReg] = nv
						changed = true
					}
				}
			}
			if !changed {
				break
			}
		}

		// Region pass: recompute influence regions of thread-varying
		// branches and apply the escape taint.
		divBlocks = make([]bool, len(f.Blocks))
		newTaint := false
		for _, b := range f.Blocks {
			t := b.Terminator()
			if t == nil || t.Op != ir.OpCBr || !lay.Varying(operandValue(&t.Args[0], vals)) {
				continue
			}
			region := influenceRegion(f, b, pd)
			for i, inRegion := range region {
				if inRegion {
					divBlocks[i] = true
				}
			}
			for _, r := range escapingRegs(f, region) {
				if !tainted[r] {
					tainted[r] = true
					vals[r] = varying()
					newTaint = true
				}
			}
		}
		if !newTaint {
			break
		}
	}

	// Return-value summary.
	ret := Value{}
	for _, b := range f.Blocks {
		t := b.Terminator()
		if t == nil || t.Op != ir.OpRet {
			continue
		}
		if f.Result == ir.Void {
			continue
		}
		v := operandValue(&t.Args[0], vals)
		if divBlocks[b.Index] {
			// Lanes reach this ret on different executions: the values
			// they take back need not agree even if each execution's is
			// uniform.
			v = varying()
		}
		ret = join(ret, v)
	}

	return localResult{vals: vals, divBlocks: divBlocks, ret: ret}
}

// escapingRegs returns the registers with a definition inside the
// region and a use outside it.
func escapingRegs(f *ir.Function, region []bool) []int {
	defIn := make([]bool, f.NumRegs)
	useOut := make([]bool, f.NumRegs)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if region[b.Index] && in.DstReg >= 0 {
				defIn[in.DstReg] = true
			}
			if !region[b.Index] {
				for i := range in.Args {
					if in.Args[i].Kind == ir.KReg {
						useOut[in.Args[i].Reg] = true
					}
				}
			}
		}
	}
	var out []int
	for r := 0; r < f.NumRegs; r++ {
		if defIn[r] && useOut[r] {
			out = append(out, r)
		}
	}
	return out
}

// operandValue abstracts one operand: immediates are warp-uniform,
// registers carry their current abstract value.
func operandValue(o *ir.Operand, vals []Value) Value {
	if o.Kind != ir.KReg {
		return uniform()
	}
	return vals[o.Reg]
}

// constOf returns the integer value of a constant operand.
func constOf(o *ir.Operand) (int64, bool) {
	if o.Kind == ir.KConstInt {
		return o.Int, true
	}
	return 0, false
}

// transfer computes the abstract result of one value-producing
// instruction.
func transfer(in *ir.Instr, vals []Value, resolve retResolver, lay Layout) Value {
	arg := func(i int) Value { return operandValue(&in.Args[i], vals) }

	switch {
	case in.Op == ir.OpAdd || in.Op == ir.OpSub:
		a, b := arg(0), arg(1)
		if a.Shape == Bottom || b.Shape == Bottom {
			return Value{}
		}
		sa, sb := stridesOf(a), stridesOf(b)
		if sa == nil || sb == nil {
			return varying()
		}
		if in.Op == ir.OpSub {
			return normAffine3(sa[0]-sb[0], sa[1]-sb[1], sa[2]-sb[2])
		}
		return normAffine3(sa[0]+sb[0], sa[1]+sb[1], sa[2]+sb[2])
	case in.Op == ir.OpMul:
		return mulValue(arg(0), arg(1), &in.Args[0], &in.Args[1], lay)
	case in.Op == ir.OpShl:
		a, b := arg(0), arg(1)
		if a.Shape == Bottom || b.Shape == Bottom {
			return Value{}
		}
		if c, ok := constOf(&in.Args[1]); ok && a.Shape == Affine && c >= 0 && c < 32 {
			return normAffine3(a.Stride<<uint(c), a.StrideY<<uint(c), a.StrideZ<<uint(c))
		}
		return uniformOrVarying(lay, a, b)
	case in.Op.IsIntBinary() || in.Op.IsFloatBinary():
		return uniformOrVarying(lay, arg(0), arg(1))
	case in.Op.IsFloatUnary():
		return uniformOrVarying(lay, arg(0))
	case in.Op == ir.OpICmp || in.Op == ir.OpFCmp:
		a, b := arg(0), arg(1)
		if a.Shape == Bottom || b.Shape == Bottom {
			return Value{}
		}
		// Operands whose difference is warp-uniform compare identically
		// on every lane (e.g. tid-derived loop bounds compared against
		// tid-derived counters). The difference of two affine values is
		// affine in the stride deltas; resolve it against the layout.
		if sa, sb := stridesOf(a), stridesOf(b); sa != nil && sb != nil {
			diff := normAffine3(sa[0]-sb[0], sa[1]-sb[1], sa[2]-sb[2])
			if lay.laneUniform(diff) {
				return uniform()
			}
		}
		return uniformOrVarying(lay, a, b)
	case in.Op == ir.OpSelect:
		p, a, b := arg(0), arg(1), arg(2)
		if p.Shape == Bottom {
			return Value{}
		}
		if lay.Varying(p) {
			return varying()
		}
		return join(a, b)
	case in.Op == ir.OpMov:
		return arg(0)
	case in.Op == ir.OpSext || in.Op == ir.OpTrunc:
		return arg(0) // stride-preserving width changes
	case in.Op == ir.OpSitofp || in.Op == ir.OpFptosi || in.Op == ir.OpZext:
		return uniformOrVarying(lay, arg(0))
	case in.Op == ir.OpGEP:
		base, idx := arg(0), arg(1)
		if base.Shape == Bottom || idx.Shape == Bottom {
			return Value{}
		}
		sb, si := stridesOf(base), stridesOf(idx)
		if sb == nil || si == nil {
			return varying()
		}
		return normAffine3(sb[0]+si[0]*in.Scale, sb[1]+si[1]*in.Scale, sb[2]+si[2]*in.Scale)
	case in.Op == ir.OpLd:
		a := arg(0)
		if a.Shape == Bottom {
			return Value{}
		}
		if a.Shape == Uniform || lay.laneUniform(a) {
			// All active lanes load the same address in lockstep and
			// observe the same value: a warp-level broadcast.
			return uniform()
		}
		return varying()
	case in.Op == ir.OpAtom:
		// Atomics return the pre-update value: serialized per lane,
		// distinct even at a uniform address.
		return varying()
	case in.Op == ir.OpSReg:
		switch in.SReg {
		case ir.SRegTidX:
			return affine(1)
		case ir.SRegTidY:
			// Exact index decomposition; whether tid.y varies within a
			// warp is resolved against the launch layout at every
			// consumption point (warp-uniform when ntid.x is a multiple
			// of the warp size, interleaved otherwise).
			return Value{Shape: Affine, StrideY: 1}
		case ir.SRegTidZ:
			return Value{Shape: Affine, StrideZ: 1}
		default:
			return uniform() // ctaid/ntid/nctaid are warp-invariant
		}
	case in.Op == ir.OpShPtr:
		return uniform()
	case in.Op == ir.OpCall:
		if in.CalleeFn == nil {
			return Value{} // hook intrinsics produce no value
		}
		return resolve(in.CalleeFn)
	}
	return varying()
}

// stridesOf views a value as an affine function of the thread index:
// Uniform has all-zero strides, Affine its stride triple, Varying none
// (nil).
func stridesOf(v Value) *[3]int64 {
	switch v.Shape {
	case Uniform:
		return &[3]int64{}
	case Affine:
		return &[3]int64{v.Stride, v.StrideY, v.StrideZ}
	}
	return nil
}

// mulValue handles multiplication: affine values scale by constant
// factors; anything else collapses to uniform-or-varying.
func mulValue(a, b Value, oa, ob *ir.Operand, lay Layout) Value {
	if a.Shape == Bottom || b.Shape == Bottom {
		return Value{}
	}
	if c, ok := constOf(ob); ok && a.Shape == Affine {
		return normAffine3(a.Stride*c, a.StrideY*c, a.StrideZ*c)
	}
	if c, ok := constOf(oa); ok && b.Shape == Affine {
		return normAffine3(b.Stride*c, b.StrideY*c, b.StrideZ*c)
	}
	return uniformOrVarying(lay, a, b)
}

// uniformOrVarying joins operands through an operation with no affine
// transfer: uniform in, uniform out; anything thread-dependent in,
// varying out. Affine operands that the layout resolves to a zero lane
// stride (e.g. tid.y when ntid.x is a multiple of the warp size) count
// as uniform — the operation's result is the same on every lane.
func uniformOrVarying(lay Layout, vs ...Value) Value {
	out := Value{}
	for _, v := range vs {
		switch {
		case v.Shape == Bottom:
			return Value{}
		case v.Shape == Uniform:
			out = join(out, uniform())
		case v.Shape == Affine && lay.laneUniform(v):
			out = join(out, uniform())
		default:
			return varying()
		}
	}
	return out
}
