// Package staticadvisor is the static counterpart of the dynamic
// profiler: a uniformity (divergence) dataflow analysis over the
// miniature IR that predicts, from bitcode alone, the hazards the
// profiler measures at runtime — divergent branches (Table 3), memory
// divergence at the coalescer (Figure 5), and barriers reachable under
// divergent control flow (which the simulator reports only as a runtime
// "divergent barrier" fault).
//
// The analysis is a fixed-point over a small abstract-value lattice:
//
//	Bottom < {Uniform, Affine(stride)} < Varying
//
// Uniform means every active lane of a warp holds the same value;
// Affine means the value is a warp-uniform base plus a constant stride
// per tid.x/tid.y/tid.z component, the shape structured address
// arithmetic produces; Varying is any other per-lane value.
// Thread-index sources seed the lattice (tid.x is Affine with x-stride
// 1, tid.y/tid.z with unit y/z strides; ctaid/ntid/nctaid are Uniform).
// Whether a stride triple varies WITHIN a warp depends on the launch
// geometry: AnalyzeLayout resolves the triples against the CTA block
// dimensions (Layout.LaneStride), so e.g. tid.y is recognized as
// warp-uniform when ntid.x is a multiple of the warp size, while the
// layout-free Analyze stays conservative.
// Values propagate through registers, loads, device-function calls,
// and — via the influence regions of thread-varying branches computed
// with ir.PostDominators — through control dependence.
//
// Soundness is one-sided by design: the analysis may flag a branch or
// block that never diverges on a particular input (a false positive),
// but a branch the profiler observes diverging is always flagged. The
// cross-validation test in this package checks that property against
// the dynamic profiler on all ten benchmark applications. Like every
// static divergence analysis it assumes well-formed kernels: a register
// is read only on executions that previously wrote it.
package staticadvisor

import (
	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/ir"
)

// Analyze runs the interprocedural uniformity analysis over a module
// with no launch-layout hint: tid.y/tid.z dependence is conservatively
// intra-warp varying. See AnalyzeLayout.
func Analyze(m *ir.Module) (*ModuleResult, error) {
	return AnalyzeLayout(m, Layout{})
}

// AnalyzeLayout runs the interprocedural uniformity analysis over a
// module and derives the three checkers' findings for every function.
// The module is finalized if it is not already.
//
// The layout is the CTA block-dimension hint every kernel of the module
// is launched with; it lets the analysis resolve tid.y/tid.z strides to
// per-lane behaviour (e.g. tid.y is warp-uniform when ntid.x is a
// multiple of the warp size) instead of treating any 2D/3D indexing as
// divergent. The zero Layout keeps the conservative treatment, and a
// hint that does not match the actual launches voids the one-sided
// soundness guarantee.
//
// Kernels are analyzed with uniform parameters (launch arguments are
// warp-invariant); device functions are analyzed in the join of the
// contexts they are called from. Device functions never called from the
// module are analyzed standalone, as if called uniformly.
func AnalyzeLayout(m *ir.Module, lay Layout) (*ModuleResult, error) {
	if err := m.Finalize(); err != nil {
		return nil, err
	}
	a := newAnalyzer(m, lay)

	// Seed every kernel: parameters are uniform, entry is convergent.
	for _, f := range m.Funcs {
		if f.IsKernel {
			a.mergeContext(f, uniformContext(f))
		}
	}
	a.run()

	// Device functions unreachable from any kernel still get linted,
	// under the least pessimistic assumption (uniform call).
	for _, f := range m.Funcs {
		if _, ok := a.ctxs[f]; !ok {
			a.mergeContext(f, uniformContext(f))
			a.run()
		}
	}

	res := &ModuleResult{Module: m}
	for _, f := range m.Funcs {
		res.Funcs = append(res.Funcs, a.funcResult(f))
	}
	return res, nil
}

// ModuleResult holds the per-function analysis results in module order.
type ModuleResult struct {
	Module *ir.Module
	Funcs  []*FuncResult
}

// FuncResult is the analysis of one function under the join of every
// context it is reachable in.
type FuncResult struct {
	Fn             *ir.Function
	DivergentEntry bool // some call site enters this function under divergent control

	// Divergent, indexed by Block.Index, marks blocks that may execute
	// with a partial warp: blocks inside the influence region of a
	// thread-varying branch, or any block when the entry is divergent.
	Divergent []bool

	// TotalBranches counts the function's conditional branches;
	// Branches lists the thread-varying ones.
	TotalBranches int
	Branches      []BranchFinding

	// Accesses classifies every global-memory load/store/atomic.
	Accesses []AccessFinding

	// SharedAccesses classifies every shared-memory load/store/atomic by
	// its predicted bank-conflict degree.
	SharedAccesses []SharedAccessFinding

	// Races lists intra-CTA shared-memory write/read hazards: pairs in
	// one barrier interval that can touch the same bank word from
	// different threads.
	Races []RaceFinding

	// Barriers lists bar instructions reachable under divergent control
	// — the static form of the simulator's "divergent barrier" fault.
	Barriers []BarrierFinding

	vals []Value // final abstract value per register index
}

// DivergentBlockCount returns how many blocks may execute divergently.
func (fr *FuncResult) DivergentBlockCount() int {
	n := 0
	for _, d := range fr.Divergent {
		if d {
			n++
		}
	}
	return n
}

// BranchFinding is a conditional branch whose condition is
// thread-varying: the static prediction of a Table 3 divergent site.
type BranchFinding struct {
	Block string
	Cond  string // condition register name
	Shape Value  // abstract condition value (Affine or Varying)
	Loc   ir.Loc

	// Region lists the blocks inside the branch's influence region —
	// the blocks that may execute with a partial warp because of this
	// branch — with their instruction counts, the cost basis benefit
	// estimation weighs dynamic divergence by.
	Region []RegionBlock
}

// RegionBlock is one block of a branch's influence region.
type RegionBlock struct {
	Name   string
	Instrs int
}

// AccessClass classifies a global-memory address expression by the
// coalescer behaviour it predicts.
type AccessClass uint8

// Address classes, from best to worst.
const (
	// ClassUniform: all lanes touch one address — one line per warp.
	ClassUniform AccessClass = iota
	// ClassCoalesced: unit stride — consecutive lanes touch consecutive
	// elements, the minimum number of lines for the access width.
	ClassCoalesced
	// ClassStrided: a known constant stride larger than the element —
	// the coalescer needs proportionally more lines.
	ClassStrided
	// ClassDivergent: no static structure — up to one line per lane.
	ClassDivergent
)

func (c AccessClass) String() string {
	switch c {
	case ClassUniform:
		return "uniform"
	case ClassCoalesced:
		return "coalesced"
	case ClassStrided:
		return "strided"
	case ClassDivergent:
		return "divergent"
	}
	return "?"
}

// AccessFinding is the static classification of one global-memory
// instruction: the prediction of what the profiler's Figure 5
// unique-lines measurement will see at this site.
type AccessFinding struct {
	Block  string
	Op     ir.Op // OpLd, OpSt or OpAtom
	Bytes  int   // access width
	Addr   Value // abstract address
	Class  AccessClass
	Stride int64 // byte stride per lane step (Affine addresses under the layout)
	Loc    ir.Loc
}

// PredictedLines returns the number of distinct cache lines of the
// given size a full 32-lane warp is predicted to touch at this site,
// counted by the simulator's own gpu.UniqueLines. The estimate assumes a
// line-aligned base and lanes with consecutive tid.x, the layout used by
// 1D kernels; negative addresses are taken mod 2^64, a multiple of every
// line size.
func (a AccessFinding) PredictedLines(lineSize int) int {
	switch a.Class {
	case ClassUniform:
		return 1
	case ClassCoalesced, ClassStrided:
		var addrs [gpu.WarpSize]uint64
		for lane := range addrs {
			addrs[lane] = uint64(int64(lane) * a.Stride)
		}
		return min(gpu.UniqueLines(gpu.FullMask, &addrs, a.Bytes, lineSize), gpu.WarpSize)
	default:
		return gpu.WarpSize
	}
}

// BarrierFinding is a bar instruction reachable under divergent control
// flow: executed with a partial warp it deadlocks real hardware, and
// the simulator faults with "divergent barrier".
type BarrierFinding struct {
	Block string
	Loc   ir.Loc
}
