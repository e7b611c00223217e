// Package instrument is CUDAAdvisor's instrumentation engine: the
// "LLVM pass" of Section 3.1 that rewrites device bitcode, inserting
// calls to analysis functions at the program points the profiler needs.
//
// Mandatory instrumentation (always inserted) brackets every device
// function call with shadow-stack push/pop hooks so the profiler can
// reconstruct GPU call paths (Section 3.2.1). The host side of the
// mandatory instrumentation — call/return, malloc family, cudaMalloc,
// cudaMemcpy — is raised by the host runtime in package rt, this
// reproduction's stand-in for instrumented host bitcode.
//
// Optional instrumentation mirrors the paper's three categories:
//
//   - memory operations: a Record() hook after every load/store/atomic,
//     receiving the effective address, access width in bits, kind and
//     address space (Listing 1/2);
//   - control flow: a passBasicBlock() hook at every basic-block entry,
//     receiving the block's identity (Listing 3/4);
//   - arithmetic operations: a hook after every arithmetic instruction
//     receiving the operator identity.
//
// Every hook call carries the source location (file/line/column debug
// information) of the instruction it monitors.
package instrument

import (
	"fmt"

	"cudaadvisor/internal/ir"
	"cudaadvisor/internal/pass"
)

// Hook callee names dispatched by the profiler. They use ir.HookPrefix so
// the executor treats them as intrinsics rather than device functions
// (the paper compiles its analysis functions separately and merges them
// with llvm-link; interpreter intrinsics are this reproduction's
// equivalent).
const (
	// HookMem records a memory operation:
	// (addr ptr, bits i32, kind i32 /*trace.AccessKind*/, space i32).
	HookMem = ir.HookPrefix + "record_mem"
	// HookBB records a basic-block entry: (blockID i32).
	HookBB = ir.HookPrefix + "record_bb"
	// HookPush pushes a device shadow-stack frame before a call:
	// (funcID i32).
	HookPush = ir.HookPrefix + "call_push"
	// HookPop pops the device shadow stack after a call returns: ().
	HookPop = ir.HookPrefix + "call_pop"
	// HookArith records an arithmetic operation: (opID i32).
	HookArith = ir.HookPrefix + "record_arith"
)

// Options selects the optional instrumentation categories.
type Options struct {
	// Memory instruments loads, stores and atomics (Section 4.2 A/B).
	Memory bool
	// SharedMemory extends Memory to the shared address space (off by
	// default: the paper's cache analyses concern global memory).
	SharedMemory bool
	// Blocks instruments basic-block entries (Section 4.2 C).
	Blocks bool
	// Arith instruments arithmetic operations.
	Arith bool
}

// MemoryAndBlocks is the configuration the paper's evaluation uses for
// its overhead measurements ("memory and control flow instrumentation").
func MemoryAndBlocks() Options { return Options{Memory: true, Blocks: true} }

// MemorySharedAndBlocks is MemoryAndBlocks extended into the shared
// address space: shared loads/stores also raise HookMem, and launches run
// with the simulator's shared-memory watch (bank-conflict counters and
// the last-writer race check) enabled.
func MemorySharedAndBlocks() Options {
	return Options{Memory: true, SharedMemory: true, Blocks: true}
}

// BlockInfo describes one instrumented basic block (the string table the
// paper stores in GPU global memory for passBasicBlock).
type BlockInfo struct {
	Func  string
	Block string
}

// Tables is the side information the engine emits alongside the rewritten
// module: the function-id encoding map (the paper's "encoding map from
// the number to function name", Section 3.2.1) and the block-id table.
type Tables struct {
	Funcs  []string
	Blocks []BlockInfo

	funcID map[string]int32
}

// FuncName returns the name for a function id.
func (t *Tables) FuncName(id int32) string {
	if id < 0 || int(id) >= len(t.Funcs) {
		return fmt.Sprintf("<func %d>", id)
	}
	return t.Funcs[id]
}

// Block returns the info for a block id.
func (t *Tables) Block(id int32) BlockInfo {
	if id < 0 || int(id) >= len(t.Blocks) {
		return BlockInfo{Func: "<?>", Block: fmt.Sprintf("<block %d>", id)}
	}
	return t.Blocks[id]
}

// Program is an instrumented module plus its tables — the reproduction's
// analog of the fat binary the paper's engine produces.
type Program struct {
	Module *ir.Module
	Tables *Tables
	Opts   Options
}

// NativeProgram wraps an uninstrumented module so it can be launched
// through the host runtime (the baseline builds of Section 5).
func NativeProgram(m *ir.Module) *Program { return &Program{Module: m} }

// Engine inserts instrumentation. It satisfies pass.Pass so it can run
// inside a pass pipeline, exactly as the paper's engine runs under opt.
type Engine struct {
	opts   Options
	tables *Tables
}

// NewEngine returns an engine with the given optional categories.
func NewEngine(opts Options) *Engine { return &Engine{opts: opts} }

// Name implements pass.Pass.
func (e *Engine) Name() string { return "cudaadvisor-instrument" }

// Run implements pass.Pass: it rewrites every function in place.
func (e *Engine) Run(m *ir.Module) (bool, error) {
	// Refuse double instrumentation: hook calls in the input mean the
	// module was already processed.
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.IsHookCall() {
					return false, fmt.Errorf("module %s already instrumented (found %s)", m.Name, in.Callee)
				}
			}
		}
	}

	t := &Tables{funcID: make(map[string]int32)}
	for _, f := range m.Funcs {
		t.funcID[f.Name] = int32(len(t.Funcs))
		t.Funcs = append(t.Funcs, f.Name)
	}

	changed := false
	for _, f := range m.Funcs {
		if e.instrumentFunc(f, t) {
			changed = true
		}
	}
	e.tables = t
	return changed, nil
}

// Instrument rewrites the module in place and returns the resulting
// Program. The module is re-finalized and verified.
func Instrument(m *ir.Module, opts Options) (*Program, error) {
	e := NewEngine(opts)
	pm := pass.NewManager(e)
	if err := pm.Run(m); err != nil {
		return nil, err
	}
	return &Program{Module: m, Tables: e.tables, Opts: opts}, nil
}

func (e *Engine) instrumentFunc(f *ir.Function, t *Tables) bool {
	changed := false
	for _, b := range f.Blocks {
		out := make([]*ir.Instr, 0, len(b.Instrs)*2)

		if e.opts.Blocks {
			// The paper's pass retrieves the basic block's name, its
			// source location from debug info, and emits a call to
			// passBasicBlock (Listing 3).
			id := int32(len(t.Blocks))
			loc := ir.Loc{}
			if len(b.Instrs) > 0 {
				loc = b.Instrs[0].Loc
			}
			t.Blocks = append(t.Blocks, BlockInfo{Func: f.Name, Block: b.Name})
			out = append(out, hookCall(HookBB, loc, ir.I32Op(int64(id))))
			changed = true
		}

		for _, in := range b.Instrs {
			switch {
			case in.Op.IsMemAccess() && e.opts.Memory &&
				(in.Space == ir.Global || e.opts.SharedMemory):
				// Listing 1/2: pass the effective address (the pointer
				// operand), the width in bits, and the operation kind to
				// Record(), keeping the monitored instruction's debug
				// location on the hook call.
				kind := int64(0) // trace.Load
				switch in.Op {
				case ir.OpSt:
					kind = 1 // trace.Store
				case ir.OpAtom:
					kind = 2 // trace.Atomic
				}
				out = append(out, in)
				out = append(out, hookCall(HookMem, in.Loc,
					in.Args[0], // effective address
					ir.I32Op(int64(in.Mem.Bits())),
					ir.I32Op(kind),
					ir.I32Op(int64(in.Space)),
				))
				changed = true
			case in.Op == ir.OpCall:
				// Mandatory: bracket device calls with shadow-stack
				// push/pop so code-centric profiling can reconstruct the
				// GPU call path.
				id := t.funcID[in.Callee]
				out = append(out,
					hookCall(HookPush, in.Loc, ir.I32Op(int64(id))),
					in,
					hookCall(HookPop, in.Loc),
				)
				changed = true
			case in.Op.IsArith() && e.opts.Arith:
				out = append(out, in)
				out = append(out, hookCall(HookArith, in.Loc, ir.I32Op(int64(in.Op))))
				changed = true
			default:
				out = append(out, in)
			}
		}
		b.Instrs = out
	}
	return changed
}

func hookCall(name string, loc ir.Loc, args ...ir.Operand) *ir.Instr {
	return &ir.Instr{
		Op:     ir.OpCall,
		Callee: name,
		Args:   args,
		Loc:    loc,
		DstReg: -1, ThenIdx: -1, ElseIdx: -1,
	}
}
