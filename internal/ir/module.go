package ir

import (
	"fmt"
	"math"
)

// Param is a function or kernel parameter.
type Param struct {
	Name string
	Type Type
}

// SharedDecl declares a per-CTA shared-memory array inside a kernel.
// Offset is assigned by Finalize (arrays are laid out in declaration
// order, 8-byte aligned).
type SharedDecl struct {
	Name   string
	Elem   MemType
	Count  int
	Offset int64
}

// Bytes returns the array's size in bytes. A non-positive count sizes
// to 0, and a product that would overflow int64 saturates at MaxInt64,
// so an absurd declaration can never wrap into a small or negative
// layout — it instead exceeds every device's shared-memory capacity and
// is rejected at launch.
func (s SharedDecl) Bytes() int64 {
	if s.Count <= 0 {
		return 0
	}
	elem := int64(s.Elem.Size())
	if elem <= 0 {
		return 0
	}
	if int64(s.Count) > math.MaxInt64/elem {
		return math.MaxInt64
	}
	return elem * int64(s.Count)
}

// Block is a basic block: a label plus a straight-line instruction list
// ending in exactly one terminator.
type Block struct {
	Name   string
	Index  int // position in Function.Blocks, set by Finalize
	Instrs []*Instr

	// CFG edges, computed by Finalize.
	Succs []*Block
	Preds []*Block
}

// Terminator returns the block's final instruction, or nil if the block is
// empty or not yet terminated.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	t := b.Instrs[len(b.Instrs)-1]
	if !t.Op.IsTerminator() {
		return nil
	}
	return t
}

// Function is a kernel or device function.
type Function struct {
	Name     string
	IsKernel bool
	Params   []Param
	Result   Type // Void for kernels
	Shared   []SharedDecl
	Blocks   []*Block

	// Register allocation, built by Finalize: parameters occupy indices
	// [0, len(Params)); other registers follow in first-definition order.
	NumRegs  int
	RegTypes []Type
	regIndex map[string]int

	SharedBytes int64 // total shared memory, after Finalize

	mod *Module // owning module, after Finalize

	finalized bool
}

// Module is a translation unit: a set of kernels and device functions,
// the analog of an LLVM module holding the device bitcode.
type Module struct {
	Name  string
	Funcs []*Function

	byName map[string]*Function

	generation uint64
}

// NewModule returns an empty module.
func NewModule(name string) *Module {
	return &Module{Name: name, byName: make(map[string]*Function)}
}

// AddFunc appends a function to the module.
func (m *Module) AddFunc(f *Function) {
	m.Funcs = append(m.Funcs, f)
	if m.byName == nil {
		m.byName = make(map[string]*Function)
	}
	m.byName[f.Name] = f
}

// Func returns the named function, or nil.
func (m *Module) Func(name string) *Function {
	if m.byName != nil {
		if f, ok := m.byName[name]; ok {
			return f
		}
	}
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Kernels returns the module's kernels in declaration order.
func (m *Module) Kernels() []*Function {
	var ks []*Function
	for _, f := range m.Funcs {
		if f.IsKernel {
			ks = append(ks, f)
		}
	}
	return ks
}

// Finalize resolves names to indices in every function (registers, block
// targets, callees), lays out shared memory, and recomputes CFG edges.
// It must be called after construction and after any transformation pass
// that adds instructions or blocks. Finalize is idempotent.
func (m *Module) Finalize() error {
	m.generation++
	if m.byName == nil {
		m.byName = make(map[string]*Function)
		for _, f := range m.Funcs {
			m.byName[f.Name] = f
		}
	}
	for _, f := range m.Funcs {
		if err := f.finalize(m); err != nil {
			return fmt.Errorf("module %s: %w", m.Name, err)
		}
	}
	return nil
}

// Generation counts the module's Finalize calls. A consumer that caches
// something derived from the module (the simulator's decoded form) keys
// it on the generation, so a transformation followed by the Finalize it
// requires invalidates the cache.
func (m *Module) Generation() uint64 { return m.generation }

// Block returns the named block, or nil.
func (f *Function) Block(name string) *Block {
	for _, b := range f.Blocks {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// Entry returns the function's entry block.
func (f *Function) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// RegIndex returns the register index for a name, or -1.
func (f *Function) RegIndex(name string) int {
	if i, ok := f.regIndex[name]; ok {
		return i
	}
	return -1
}

// SharedArray returns the named shared declaration, or nil.
func (f *Function) SharedArray(name string) *SharedDecl {
	for i := range f.Shared {
		if f.Shared[i].Name == name {
			return &f.Shared[i]
		}
	}
	return nil
}

// Module returns the owning module (nil before Finalize).
func (f *Function) Module() *Module { return f.mod }

func (f *Function) finalize(m *Module) error {
	f.mod = m

	// Lay out shared memory.
	off := int64(0)
	for i := range f.Shared {
		off = (off + 7) &^ 7
		f.Shared[i].Offset = off
		off += f.Shared[i].Bytes()
	}
	f.SharedBytes = (off + 7) &^ 7

	// Assign register indices: params first, then destinations in order.
	f.regIndex = make(map[string]int)
	f.RegTypes = f.RegTypes[:0]
	addReg := func(name string, t Type) (int, error) {
		if idx, ok := f.regIndex[name]; ok {
			if f.RegTypes[idx] != t {
				return -1, fmt.Errorf("func %s: register %%%s redefined with type %s (was %s)",
					f.Name, name, t, f.RegTypes[idx])
			}
			return idx, nil
		}
		idx := len(f.RegTypes)
		f.regIndex[name] = idx
		f.RegTypes = append(f.RegTypes, t)
		return idx, nil
	}
	for _, p := range f.Params {
		if _, err := addReg(p.Name, p.Type); err != nil {
			return err
		}
	}

	blockIdx := make(map[string]int, len(f.Blocks))
	for i, b := range f.Blocks {
		b.Index = i
		if prev, dup := blockIdx[b.Name]; dup {
			return fmt.Errorf("func %s: duplicate block name %q (blocks %d and %d)", f.Name, b.Name, prev, i)
		}
		blockIdx[b.Name] = i
	}

	// First pass: register destinations (definition order) with types
	// derived from the instruction.
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Dst == "" {
				in.DstReg = -1
				continue
			}
			t, err := f.resultType(in)
			if err != nil {
				return fmt.Errorf("func %s block %s: %s: %w", f.Name, b.Name, in, err)
			}
			idx, err := addReg(in.Dst, t)
			if err != nil {
				return err
			}
			in.DstReg = idx
		}
	}
	f.NumRegs = len(f.RegTypes)

	// Second pass: resolve operand registers, branch targets, callees, and
	// assign context types to constant operands (so parsers need not type
	// literals themselves).
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for i := range in.Args {
				a := &in.Args[i]
				if a.Kind != KReg {
					if err := f.typeConstOperand(in, i); err != nil {
						return fmt.Errorf("func %s block %s: %s: %w", f.Name, b.Name, in, err)
					}
					continue
				}
				idx, ok := f.regIndex[a.Name]
				if !ok {
					return fmt.Errorf("func %s block %s: %s: undefined register %%%s", f.Name, b.Name, in, a.Name)
				}
				a.Reg = idx
				a.Type = f.RegTypes[idx]
			}
			in.ThenIdx, in.ElseIdx = -1, -1
			if in.Then != "" {
				idx, ok := blockIdx[in.Then]
				if !ok {
					return fmt.Errorf("func %s block %s: %s: unknown target %q", f.Name, b.Name, in, in.Then)
				}
				in.ThenIdx = idx
			}
			if in.Else != "" {
				idx, ok := blockIdx[in.Else]
				if !ok {
					return fmt.Errorf("func %s block %s: %s: unknown target %q", f.Name, b.Name, in, in.Else)
				}
				in.ElseIdx = idx
			}
			if in.Op == OpCall && !in.IsHookCall() {
				callee := m.Func(in.Callee)
				if callee == nil {
					return fmt.Errorf("func %s block %s: call to undefined function @%s", f.Name, b.Name, in.Callee)
				}
				in.CalleeFn = callee
			}
		}
	}

	f.computeCFG()
	f.finalized = true
	return nil
}

// typeConstOperand assigns the context-expected type to the constant
// operand in.Args[i], converting integer literals to float where a float
// is expected (so "fadd f32 %v, 1" works).
func (f *Function) typeConstOperand(in *Instr, i int) error {
	var want Type
	switch {
	case in.Op.IsIntBinary() || in.Op == OpICmp:
		want = in.Type
	case in.Op.IsFloatBinary() || in.Op.IsFloatUnary() || in.Op == OpFCmp:
		want = F32
	case in.Op == OpSelect:
		if i == 0 {
			want = I1
		} else {
			want = in.Type
		}
	case in.Op == OpMov:
		want = in.Type
	case in.Op == OpSitofp:
		want = I32
	case in.Op == OpFptosi:
		want = F32
	case in.Op == OpSext:
		want = I32
	case in.Op == OpTrunc:
		want = I64
	case in.Op == OpZext:
		want = I1
	case in.Op == OpGEP:
		if i == 0 {
			want = Ptr
		} else {
			want = I64
		}
	case in.Op == OpLd:
		want = Ptr
	case in.Op == OpSt, in.Op == OpAtom:
		if i == 0 {
			want = Ptr
		} else {
			want = in.Mem.RegType()
		}
	case in.Op == OpCBr:
		want = I1
	case in.Op == OpRet:
		want = f.Result
	case in.Op == OpCall:
		if in.IsHookCall() {
			// Hook arguments keep their literal types; integer literals
			// default to I32 and floats to F32.
			a := &in.Args[i]
			if a.Type == Void {
				if a.Kind == KConstFloat {
					a.Type = F32
				} else {
					a.Type = I32
				}
			}
			return nil
		}
		callee := f.mod.Func(in.Callee)
		if callee == nil || i >= len(callee.Params) {
			return fmt.Errorf("bad call argument %d", i)
		}
		want = callee.Params[i].Type
	default:
		return fmt.Errorf("constant operand not allowed for %s", in.Op)
	}
	a := &in.Args[i]
	if want == F32 && a.Kind == KConstInt {
		a.Kind = KConstFloat
		a.F = float64(a.Int)
	}
	if want != F32 && a.Kind == KConstFloat {
		return fmt.Errorf("float literal where %s expected", want)
	}
	a.Type = want
	return nil
}

// resultType computes the register type produced by an instruction.
func (f *Function) resultType(in *Instr) (Type, error) {
	switch {
	case in.Op.IsIntBinary():
		if !in.Type.IsInt() {
			return Void, fmt.Errorf("integer op on %s", in.Type)
		}
		return in.Type, nil
	case in.Op.IsFloatBinary() || in.Op.IsFloatUnary():
		if in.Type != F32 {
			return Void, fmt.Errorf("float op on %s", in.Type)
		}
		return F32, nil
	case in.Op == OpICmp || in.Op == OpFCmp:
		return I1, nil
	case in.Op == OpSelect, in.Op == OpMov:
		return in.Type, nil
	case in.Op == OpSitofp:
		return F32, nil
	case in.Op == OpFptosi:
		return I32, nil
	case in.Op == OpSext:
		return I64, nil
	case in.Op == OpTrunc:
		return I32, nil
	case in.Op == OpZext:
		return I32, nil
	case in.Op == OpGEP, in.Op == OpShPtr:
		return Ptr, nil
	case in.Op == OpLd, in.Op == OpAtom:
		return in.Mem.RegType(), nil
	case in.Op == OpSReg:
		return I32, nil
	case in.Op == OpCall:
		if in.IsHookCall() {
			return Void, fmt.Errorf("hook call %s must not have a result", in.Callee)
		}
		callee := f.mod.Func(in.Callee)
		if callee == nil {
			return Void, fmt.Errorf("call to undefined function @%s", in.Callee)
		}
		if callee.Result == Void {
			return Void, fmt.Errorf("call to void function @%s used as value", in.Callee)
		}
		return callee.Result, nil
	default:
		return Void, fmt.Errorf("opcode %s cannot produce a result", in.Op)
	}
}

func (f *Function) computeCFG() {
	for _, b := range f.Blocks {
		b.Succs = b.Succs[:0]
		b.Preds = b.Preds[:0]
	}
	for _, b := range f.Blocks {
		t := b.Terminator()
		if t == nil {
			continue
		}
		switch t.Op {
		case OpBr:
			b.Succs = append(b.Succs, f.Blocks[t.ThenIdx])
		case OpCBr:
			b.Succs = append(b.Succs, f.Blocks[t.ThenIdx])
			if t.ElseIdx != t.ThenIdx {
				b.Succs = append(b.Succs, f.Blocks[t.ElseIdx])
			}
		}
	}
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			s.Preds = append(s.Preds, b)
		}
	}
}

// InstrCount returns the total number of instructions in the function.
func (f *Function) InstrCount() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}
