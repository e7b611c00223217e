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

	// CFG successor edges, computed by Finalize.
	Succs []*Block
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

// Entry returns the function's entry block.
func (f *Function) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
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

	// First pass: register destinations (definition order) with the
	// types their signatures yield.
	var buf [4]Type
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			in.DstReg = -1
			if in.Dst == "" {
				continue
			}
			_, res, err := f.signature(in, buf[:0])
			if err == nil && res == Void {
				err = fmt.Errorf("%s yields no value", in.Op)
			}
			if err != nil {
				return fmt.Errorf("func %s block %s: %s: %w", f.Name, b.Name, in, err)
			}
			if in.DstReg, err = addReg(in.Dst, res); err != nil {
				return err
			}
		}
	}
	f.NumRegs = len(f.RegTypes)

	// Second pass: resolve operand registers, branch targets and callees,
	// and give constant operands the types their signatures want (so
	// parsers need not type literals themselves).
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			args, _, err := f.signature(in, buf[:0])
			if err != nil {
				return fmt.Errorf("func %s block %s: %s: %w", f.Name, b.Name, in, err)
			}
			for i := range in.Args {
				a := &in.Args[i]
				if a.Kind != KReg {
					if i >= len(args) {
						err = fmt.Errorf("want %d operands, have %d", len(args), len(in.Args))
					} else {
						err = a.typeAs(args[i])
					}
					if err != nil {
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
				in.CalleeFn = m.Func(in.Callee)
			}
		}
	}

	if err := f.computeCFG(); err != nil {
		return err
	}
	f.finalized = true
	return nil
}

// typeAs gives a constant operand the type its position wants,
// converting an integer literal where f32 is wanted (so "fadd f32 %v, 1"
// works).
func (a *Operand) typeAs(want Type) error {
	if want == F32 && a.Kind == KConstInt {
		a.Kind, a.F, a.Int = KConstFloat, float64(a.Int), 0
	}
	if want != F32 && a.Kind == KConstFloat {
		return fmt.Errorf("float literal where %s expected", want)
	}
	a.Type = want
	return nil
}

// signature states in's types: the type of each operand, given the
// instruction's Type and Mem, the function's result and the callee's
// parameters, and the type of the register it defines (Void: none). A
// hook call's operands keep their own types, literals defaulting to i32
// and f32. Finalize types constants and result registers from it, and
// Verify checks every operand against it. The operand types are
// appended to args (a caller's buffer, so the common case allocates
// nothing).
func (f *Function) signature(in *Instr, args []Type) ([]Type, Type, error) {
	switch {
	case in.IsHookCall():
		for _, a := range in.Args {
			t := a.Type
			if a.Kind == KConstFloat && t == Void {
				t = F32
			} else if a.Kind == KConstInt && t == Void {
				t = I32
			}
			args = append(args, t)
		}
		return args, Void, nil
	case in.Op == OpCall:
		callee := f.mod.Func(in.Callee)
		if callee == nil {
			return args, Void, fmt.Errorf("call to undefined function @%s", in.Callee)
		}
		for _, p := range callee.Params {
			args = append(args, p.Type)
		}
		return args, callee.Result, nil
	case in.Op == OpRet && f.Result != Void:
		return append(args, f.Result), Void, nil
	}
	return in.types(args)
}

// types is the signature of every instruction but a call, and a ret in a
// function that returns a value: the ones whose types their own fields
// state.
func (in *Instr) types(args []Type) ([]Type, Type, error) {
	t := in.Type
	switch op := in.Op; {
	case op.IsIntBinary():
		if !t.IsInt() {
			return args, Void, fmt.Errorf("integer op on %s", t)
		}
		return append(args, t, t), t, nil
	case op.IsFloatBinary() || op.IsFloatUnary():
		if t != F32 {
			return args, Void, fmt.Errorf("float op on %s", t)
		}
		if op.IsFloatUnary() {
			return append(args, F32), F32, nil
		}
		return append(args, F32, F32), F32, nil
	}
	switch in.Op {
	case OpICmp:
		return append(args, t, t), I1, nil
	case OpFCmp:
		return append(args, F32, F32), I1, nil
	case OpSelect:
		return append(args, I1, t, t), t, nil
	case OpMov:
		return append(args, t), t, nil
	case OpSitofp:
		return append(args, I32), F32, nil
	case OpFptosi:
		return append(args, F32), I32, nil
	case OpSext:
		return append(args, I32), I64, nil
	case OpTrunc:
		return append(args, I64), I32, nil
	case OpZext:
		return append(args, I1), I32, nil
	case OpGEP:
		return append(args, Ptr, I64), Ptr, nil
	case OpLd:
		return append(args, Ptr), in.Mem.RegType(), nil
	case OpSt:
		return append(args, Ptr, in.Mem.RegType()), Void, nil
	case OpAtom:
		return append(args, Ptr, in.Mem.RegType()), in.Mem.RegType(), nil
	case OpSReg:
		return args, I32, nil
	case OpShPtr:
		return args, Ptr, nil
	case OpCBr:
		return append(args, I1), Void, nil
	case OpBr, OpRet, OpBar:
		return args, Void, nil
	}
	return args, Void, fmt.Errorf("unknown opcode %s", in.Op)
}

// Arity returns how many operands in takes, as its signature states, and
// false where its fields do not say: for a call or a ret, whose function
// does, and for an ill-typed instruction. The parser checks the count
// against it, and the printer marks an operand in lacks.
func (in *Instr) Arity() (int, bool) {
	if in.Op == OpCall || in.Op == OpRet {
		return 0, false
	}
	var buf [4]Type
	args, _, err := in.types(buf[:0])
	return len(args), err == nil
}

func (f *Function) computeCFG() error {
	for _, b := range f.Blocks {
		b.Succs = b.Succs[:0]
	}
	for _, b := range f.Blocks {
		t := b.Terminator()
		if t == nil {
			continue
		}
		if t.Op != OpRet && (t.ThenIdx < 0 || t.Op == OpCBr && t.ElseIdx < 0) {
			return fmt.Errorf("func %s block %s: %s: branch without a target", f.Name, b.Name, t)
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
	return nil
}
