package ir

import (
	"errors"
	"fmt"
)

// Verify type-checks a finalized module: every instruction's operands
// match its signature (the one Finalize typed constants and registers
// from), the rules types cannot express hold, blocks are properly
// terminated, and terminators do not appear mid-block. It is the analog
// of LLVM's module verifier and runs as the first pass of every pass
// pipeline.
func Verify(m *Module) error {
	var errs []error
	for _, f := range m.Funcs {
		if err := verifyFunc(f); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

func verifyFunc(f *Function) error {
	if !f.finalized {
		return fmt.Errorf("func %s: not finalized", f.Name)
	}
	if len(f.Blocks) == 0 {
		return fmt.Errorf("func %s: no basic blocks", f.Name)
	}
	for _, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			return fmt.Errorf("func %s: block %s is empty", f.Name, b.Name)
		}
		for i, in := range b.Instrs {
			last := i == len(b.Instrs)-1
			if in.Op.IsTerminator() != last {
				if last {
					return fmt.Errorf("func %s: block %s does not end in a terminator", f.Name, b.Name)
				}
				return fmt.Errorf("func %s: block %s: terminator %q mid-block", f.Name, b.Name, in)
			}
			if err := verifyInstr(f, in); err != nil {
				return fmt.Errorf("func %s: block %s: %s: %w", f.Name, b.Name, in, err)
			}
		}
	}
	return nil
}

func verifyInstr(f *Function, in *Instr) error {
	var buf [4]Type
	args, _, err := f.signature(in, buf[:0])
	if err != nil {
		return err
	}
	if len(in.Args) != len(args) {
		return fmt.Errorf("want %d operands, have %d", len(args), len(in.Args))
	}
	for i, want := range args {
		// A trunc source may be a ptr, and a gep index any integer.
		got := in.Args[i].Type
		if got != want && !(in.Op == OpTrunc && got == Ptr) && !(in.Op == OpGEP && i == 1 && got.IsInt()) {
			return fmt.Errorf("operand %d has type %s, want %s", i, got, want)
		}
	}
	if in.NonCached && (in.Op != OpLd || in.Space != Global) {
		return fmt.Errorf("%s.cg on %s space", in.Op, in.Space)
	}
	switch in.Op {
	case OpICmp, OpFCmp:
		if in.Op == OpICmp && !in.Type.IsInt() && in.Type != Ptr || in.Op == OpFCmp && in.Type != F32 {
			return fmt.Errorf("%s with type %s", in.Op, in.Type)
		}
		if in.Pred == PredInvalid {
			return fmt.Errorf("%s without predicate", in.Op)
		}
	case OpGEP:
		if in.Scale <= 0 {
			return fmt.Errorf("gep scale %d", in.Scale)
		}
	case OpAtom:
		if in.Mem != MemI32 && in.Mem != MemF32 || in.Space != Global {
			return fmt.Errorf("atomadd on %s %s", in.Mem, in.Space)
		}
	case OpShPtr:
		if f.SharedArray(in.Callee) == nil {
			return fmt.Errorf("shptr to undeclared shared array @%s", in.Callee)
		}
	case OpCall:
		if in.CalleeFn != nil && in.CalleeFn.IsKernel {
			return fmt.Errorf("call to kernel @%s", in.Callee)
		}
	case OpBar:
		if !f.IsKernel {
			return fmt.Errorf("bar in device function @%s", f.Name)
		}
	}
	return nil
}
