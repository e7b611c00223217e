package ir

import "testing"

func TestCloneIsDeepAndEquivalent(t *testing.T) {
	m := buildSimpleKernel(t)
	c := Clone(m)
	if err := c.Finalize(); err != nil {
		t.Fatalf("Finalize clone: %v", err)
	}
	if err := Verify(c); err != nil {
		t.Fatalf("Verify clone: %v", err)
	}
	if Print(m) != Print(c) {
		t.Errorf("clone prints differently:\n%s\n---\n%s", Print(m), Print(c))
	}
	// Mutating the clone must not touch the original.
	c.Func("k").Blocks[1].Instrs[1].NonCached = true
	if m.Func("k").Blocks[1].Instrs[1].NonCached {
		t.Error("clone shares instruction storage with the original")
	}
	c.Func("k").Blocks[0].Instrs[0].Args = append(c.Func("k").Blocks[0].Instrs[0].Args, I32Op(1))
	if len(m.Func("k").Blocks[0].Instrs[0].Args) != 0 {
		t.Error("clone shares operand storage with the original")
	}
}

func TestCloneSupportsIndependentInstrumentation(t *testing.T) {
	m := buildSimpleKernel(t)
	c := Clone(m)
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	// Add a hook call to the clone only.
	blk := c.Func("k").Blocks[1]
	hook := &Instr{Op: OpCall, Callee: HookPrefix + "record_mem",
		Args: []Operand{I32Op(1)}, DstReg: -1, ThenIdx: -1, ElseIdx: -1}
	blk.Instrs = append([]*Instr{hook}, blk.Instrs...)
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	if instrCount(c.Func("k")) != instrCount(m.Func("k"))+1 {
		t.Error("instruction counts out of sync after clone-side edit")
	}
	if err := Verify(m); err != nil {
		t.Fatalf("original corrupted: %v", err)
	}
}
