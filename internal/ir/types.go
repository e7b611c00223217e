// Package ir defines the miniature typed intermediate representation
// ("bitcode") that stands in for LLVM bitcode in this reproduction of
// CUDAAdvisor (CGO'18). Device kernels and device functions are expressed
// in this IR; the instrumentation engine (package instrument) rewrites it
// and the SIMT simulator (package gpu) executes it.
//
// The IR is register-based and deliberately not SSA: virtual registers may
// be assigned more than once, so loops need no phi nodes. Every register
// has a single static type, checked by the verifier. Each instruction
// carries a source location (file/line/column) that plays the role of
// LLVM's !dbg metadata; the textual parser in package irtext stamps these
// automatically from source positions.
package ir

import "fmt"

// Type is the type of a register, constant, or parameter.
type Type uint8

// Register and value types. Ptr is represented as a 64-bit byte address
// at runtime but is kept distinct for verification.
const (
	Void Type = iota
	I1        // boolean, result of comparisons
	I32       // 32-bit signed integer
	I64       // 64-bit signed integer
	F32       // 32-bit IEEE float
	Ptr       // byte address (device global or shared offset)
)

var typeNames = [...]string{Void: "void", I1: "i1", I32: "i32", I64: "i64", F32: "f32", Ptr: "ptr"}

func (t Type) String() string { return nameOf(typeNames[:], t, "type") }

// TypeFromString parses a type name ("void" is not one).
func TypeFromString(s string) (Type, bool) { return lookup(typeNames[:], I1, s) }

// IsInt reports whether t is an integer register type.
func (t Type) IsInt() bool { return t == I32 || t == I64 }

// MemType is the element type of a load or store. It is separate from
// Type because memory supports narrow (8-bit) accesses that widen to I32
// in registers, mirroring PTX ld.u8/st.u8.
type MemType uint8

// Element types for ld/st instructions.
const (
	MemI8  MemType = iota // byte; widens to I32 in a register
	MemI32                // 32-bit integer
	MemI64                // 64-bit integer
	MemF32                // 32-bit float
)

var memTypeNames = [...]string{MemI8: "i8", MemI32: "i32", MemI64: "i64", MemF32: "f32"}

func (m MemType) String() string { return nameOf(memTypeNames[:], m, "memtype") }

// MemTypeFromString parses a memory element type name.
func MemTypeFromString(s string) (MemType, bool) { return lookup(memTypeNames[:], MemI8, s) }

// Size returns the access width in bytes.
func (m MemType) Size() int {
	switch m {
	case MemI8:
		return 1
	case MemI32, MemF32:
		return 4
	case MemI64:
		return 8
	}
	return 0
}

// Bits returns the access width in bits (the "number of bits" argument the
// paper's Record() hook receives).
func (m MemType) Bits() int { return m.Size() * 8 }

// RegType returns the register type produced by loading this element type.
func (m MemType) RegType() Type {
	switch m {
	case MemI8, MemI32:
		return I32
	case MemI64:
		return I64
	case MemF32:
		return F32
	}
	return Void
}

// Space is a memory address space.
type Space uint8

// Address spaces for memory operations.
const (
	Global Space = iota // device global memory, cached in L1 per config
	Shared              // per-CTA scratchpad; never goes through L1
)

var spaceNames = [...]string{Global: "global", Shared: "shared"}

func (s Space) String() string { return nameOf(spaceNames[:], s, "space") }

// SpaceFromString parses an address space name.
func SpaceFromString(s string) (Space, bool) { return lookup(spaceNames[:], Global, s) }

// Loc is a source location: the debugging information attached to every
// instruction (LLVM !dbg equivalent). File is interned per module.
type Loc struct {
	File string
	Line int
	Col  int
}

// IsZero reports whether the location is unset.
func (l Loc) IsZero() bool { return l.File == "" && l.Line == 0 && l.Col == 0 }

// Less orders locations by file, then line, then column: the total order
// every per-site listing that must not depend on map order falls back on.
func (l Loc) Less(o Loc) bool {
	if l.File != o.File {
		return l.File < o.File
	}
	if l.Line != o.Line {
		return l.Line < o.Line
	}
	return l.Col < o.Col
}

func (l Loc) String() string {
	if l.IsZero() {
		return "<unknown>"
	}
	return fmt.Sprintf("%s:%d:%d", l.File, l.Line, l.Col)
}
