package irtext

import (
	"strings"
	"testing"

	"cudaadvisor/internal/ir"
)

// FuzzParse pins the parser's resilience contract: arbitrary input may
// produce a parse error, but never a panic — lint and advise feed Parse
// user-supplied .mir files and then ir.Verify, and the resilient
// pipeline treats a malformed module as one failed cell, not a crashed
// process. Modules that do parse must also survive ir.Verify without
// panicking.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"module m\n",
		"module m\nkernel @k(%p: ptr) {\nentry:\n  ret\n}\n",
		"module m\nkernel @k(%p: ptr, %n: i32) {\nentry:\n  %tx = sreg tid.x\n  %c = icmp lt i32 %tx, %n\n  cbr %c, body, exit\nbody:\n  %a = gep %p, %tx, 4\n  %v = ld f32 global [%a]\n  st f32 global [%a], %v\n  br exit\nexit:\n  ret\n}\n",
		"module m\nfunc @h(%x: f32): f32 {\nentry:\n  ret %x\n}\n",
		"module m\nkernel @k() {\n  shared @tile: f32[256]\nentry:\n  bar\n  ret\n}\n",
		"module m\nkernel @k() {\nentry:\n  %v = call @h()\n  ret\n}\n",
		"// comment\n; comment\nmodule m\n",
		"module m\nkernel @k( {\n",
		"module m\nkernel @k() {\nentry:\n  %x = add i32 %y, 1\n}",
		"kernel @k() {}",
		"module m\nkernel @k() {\nentry:\n  cbr %c, a\n}\n",
		"module m\nkernel @k(%p: ptr) {\nentry:\n  %v = ld f32 global [%p\n  ret\n}\n",
		"module \x00\nkernel",
		strings.Repeat("module m\n", 3),
	}
	for _, s := range seeds {
		f.Add("fuzz.mir", s)
	}
	f.Fuzz(func(t *testing.T, file, src string) {
		m, err := Parse(file, src)
		if err != nil {
			if m != nil {
				t.Errorf("Parse returned both a module and an error: %v", err)
			}
			return
		}
		// A successfully parsed module must be safe to verify; Verify may
		// reject it, but neither step may panic.
		_ = ir.Verify(m)
	})
}
