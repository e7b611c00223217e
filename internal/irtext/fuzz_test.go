package irtext_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cudaadvisor/internal/ir"
	"cudaadvisor/internal/irtext"
)

// FuzzParse pins the parser's resilience contract: arbitrary input may
// produce a parse error, but never a panic — lint and advise feed Parse
// user-supplied .mir files and then ir.Verify, and the resilient
// pipeline treats a malformed module as one failed cell, not a crashed
// process. Modules that do parse must also survive ir.Verify without
// panicking, and print to text that parses back to an equal module.
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
		// Spellings whose printed form must parse back to the same
		// instruction: an integer in an f32 position, a boolean a hook
		// call keeps, and a load that bypasses L1.
		"module m\nkernel @k(%x: f32, %p: ptr) {\nentry:\n  %y = fadd f32 %x, 2\n  call @__advisor_h(true, 0x10, -0.0, 1e300, NaN)\n  %v = ld.cg f32 global [%p]\n  ret\n}\n",
	}
	for _, file := range testdataMIR(f) {
		seeds = append(seeds, file[1])
	}
	for _, s := range seeds {
		f.Add("fuzz.mir", s)
	}
	f.Fuzz(func(t *testing.T, file, src string) {
		m, err := irtext.Parse(file, src)
		if err != nil {
			if m != nil {
				t.Errorf("Parse returned both a module and an error: %v", err)
			}
			return
		}
		// A successfully parsed module must be safe to verify; Verify may
		// reject it, but neither step may panic.
		_ = ir.Verify(m)
		if _, err := roundTrip(m); err != nil {
			t.Error(err)
		}
	})
}

// testdataMIR returns the path and text of each .mir file under
// cmd/*/testdata.
func testdataMIR(tb testing.TB) [][2]string {
	paths, err := filepath.Glob("../../cmd/*/testdata/*.mir")
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no .mir files under cmd/*/testdata: %v", err)
	}
	var files [][2]string
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		files = append(files, [2]string{path, string(src)})
	}
	return files
}

// roundTrip prints m and parses the text back. The result must equal m
// in every exported field but Loc, and print to the same text.
func roundTrip(m *ir.Module) (*ir.Module, error) {
	text := ir.Print(m)
	m2, err := irtext.Parse("roundtrip.mir", text)
	if err != nil {
		return nil, fmt.Errorf("re-parse: %v\n%s", err, text)
	}
	if err := sameFields("module", reflect.ValueOf(m), reflect.ValueOf(m2), map[[2]uintptr]bool{}); err != nil {
		return nil, fmt.Errorf("%v\n%s", err, text)
	}
	if text2 := ir.Print(m2); text2 != text {
		return nil, fmt.Errorf("print is not a fixed point:\n%s\n---\n%s", text, text2)
	}
	return m2, nil
}

// sameFields reports the first exported field other than a Loc in which
// b differs from a. Floats compare by their bits, and a pair of pointers
// already walked is not walked again.
func sameFields(path string, a, b reflect.Value, seen map[[2]uintptr]bool) error {
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return fmt.Errorf("%s: nil is %t, want %t", path, b.IsNil(), a.IsNil())
			}
			return nil
		}
		k := [2]uintptr{a.Pointer(), b.Pointer()}
		if seen[k] {
			return nil
		}
		seen[k] = true
		return sameFields(path, a.Elem(), b.Elem(), seen)
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if f := a.Type().Field(i); f.IsExported() && f.Name != "Loc" {
				if err := sameFields(path+"."+f.Name, a.Field(i), b.Field(i), seen); err != nil {
					return err
				}
			}
		}
		return nil
	case reflect.Slice:
		if a.Len() != b.Len() {
			return fmt.Errorf("%s: length %d, want %d", path, b.Len(), a.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if err := sameFields(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i), seen); err != nil {
				return err
			}
		}
		return nil
	case reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Errorf("%s: %v, want %v", path, b.Float(), a.Float())
		}
		return nil
	}
	if !reflect.DeepEqual(a.Interface(), b.Interface()) {
		return fmt.Errorf("%s: %v, want %v", path, b.Interface(), a.Interface())
	}
	return nil
}
