package cudaadvisor_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// derivations are the per-kernel-instance analyses profiler.Analyses
// merges; nothing else outside a test calls them.
var derivations = map[string]bool{
	"Reuse": true, "ReuseDistance": true, "ReuseBySite": true, "MemDivergence": true,
	"BranchDivergence": true, "SharedBankConflicts": true,
	"MemDivergenceOn": true, "BranchDivergenceOn": true, "SharedBankConflictsOn": true,
}

// isKernelTrace reports whether e is spelled as a trace.KernelTrace type.
func isKernelTrace(e ast.Expr) bool {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	sel, ok := e.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "KernelTrace"
}

// yieldsTrace reports whether e is spelled as a kernel trace value: a
// .Trace field or a NewKernelTrace call.
func yieldsTrace(e ast.Expr) bool {
	if call, ok := e.(*ast.CallExpr); ok {
		e = call.Fun
	}
	sel, ok := e.(*ast.SelectorExpr)
	return ok && (sel.Sel.Name == "Trace" || sel.Sel.Name == "NewKernelTrace")
}

// TestTraceHasOneReader pins DESIGN.md §7's layering by syntax: outside
// internal/trace and internal/analysis no non-test file reads a kernel
// trace's records (.Mem, .Blocks, LaneAddrs), and outside
// internal/profiler none calls a per-instance derivation. bench/ is its
// own module with its own rules.
func TestTraceHasOneReader(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		readsRecords := dir == "internal/trace" || dir == "internal/analysis"
		derives := dir == "internal/profiler" || dir == "internal/analysis"
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		// Names this file binds to a kernel trace: declared with the
		// type, or assigned from a .Trace field or NewKernelTrace.
		traces := map[string]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Field:
				if isKernelTrace(n.Type) {
					for _, name := range n.Names {
						traces[name.Name] = true
					}
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if n.Type != nil && isKernelTrace(n.Type) || i < len(n.Values) && yieldsTrace(n.Values[i]) {
						traces[name.Name] = true
					}
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && i < len(n.Rhs) && yieldsTrace(n.Rhs[i]) {
						traces[id.Name] = true
					}
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			at := fset.Position(sel.Pos())
			switch name := sel.Sel.Name; {
			case readsRecords:
			case name == "LaneAddrs":
				t.Errorf("%s: LaneAddrs outside internal/trace and internal/analysis", at)
			case name == "Mem" || name == "Blocks":
				id, _ := sel.X.(*ast.Ident)
				if yieldsTrace(sel.X) || id != nil && traces[id.Name] {
					t.Errorf("%s: reads a kernel trace's .%s outside internal/trace and internal/analysis", at, name)
				}
			}
			if pkg, _ := sel.X.(*ast.Ident); !derives && pkg != nil && pkg.Name == "analysis" && derivations[sel.Sel.Name] {
				t.Errorf("%s: analysis.%s outside internal/profiler (read the run's profiler.Analyses)", at, sel.Sel.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
