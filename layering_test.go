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

// benchAPI is what bench/ calls and nothing else outside a test does:
// bench/ is its own module, so its calls are not in the walk. Each entry
// must still be called there.
var benchAPI = map[string]bool{
	"internal/analysis.BranchDivergence":    true,
	"internal/analysis.MemDivergence":       true,
	"internal/analysis.ReuseDistance":       true,
	"internal/analysis.SharedBankConflicts": true,
}

// sharedTestAPI is called by the tests of several packages or by the root
// benchmarks, so it cannot move into one package's test files.
var sharedTestAPI = map[string]bool{
	// The O(N^2) references for the reuse walk.
	"internal/analysis.NaiveReuseDistance": true,
	"internal/analysis.NaiveReuseBySite":   true,
	// One uncached profiling cell with no policy applied.
	"internal/experiments.Profile": true,
	// Reads a rewritten function back as text.
	"internal/ir.PrintFunc": true,
	// The vertical-bypassing extension (DESIGN.md §5), run by the root
	// BenchmarkAblationVerticalVsHorizontalBicg.
	"internal/bypass.VerticalPlan":           true,
	"internal/bypass.DefaultVerticalOptions": true,
	"internal/bypass.ApplyVertical":          true,
}

// offlineChain is the Section 3.3 offline analyzer's per-kernel summary,
// which nothing outside a test calls yet. ROADMAP item 5(b) is the item
// that wires it into a command or deletes it.
var offlineChain = map[string]bool{
	"internal/analysis.InstanceMetrics": true,
	"internal/analysis.Summarize":       true,
	"internal/report.InstanceSummary":   true,
}

// funcUses parses every non-test Go file under root, outside the
// directory skip, and returns the exported top-level functions declared
// there ("<dir>.<Name>", dir relative to the module root) and the set of
// such names the files refer to: as pkg.Name from another package of the
// module, or as a bare Name inside the declaring package. A reference need not be a call (a
// function passed as a value is used). Methods are not collected.
func funcUses(t *testing.T, root, skip string) (decls, uses map[string]bool) {
	t.Helper()
	decls, uses = map[string]bool{}, map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || rel == skip) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(rel))
		imports := map[string]string{} // local name → module-relative dir
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if !strings.HasPrefix(p, "cudaadvisor/") {
				continue
			}
			p = strings.TrimPrefix(p, "cudaadvisor/")
			name := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = p
		}
		declared := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				declared[fn.Name] = true
				if fn.Name.IsExported() {
					decls[dir+"."+fn.Name.Name] = true
				}
			}
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := n.X.(*ast.Ident); ok && imports[id.Name] != "" {
					uses[imports[id.Name]+"."+n.Sel.Name] = true
					return false
				}
				ast.Inspect(n.X, visit) // n.Sel is a field or method
				return false
			case *ast.Ident:
				if !declared[n] {
					uses[dir+"."+n.Name] = true
				}
			}
			return true
		}
		ast.Inspect(f, visit)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls, uses
}

// TestEveryExportedFuncIsCalled fails on an exported top-level function
// that no non-test code refers to: an entry point kept alive by its tests
// alone. What bench/ calls, what tests across packages share and the
// offline-analyzer chain are listed above; methods are out of scope.
func TestEveryExportedFuncIsCalled(t *testing.T) {
	decls, uses := funcUses(t, ".", "bench")
	_, benchUses := funcUses(t, "bench", "")
	for name := range benchAPI {
		if !benchUses[name] {
			t.Errorf("%s is listed as called by bench/, which no longer calls it", name)
		}
	}
	for name := range decls {
		if !uses[name] && !benchAPI[name] && !sharedTestAPI[name] && !offlineChain[name] {
			t.Errorf("%s: exported, and no non-test code calls it", name)
		}
	}
}
