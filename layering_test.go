package cudaadvisor_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"sync"
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
// trace's records (.Mem, .Blocks, LaneAddrs, Uniform), and outside
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
			case name == "LaneAddrs" || name == "Uniform":
				t.Errorf("%s: %s outside internal/trace and internal/analysis", at, name)
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
	"internal/bypass.VerticalPlan":  true,
	"internal/bypass.ApplyVertical": true,
}

// moduleChecker type-checks the module's packages from their non-test
// source files, one shared types.Info for all of them, and imports the
// standard library from its export data.
type moduleChecker struct {
	fset  *token.FileSet
	std   types.Importer
	info  *types.Info
	pkgs  map[string]*types.Package // by import path: the module's and std's
	files []*ast.File               // every file check has type-checked
}

func (c *moduleChecker) Import(path string) (*types.Package, error) {
	if p := c.pkgs[path]; p != nil {
		return p, nil
	}
	if path != "cudaadvisor" && !strings.HasPrefix(path, "cudaadvisor/") {
		p, err := c.std.Import(path)
		c.pkgs[path] = p
		return p, err
	}
	return c.check(path, "."+strings.TrimPrefix(path, "cudaadvisor"))
}

// parse parses the non-test files of dir that the default build context
// selects.
func (c *moduleChecker) parse(dir string) ([]*ast.File, error) {
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// check type-checks the non-test files of dir as the package path.
func (c *moduleChecker) check(path, dir string) (*types.Package, error) {
	files, err := c.parse(dir)
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: c}
	p, err := conf.Check(path, c.fset, files, c.info)
	if err != nil {
		return nil, err
	}
	c.pkgs[path] = p
	c.files = append(c.files, files...)
	return p, nil
}

// stdInterfaces returns the interface types a standard package spells
// in its source, unexported and function-local ones included: flag's
// boolFlag and the errors package's Unwrap interfaces, which its export
// data leaves out. Each is resolved in p's scope; one that names a type
// the scope lacks is skipped.
func (c *moduleChecker) stdInterfaces(p *types.Package) ([]*types.Interface, error) {
	bp, err := build.Import(p.Path(), "", build.FindOnly)
	if err != nil {
		return nil, err
	}
	files, err := c.parse(bp.Dir)
	if err != nil {
		return nil, err
	}
	var out []*types.Interface
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.InterfaceType)
			if !ok || len(lit.Methods.List) == 0 {
				return true
			}
			tv, err := types.Eval(c.fset, p, token.NoPos, types.ExprString(lit))
			if it, ok := tv.Type.(*types.Interface); err == nil && ok && it.NumMethods() > 0 {
				out = append(out, it)
			}
			return false
		})
	}
	return out, nil
}

var loaded struct {
	once   sync.Once
	c      *moduleChecker
	module []*types.Package
	err    error
}

// loadModule type-checks every non-test package of the module, and bench/
// as one more user, once per test binary. It returns the checker and the
// module's packages (bench/ is not among them).
func loadModule(t *testing.T) (*moduleChecker, []*types.Package) {
	t.Helper()
	loaded.once.Do(func() {
		c := &moduleChecker{
			fset: token.NewFileSet(),
			std:  importer.Default(),
			info: &types.Info{
				Types:      map[ast.Expr]types.TypeAndValue{},
				Defs:       map[*ast.Ident]types.Object{},
				Uses:       map[*ast.Ident]types.Object{},
				Selections: map[*ast.SelectorExpr]*types.Selection{},
			},
			pkgs: map[string]*types.Package{},
		}
		var module []*types.Package
		err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || path == "bench") {
				return filepath.SkipDir
			}
			p, err := c.Import(strings.TrimSuffix("cudaadvisor/"+filepath.ToSlash(path), "/."))
			if _, none := err.(*build.NoGoError); none {
				return nil
			}
			module = append(module, p)
			return err
		})
		if err == nil {
			_, err = c.check("cudaadvisor/bench", "bench")
		}
		loaded.c, loaded.module, loaded.err = c, module, err
	})
	if loaded.err != nil {
		t.Fatal(loaded.err)
	}
	return loaded.c, loaded.module
}

// TestEveryExportedFuncIsCalled fails on an exported top-level function
// or method of a named type that no non-test code refers to: an entry
// point kept alive by its tests alone. bench/ is checked as one more
// user. A method is exempt when its type implements an interface that
// declares it (spelled in the module, in a standard package it imports,
// or error), since a call through the interface names no concrete method.
// What tests across packages share is listed above; an entry there that
// is gone or has a non-test caller now fails too.
func TestEveryExportedFuncIsCalled(t *testing.T) {
	c, module := loadModule(t)
	used := map[types.Object]bool{}
	for _, obj := range c.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			used[fn.Origin()] = true
		}
	}
	for _, sel := range c.info.Selections {
		if fn, ok := sel.Obj().(*types.Func); ok {
			used[fn.Origin()] = true
		}
	}
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, tv := range c.info.Types {
		if it, ok := tv.Type.(*types.Interface); ok && tv.IsType() && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	for path, p := range c.pkgs {
		if !strings.HasPrefix(path, "cudaadvisor") {
			its, err := c.stdInterfaces(p)
			if err != nil {
				t.Fatal(err)
			}
			ifaces = append(ifaces, its...)
		}
	}
	// implemented reports whether m's receiver type, or a pointer to it,
	// implements an interface that declares m's name.
	implemented := func(recv types.Type, m *types.Func) bool {
		for _, it := range ifaces {
			if obj, _, _ := types.LookupFieldOrMethod(it, false, m.Pkg(), m.Name()); obj == nil {
				continue
			}
			if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
				return true
			}
		}
		return false
	}

	uncalled := map[string]bool{}
	for _, p := range module {
		dir := strings.TrimPrefix(p.Path(), "cudaadvisor/")
		for _, name := range p.Scope().Names() {
			switch obj := p.Scope().Lookup(name).(type) {
			case *types.Func:
				key := dir + "." + name
				if obj.Exported() && !used[obj] {
					uncalled[key] = true
					if !sharedTestAPI[key] {
						t.Errorf("%s: exported, and no non-test code calls it", key)
					}
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					m := named.Method(i)
					if m.Exported() && !used[m] && !implemented(named, m) {
						t.Errorf("%s.%s.%s: exported method, and no non-test code calls it", dir, name, m.Name())
					}
				}
			}
		}
	}
	for key := range sharedTestAPI {
		if !uncalled[key] {
			t.Errorf("%s: listed in sharedTestAPI, but no such function is left uncalled", key)
		}
	}
}

// unreadFieldOK lists fields that no non-test code reads but that stay.
var unreadFieldOK = map[string]bool{
	// The hook API's view of a warp, fingerprinted whole by
	// TestSchedulerOrderGolden.
	"internal/gpu.WarpView.SM":    true,
	"internal/gpu.WarpView.Cycle": true,
	// Summed over shards into LaunchResult.Cache, which
	// TestSchedulerOrderGolden prints whole and the bypass tests read.
	"internal/gpu.CacheStats.Misses":   true,
	"internal/gpu.CacheStats.Bypassed": true,
	"internal/gpu.CacheStats.Writes":   true,
	// ParseFoldedLine must unescape every frame to validate the line;
	// the escaping round-trip tests read the result.
	"internal/export.FoldedStack.Frames": true,
	// The analyzer's final value per register: the seam the executor's
	// uniform and affine registers are to read.
	"internal/staticadvisor.FuncResult.vals": true,
}

// unreadFields returns, as "path.Type.field" (path trimmed of prefix),
// each field of a package-level struct type of pkgs that no file of
// files reads. Selecting a field reads it, taking its address included,
// except where its value can only flow back into the field:
//   - (a) as the target of an assignment or inc/dec, or the indexed
//     operand of one: x.F = v, x.F[k] += v, x.F[k]++;
//   - (b) anywhere in an assignment or inc/dec whose only target is F:
//     r.F += o.F, b.F = append(b.F, x);
//   - (c) in the condition of an if with no else whose body only assigns
//     F: if d > r.F { r.F = d };
//   - (d) as the range expression of a for whose body only assigns F.
//
// A composite-literal key is no selection. Embedded fields, fields with a
// json: tag (which encoding/json reads) and fields of a struct used as a
// map key type (which == reads) are exempt.
func unreadFields(info *types.Info, files []*ast.File, pkgs []*types.Package, prefix string) []string {
	// root strips parens and indexes off an assignment target.
	root := func(e ast.Expr) *ast.SelectorExpr {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				return x
			default:
				return nil
			}
		}
	}
	field := func(sel *ast.SelectorExpr) *types.Var {
		if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
			return s.Obj().(*types.Var).Origin()
		}
		return nil
	}
	// targets returns what an assignment or inc/dec writes, and nil for
	// any other node.
	targets := func(n ast.Node) []ast.Expr {
		switch n := n.(type) {
		case *ast.AssignStmt:
			return n.Lhs
		case *ast.IncDecStmt:
			return []ast.Expr{n.X}
		}
		return nil
	}
	// only returns the one field that stmts assign and nothing else:
	// assignments and inc/decs into it, and ifs with no else and range
	// loops whose bodies do the same. It returns nil for any other list.
	var only func(stmts []ast.Stmt) *types.Var
	only = func(stmts []ast.Stmt) *types.Var {
		var f *types.Var
		for _, s := range stmts {
			var g *types.Var
			switch s := s.(type) {
			case *ast.AssignStmt, *ast.IncDecStmt:
				lhs := targets(s)
				g = field(root(lhs[0]))
				for _, e := range lhs[1:] {
					if field(root(e)) != g {
						g = nil
					}
				}
			case *ast.IfStmt:
				if s.Else == nil {
					g = only(s.Body.List)
				}
			case *ast.RangeStmt:
				g = only(s.Body.List)
			case *ast.BlockStmt:
				g = only(s.List)
			}
			if g == nil || f != nil && g != f {
				return nil
			}
			f = g
		}
		return f
	}
	notRead := map[*ast.SelectorExpr]bool{}
	// mark notes every selection of f in n as no read.
	mark := func(n ast.Node, f *types.Var) {
		if f == nil {
			return
		}
		ast.Inspect(n, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && field(sel) == f {
				notRead[sel] = true
			}
			return true
		})
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			for _, lhs := range targets(n) {
				if sel := root(lhs); sel != nil {
					notRead[sel] = true
				}
			}
			switch n := n.(type) {
			case *ast.AssignStmt, *ast.IncDecStmt:
				mark(n, only([]ast.Stmt{n.(ast.Stmt)}))
			case *ast.IfStmt:
				if n.Else == nil {
					mark(n.Cond, only(n.Body.List))
				}
			case *ast.RangeStmt:
				mark(n.X, only(n.Body.List))
			}
			return true
		})
	}
	read := map[types.Object]bool{}
	for sel, s := range info.Selections {
		if s.Kind() == types.FieldVal && !notRead[sel] {
			read[s.Obj().(*types.Var).Origin()] = true
		}
	}
	// keys holds the struct types == compares through a map key type,
	// and the struct types nested in them.
	keys := map[types.Type]bool{}
	var markKey func(types.Type)
	markKey = func(k types.Type) {
		if keys[k] {
			return
		}
		keys[k] = true
		switch u := k.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				markKey(u.Field(i).Type())
			}
		case *types.Array:
			markKey(u.Elem())
		}
	}
	for _, tv := range info.Types {
		if m, ok := tv.Type.Underlying().(*types.Map); ok {
			markKey(m.Key())
		}
	}

	var out []string
	for _, p := range pkgs {
		for _, name := range p.Scope().Names() {
			obj, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || obj.IsAlias() || keys[obj.Type()] {
				continue
			}
			st, ok := obj.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if f.Embedded() || read[f] || strings.Contains(st.Tag(i), `json:"`) {
					continue
				}
				out = append(out, strings.TrimPrefix(p.Path(), prefix)+"."+name+"."+f.Name())
			}
		}
	}
	return out
}

// TestEveryFieldIsRead fails on a struct field that the module's
// non-test code writes, accumulates into, or only sets in literals, but
// never reads: state nobody consumes. bench/ counts as a reader. An
// unreadFieldOK entry that is gone or read now fails too.
func TestEveryFieldIsRead(t *testing.T) {
	c, module := loadModule(t)
	unread := map[string]bool{}
	for _, key := range unreadFields(c.info, c.files, module, "cudaadvisor/") {
		unread[key] = true
		if !unreadFieldOK[key] {
			t.Errorf("%s: field, and no non-test code reads it", key)
		}
	}
	for key := range unreadFieldOK {
		if !unread[key] {
			t.Errorf("%s: listed in unreadFieldOK, but no such field is left unread", key)
		}
	}
}

// TestUnreadFieldsRules checks the field guard's rules on a package of
// its own, apart from the module's state.
func TestUnreadFieldsRules(t *testing.T) {
	const src = `package p

type T struct {
	written int
	counter int
	addr    int
	tagged  int ` + "`json:\"tagged\"`" + `
	read    int
	indexed map[int]int // (a)
	sum     int         // (b)
	peak    int         // (b)
	list    []int       // (b)
	hi      int         // (c)
	tally   map[int]int // (d)
	total   int         // accumulated, and returned
	err     error       // read into another field
	failed  bool        // read by the if below
	mode    int         // steers another field too
}

type K struct{ a, b int }

var seen map[K]bool

func f(t, o *T, d int) (*int, int) {
	t.written = 1
	t.counter += 2
	t.counter++
	_ = T{written: 3, read: 4}
	t.indexed[d] = 1
	t.indexed[d] += 2
	t.indexed[d]++
	t.sum += o.sum
	t.peak = max(t.peak, o.peak)
	t.list = append(t.list, d)
	if d > t.hi {
		t.hi = d
	}
	for k, n := range o.tally {
		t.tally[k] += n
	}
	t.total += o.total
	if t.mode > 0 {
		t.written = 2
		t.mode = 0
	}
	t.failed = o.err != nil
	if t.failed {
		return nil, t.total
	}
	return &t.addr, t.read
}
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	p, err := (&types.Config{}).Check("p", fset, []*ast.File{file}, info)
	if err != nil {
		t.Fatal(err)
	}
	got := unreadFields(info, []*ast.File{file}, []*types.Package{p}, "")
	want := []string{"p.T.written", "p.T.counter", "p.T.indexed", "p.T.sum", "p.T.peak", "p.T.list", "p.T.hi", "p.T.tally"}
	if !slices.Equal(got, want) {
		t.Errorf("unread fields = %v, want %v", got, want)
	}
}

// constantParamOK lists parameters that every call passes the same
// constant but that stay.
var constantParamOK = map[string]bool{
	// bench/layers.go pins the signature.
	"internal/gpu.NewDevice.memBytes": true,
}

// constantParams returns, as "path.Func.param" or "path.Type.Method.param"
// (path trimmed of prefix), each parameter of a function declared in
// files and in a package of pkgs that every call in files, and at least
// two of them, passes the same constant. A function used as a value and
// a variadic parameter are skipped.
func constantParams(info *types.Info, files []*ast.File, pkgs []*types.Package, prefix string) []string {
	args := map[*types.Func][]string{} // per parameter: the one constant, or "" once it varies
	calls := map[*types.Func]int{}
	callee := map[*ast.Ident]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var id *ast.Ident
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				id = fun
			case *ast.SelectorExpr:
				id = fun.Sel
			}
			fn, ok := info.Uses[id].(*types.Func)
			if !ok {
				return true
			}
			fn = fn.Origin()
			callee[id] = true
			sig := fn.Type().(*types.Signature)
			consts := args[fn]
			if consts == nil {
				consts = make([]string, sig.Params().Len())
			}
			spelled := len(call.Args) == len(consts) && call.Ellipsis == token.NoPos
			for i := range consts {
				var v string
				if spelled && info.Types[call.Args[i]].Value != nil {
					v = info.Types[call.Args[i]].Value.ExactString()
				}
				if calls[fn] > 0 && consts[i] != v {
					v = ""
				}
				consts[i] = v
			}
			args[fn] = consts
			calls[fn]++
			return true
		})
	}
	asValue := map[*types.Func]bool{}
	for id, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok && !callee[id] {
			asValue[fn.Origin()] = true
		}
	}
	inPkgs := map[*types.Package]bool{}
	for _, p := range pkgs {
		inPkgs[p] = true
	}
	var out []string
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn, _ := info.Defs[fd.Name].(*types.Func)
			if fn == nil || !inPkgs[fn.Pkg()] || asValue[fn] || calls[fn] < 2 {
				continue
			}
			sig := fn.Type().(*types.Signature)
			name := strings.TrimPrefix(fn.Pkg().Path(), prefix) + "."
			if r := sig.Recv(); r != nil {
				t := r.Type()
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				}
				name += t.(*types.Named).Obj().Name() + "."
			}
			for i, v := range args[fn] {
				if v != "" && !(sig.Variadic() && i == sig.Params().Len()-1) {
					out = append(out, name+fn.Name()+"."+sig.Params().At(i).Name())
				}
			}
		}
	}
	return out
}

// TestEveryParamVaries fails on a parameter of a module function that
// every non-test call, and at least two of them, passes the same
// constant: a knob nobody turns. bench/ counts as a caller. A
// constantParamOK entry that is gone or now varies fails too.
func TestEveryParamVaries(t *testing.T) {
	c, module := loadModule(t)
	constant := map[string]bool{}
	for _, key := range constantParams(c.info, c.files, module, "cudaadvisor/") {
		constant[key] = true
		if !constantParamOK[key] {
			t.Errorf("%s: every call passes the same constant", key)
		}
	}
	for key := range constantParamOK {
		if !constant[key] {
			t.Errorf("%s: listed in constantParamOK, but no such parameter is left constant", key)
		}
	}
}

// TestConstantParamsRules checks the parameter guard's rules on a
// package of its own, apart from the module's state.
func TestConstantParamsRules(t *testing.T) {
	const src = `package p

const two = 2

type T struct{}

func (*T) m(s string, n int) {}
func same(a, b int)          {}
func once(x int)             {}
func value(x int)            {}
func spread(x int, ys ...int) {}
func mixed(x int)            {}

func g(n int) {
	var t T
	t.m("x", n)
	(&t).m("x", 1)
	same(n, 2)
	same(1, two)
	once(3)
	f := value
	value(1)
	value(1)
	f(1)
	spread(1, 1)
	spread(1, 1)
	mixed(1)
	mixed(n)
}
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	p, err := (&types.Config{}).Check("p", fset, []*ast.File{file}, info)
	if err != nil {
		t.Fatal(err)
	}
	got := constantParams(info, []*ast.File{file}, []*types.Package{p}, "")
	want := []string{"p.T.m.s", "p.same.b", "p.spread.x"}
	if !slices.Equal(got, want) {
		t.Errorf("constant parameters = %v, want %v", got, want)
	}
}
