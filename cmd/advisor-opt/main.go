// Command advisor-opt is the reproduction's analog of LLVM's opt: it
// parses a textual IR module, runs a pass pipeline over it, and prints
// the transformed module. The CUDAAdvisor instrumentation engine runs as
// a pass here exactly as the paper's engine runs under opt.
//
// Usage:
//
//	advisor-opt [-passes list] [-mem] [-blocks] [-arith] [file.mir]
//
// With no file, reads from stdin. -passes is a comma-separated pass
// list run before instrumentation:
//
//	verify       type-check the module (default)
//	constfold    fold constant expressions
//	dce          remove dead pure instructions
//	lint         all the static-advisor checkers
//	lint-branch  report thread-varying conditional branches
//	lint-mem     classify global-memory accesses (uniform/coalesced/
//	             strided/divergent)
//	lint-barrier report barriers under divergent control flow
//	lint-smem    predict shared-memory bank-conflict degrees and
//	             intra-CTA same-interval races
//
// The lint passes are analyses: they print the static advisor's findings
// (findings.FromStatic, the model lint and advise report from) to stdout,
// one line each, and leave the module unchanged. They live in this
// command rather than in internal/pass, because the findings package
// imports the instrumentation engine, which imports pass.
// -mem/-blocks/-arith select the optional
// instrumentation categories (the mandatory call/return instrumentation
// is always inserted when any category is enabled).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"cudaadvisor/internal/instrument"
	"cudaadvisor/internal/ir"
	"cudaadvisor/internal/irtext"
	"cudaadvisor/internal/pass"
)

// passRegistry maps -passes names to constructors. Lint passes write
// their findings to out.
func passRegistry(out io.Writer) map[string]func() pass.Pass {
	reg := map[string]func() pass.Pass{
		"verify":    func() pass.Pass { return pass.VerifyPass{} },
		"constfold": pass.ConstFold,
		"dce":       pass.DCE,
	}
	for name, kinds := range lintKinds {
		reg[name] = func() pass.Pass { return &lintPass{name: name, kinds: kinds, w: out} }
	}
	return reg
}

func passNames(reg map[string]func() pass.Pass) []string {
	names := make([]string, 0, len(reg))
	for n := range reg {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("advisor-opt", flag.ContinueOnError)
	fs.SetOutput(stderr)
	passList := fs.String("passes", "verify",
		"comma-separated passes: verify, constfold, dce, lint, lint-branch, lint-mem, lint-barrier, lint-smem")
	mem := fs.Bool("mem", false, "instrument memory operations")
	blocks := fs.Bool("blocks", false, "instrument basic-block entries")
	arith := fs.Bool("arith", false, "instrument arithmetic operations")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fatal := func(err error) int {
		fmt.Fprintln(stderr, "advisor-opt:", err)
		return 1
	}

	var src []byte
	var name string
	var err error
	switch fs.NArg() {
	case 0:
		name = "<stdin>"
		src, err = io.ReadAll(stdin)
	case 1:
		name = fs.Arg(0)
		src, err = os.ReadFile(name)
	default:
		fmt.Fprintln(stderr, "advisor-opt: at most one input file")
		return 2
	}
	if err != nil {
		return fatal(err)
	}

	m, err := irtext.Parse(name, string(src))
	if err != nil {
		return fatal(err)
	}

	reg := passRegistry(stdout)
	pm := pass.NewManager()
	for _, p := range strings.Split(*passList, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			p = "verify"
		}
		mk, ok := reg[p]
		if !ok {
			return fatal(fmt.Errorf("unknown pass %q (valid: %s)",
				p, strings.Join(passNames(reg), ", ")))
		}
		pm.Add(mk())
	}
	if err := pm.Run(m); err != nil {
		return fatal(err)
	}

	if *mem || *blocks || *arith {
		prog, err := instrument.Instrument(m, instrument.Options{
			Memory: *mem, Blocks: *blocks, Arith: *arith,
		})
		if err != nil {
			return fatal(err)
		}
		fmt.Fprintf(stderr, "instrumented: %d functions, %d blocks in tables\n",
			len(prog.Tables.Funcs), len(prog.Tables.Blocks))
	}

	fmt.Fprint(stdout, ir.Print(m))
	return 0
}
