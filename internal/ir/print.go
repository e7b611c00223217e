package ir

import (
	"fmt"
	"strings"
)

// Print renders a module in the textual IR syntax accepted by package
// irtext. For a module irtext.Parse returned, parsing the printed text
// yields an equal module: every exported field but Loc matches (source
// locations re-derive from the new positions), and printing that module
// gives the same text. irtext's TestPrintParseRoundTrip and FuzzParse
// check it.
func Print(m *Module) string {
	var b strings.Builder
	fmt.Fprintf(&b, "module %s\n", m.Name)
	for _, f := range m.Funcs {
		b.WriteString("\n")
		printFunc(&b, f)
	}
	return b.String()
}

// PrintFunc renders a single function.
func PrintFunc(f *Function) string {
	var b strings.Builder
	printFunc(&b, f)
	return b.String()
}

func printFunc(b *strings.Builder, f *Function) {
	kw := "func"
	if f.IsKernel {
		kw = "kernel"
	}
	fmt.Fprintf(b, "%s @%s(", kw, f.Name)
	for i, p := range f.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(b, "%%%s: %s", p.Name, p.Type)
	}
	b.WriteString(")")
	if f.Result != Void {
		fmt.Fprintf(b, ": %s", f.Result)
	}
	b.WriteString(" {\n")
	for _, s := range f.Shared {
		fmt.Fprintf(b, "  shared @%s: %s[%d]\n", s.Name, s.Elem, s.Count)
	}
	for _, blk := range f.Blocks {
		fmt.Fprintf(b, "%s:\n", blk.Name)
		for _, in := range blk.Instrs {
			fmt.Fprintf(b, "  %s\n", in)
		}
	}
	b.WriteString("}\n")
}
