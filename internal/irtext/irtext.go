// Package irtext parses the textual form of the miniature device IR.
//
// The format is line-oriented, mirroring the way the paper's kernels are
// written in CUDA source files: one instruction per line, so the parser
// can attach accurate file/line/column debug information to every
// instruction — the information CUDAAdvisor's instrumentation engine
// forwards to its analysis functions.
//
// Grammar sketch:
//
//	module NAME
//
//	kernel @name(%p: ptr, %n: i32) {
//	  shared @tile: f32[256]
//	entry:
//	  %tx  = sreg tid.x
//	  %c   = icmp lt i32 %tx, %n
//	  cbr %c, body, exit
//	body:
//	  %a = gep %p, %tx, 4
//	  %v = ld f32 global [%a]
//	  st f32 global [%a], %v
//	  br exit
//	exit:
//	  ret
//	}
//
//	func @helper(%x: f32): f32 {
//	entry:
//	  ret %x
//	}
//
// Comments run from "//" or ";" to end of line.
package irtext

import (
	"fmt"
	"strconv"
	"strings"

	"cudaadvisor/internal/ir"
)

// Error is a parse error with position information.
type Error struct {
	File string
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("%s:%d: %s", e.File, e.Line, e.Msg) }

// Parse parses the textual IR in src. file names the source (used in
// error messages and instruction debug info). The returned module is
// finalized but not verified; callers normally run ir.Verify (the pass
// pipeline and experiments.NewRequest do this).
func Parse(file, src string) (*ir.Module, error) {
	p := &parser{file: file, lines: strings.Split(src, "\n")}
	m, err := p.parseModule()
	if err != nil {
		return nil, err
	}
	if err := m.Finalize(); err != nil {
		return nil, &Error{File: file, Line: 0, Msg: err.Error()}
	}
	return m, nil
}

type parser struct {
	file  string
	lines []string
	pos   int // current line index
}

func (p *parser) errf(format string, args ...any) error {
	return &Error{File: p.file, Line: p.pos + 1, Msg: fmt.Sprintf(format, args...)}
}

// next returns the next significant line (comments stripped), its
// indentation column (1-based), and false at EOF. The parser's pos is
// left at the returned line.
func (p *parser) next() (string, int, bool) {
	for p.pos < len(p.lines) {
		raw := p.lines[p.pos]
		line := stripComment(raw)
		trimmed := strings.TrimSpace(line)
		if trimmed == "" {
			p.pos++
			continue
		}
		col := 1 + len(line) - len(strings.TrimLeft(line, " \t"))
		return trimmed, col, true
	}
	return "", 0, false
}

func stripComment(s string) string {
	if i := strings.Index(s, "//"); i >= 0 {
		s = s[:i]
	}
	if i := strings.Index(s, ";"); i >= 0 {
		s = s[:i]
	}
	return s
}

func (p *parser) parseModule() (*ir.Module, error) {
	line, _, ok := p.next()
	if !ok {
		return nil, p.errf("empty input")
	}
	name, found := strings.CutPrefix(line, "module ")
	if !found {
		return nil, p.errf("expected 'module NAME', got %q", line)
	}
	m := ir.NewModule(strings.TrimSpace(name))
	p.pos++

	for {
		line, _, ok := p.next()
		if !ok {
			break
		}
		switch {
		case strings.HasPrefix(line, "kernel "), strings.HasPrefix(line, "func "):
			f, err := p.parseFunc(line)
			if err != nil {
				return nil, err
			}
			m.AddFunc(f)
		default:
			return nil, p.errf("expected 'kernel' or 'func', got %q", line)
		}
	}
	return m, nil
}

// parseFunc parses a function from its header line through the closing '}'.
func (p *parser) parseFunc(header string) (*ir.Function, error) {
	f := &ir.Function{}
	rest := header
	if s, ok := strings.CutPrefix(header, "kernel "); ok {
		f.IsKernel = true
		rest = s
	} else if s, ok := strings.CutPrefix(header, "func "); ok {
		rest = s
	}
	rest = strings.TrimSpace(rest)

	// @name(params) [: type] {
	if !strings.HasSuffix(rest, "{") {
		return nil, p.errf("function header must end in '{'")
	}
	rest = strings.TrimSpace(strings.TrimSuffix(rest, "{"))
	open := strings.IndexByte(rest, '(')
	closeIdx := strings.LastIndexByte(rest, ')')
	if !strings.HasPrefix(rest, "@") || open < 0 || closeIdx < open {
		return nil, p.errf("malformed function header %q", rest)
	}
	f.Name = rest[1:open]
	paramsStr := rest[open+1 : closeIdx]
	tail := strings.TrimSpace(rest[closeIdx+1:])
	f.Result = ir.Void
	if tail != "" {
		tstr, ok := strings.CutPrefix(tail, ":")
		if !ok {
			return nil, p.errf("unexpected %q after parameter list", tail)
		}
		t, err := lookup(strings.TrimSpace(tstr), ir.TypeFromString, "type")
		if err != nil {
			return nil, p.errf("%v", err)
		}
		f.Result = t
	}
	if f.IsKernel && f.Result != ir.Void {
		return nil, p.errf("kernel @%s cannot return a value", f.Name)
	}

	if strings.TrimSpace(paramsStr) != "" {
		for _, ps := range strings.Split(paramsStr, ",") {
			ps = strings.TrimSpace(ps)
			nameStr, typeStr, ok := strings.Cut(ps, ":")
			nameStr = strings.TrimSpace(nameStr)
			if !ok || !strings.HasPrefix(nameStr, "%") {
				return nil, p.errf("malformed parameter %q (want %%name: type)", ps)
			}
			t, err := lookup(strings.TrimSpace(typeStr), ir.TypeFromString, "type")
			if err != nil {
				return nil, p.errf("parameter %q: %v", ps, err)
			}
			f.Params = append(f.Params, ir.Param{Name: nameStr[1:], Type: t})
		}
	}
	p.pos++

	var cur *ir.Block
	for {
		line, col, ok := p.next()
		if !ok {
			return nil, p.errf("unexpected EOF in function @%s", f.Name)
		}
		lineNo := p.pos + 1
		p.pos++
		switch {
		case line == "}":
			if len(f.Blocks) == 0 {
				return nil, p.errf("function @%s has no blocks", f.Name)
			}
			return f, nil
		case strings.HasPrefix(line, "shared "):
			sd, err := parseShared(strings.TrimPrefix(line, "shared "))
			if err != nil {
				return nil, &Error{File: p.file, Line: lineNo, Msg: err.Error()}
			}
			f.Shared = append(f.Shared, sd)
		case strings.HasSuffix(line, ":") && !strings.ContainsAny(line, " \t="):
			cur = &ir.Block{Name: strings.TrimSuffix(line, ":")}
			f.Blocks = append(f.Blocks, cur)
		default:
			if cur == nil {
				return nil, &Error{File: p.file, Line: lineNo, Msg: "instruction before first block label"}
			}
			in, err := parseInstr(line)
			if err != nil {
				return nil, &Error{File: p.file, Line: lineNo, Msg: err.Error()}
			}
			in.Loc = ir.Loc{File: p.file, Line: lineNo, Col: col}
			cur.Instrs = append(cur.Instrs, in)
		}
	}
}

// parseShared parses "@name: elem[count]".
func parseShared(s string) (ir.SharedDecl, error) {
	var sd ir.SharedDecl
	nameStr, rest, ok := strings.Cut(s, ":")
	nameStr = strings.TrimSpace(nameStr)
	if !ok || !strings.HasPrefix(nameStr, "@") {
		return sd, fmt.Errorf("malformed shared declaration %q (want @name: type[count])", s)
	}
	sd.Name = nameStr[1:]
	rest = strings.TrimSpace(rest)
	open := strings.IndexByte(rest, '[')
	if open < 0 || !strings.HasSuffix(rest, "]") {
		return sd, fmt.Errorf("malformed shared array %q", rest)
	}
	mt, err := lookup(strings.TrimSpace(rest[:open]), ir.MemTypeFromString, "memory element type")
	if err != nil {
		return sd, err
	}
	sd.Elem = mt
	n, err := strconv.Atoi(strings.TrimSpace(rest[open+1 : len(rest)-1]))
	if err != nil || n <= 0 {
		return sd, fmt.Errorf("bad shared array count %q", rest[open+1:len(rest)-1])
	}
	sd.Count = n
	return sd, nil
}
