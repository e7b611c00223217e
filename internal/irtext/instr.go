package irtext

import (
	"fmt"
	"strconv"
	"strings"

	"cudaadvisor/internal/ir"
)

// punct pads each punctuation character with spaces. A Replacer is safe
// for concurrent use, so every parse shares this one.
var punct = strings.NewReplacer(
	",", " , ",
	"[", " [ ",
	"]", " ] ",
	"(", " ( ",
	")", " ) ",
	"=", " = ",
)

// tokenize splits an instruction line into tokens, making punctuation
// self-delimiting.
func tokenize(line string) []string {
	return strings.Fields(punct.Replace(line))
}

type tokens struct {
	toks []string
	i    int
}

func (t *tokens) peek() string {
	if t.i < len(t.toks) {
		return t.toks[t.i]
	}
	return ""
}

func (t *tokens) pop() string {
	s := t.peek()
	if s != "" {
		t.i++
	}
	return s
}

func (t *tokens) expect(s string) error {
	if got := t.pop(); got != s {
		return fmt.Errorf("expected %q, got %q", s, got)
	}
	return nil
}

func (t *tokens) done() error {
	if t.i != len(t.toks) {
		return fmt.Errorf("trailing tokens %q", strings.Join(t.toks[t.i:], " "))
	}
	return nil
}

// operand parses a register reference or literal.
func (t *tokens) operand() (ir.Operand, error) {
	s := t.pop()
	switch {
	case s == "":
		return ir.Operand{}, fmt.Errorf("expected operand")
	case strings.HasPrefix(s, "%"):
		return ir.RegOp(s[1:]), nil
	case s == "true":
		return ir.IntOp(1, ir.I1), nil
	case s == "false":
		return ir.IntOp(0, ir.I1), nil
	default:
		if strings.ContainsAny(s, ".eE") && !strings.HasPrefix(s, "0x") {
			f, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return ir.Operand{}, fmt.Errorf("bad literal %q", s)
			}
			return ir.FloatOp(f), nil
		}
		v, err := strconv.ParseInt(s, 0, 64)
		if err != nil {
			f, ferr := strconv.ParseFloat(s, 64)
			if ferr == nil {
				return ir.FloatOp(f), nil
			}
			return ir.Operand{}, fmt.Errorf("bad literal %q", s)
		}
		// Leave the type Void; Finalize assigns the context type.
		return ir.Operand{Kind: ir.KConstInt, Int: v}, nil
	}
}

// operandList parses a comma-separated list of operands onto ops. The
// list is empty at the end of the line or before a ")".
func (t *tokens) operandList(ops []ir.Operand) ([]ir.Operand, error) {
	if t.peek() == "" || t.peek() == ")" {
		return ops, nil
	}
	for {
		op, err := t.operand()
		if err != nil {
			return nil, err
		}
		ops = append(ops, op)
		if t.peek() != "," {
			return ops, nil
		}
		t.pop()
	}
}

// addr parses "[ operand ]".
func (t *tokens) addr() (ir.Operand, error) {
	if err := t.expect("["); err != nil {
		return ir.Operand{}, err
	}
	a, err := t.operand()
	if err != nil {
		return ir.Operand{}, err
	}
	if err := t.expect("]"); err != nil {
		return ir.Operand{}, err
	}
	return a, nil
}

// global parses "@name".
func (t *tokens) global(what string) (string, error) {
	s := t.pop()
	name, ok := strings.CutPrefix(s, "@")
	if !ok {
		return "", fmt.Errorf("expected @%s, got %q", what, s)
	}
	return name, nil
}

// label parses a block label.
func (t *tokens) label() (string, error) {
	s := t.pop()
	if s == "" {
		return "", fmt.Errorf("expected a target label")
	}
	return s, nil
}

// lookup returns the T named s, naming what it wanted in an error.
func lookup[T any](s string, from func(string) (T, bool), what string) (T, error) {
	v, ok := from(s)
	if !ok {
		return v, fmt.Errorf("unknown %s %q", what, s)
	}
	return v, nil
}

// parseInstr parses a single instruction line: an optional "%dst =", the
// mnemonic (a ".cg" suffix marks a load that bypasses L1), and the text
// its opcode's syntax form spells.
func parseInstr(line string) (*ir.Instr, error) {
	t := &tokens{toks: tokenize(line)}
	in := &ir.Instr{DstReg: -1, ThenIdx: -1, ElseIdx: -1}

	if strings.HasPrefix(t.peek(), "%") && len(t.toks) > 1 && t.toks[1] == "=" {
		in.Dst = t.pop()[1:]
		t.pop() // "="
	}
	mn := t.pop()
	name, cg := strings.CutSuffix(mn, ".cg")
	op, ok := ir.OpFromString(name)
	if !ok {
		return nil, fmt.Errorf("unknown opcode %q", mn)
	}
	in.Op, in.NonCached = op, cg
	err := t.form(in)
	if err == nil {
		err = t.done()
	}
	if n, ok := in.Arity(); err == nil && ok && n != len(in.Args) {
		err = fmt.Errorf("want %d operands, have %d", n, len(in.Args))
	}
	if err != nil {
		return nil, fmt.Errorf("%v in %q", err, line)
	}
	return in, nil
}

// form parses the text after in's mnemonic, as its opcode's form spells
// it. Its operand lists take any length: parseInstr checks the count.
func (t *tokens) form(in *ir.Instr) (err error) {
	switch in.Op.Form() {
	case ir.FormTyped:
		if in.Type, err = lookup(t.pop(), ir.TypeFromString, "type"); err != nil {
			return err
		}
	case ir.FormCmp:
		if in.Pred, err = lookup(t.pop(), ir.PredFromString, "comparison predicate"); err != nil {
			return err
		}
		in.Type = ir.F32
		if typ, ok := ir.TypeFromString(t.peek()); ok {
			in.Type = typ
			t.pop()
		}
	case ir.FormGEP:
		if in.Args, err = t.operandList(nil); err != nil {
			return err
		}
		n := len(in.Args)
		if n == 0 || in.Args[n-1].Kind != ir.KConstInt {
			return fmt.Errorf("gep wants 'gep base, index, scale' with literal scale")
		}
		in.Args, in.Scale = in.Args[:n-1], in.Args[n-1].Int
		return nil
	case ir.FormMem:
		if in.Mem, err = lookup(t.pop(), ir.MemTypeFromString, "memory element type"); err != nil {
			return err
		}
		if in.Space, err = lookup(t.pop(), ir.SpaceFromString, "address space"); err != nil {
			return err
		}
		a, err := t.addr()
		in.Args = []ir.Operand{a}
		if err != nil || t.peek() != "," {
			return err
		}
		t.pop()
		in.Args, err = t.operandList(in.Args)
		return err
	case ir.FormSReg:
		in.SReg, err = lookup(t.pop(), ir.SRegFromString, "special register")
		return err
	case ir.FormShPtr:
		in.Callee, err = t.global("array")
		return err
	case ir.FormBr:
		in.Then, err = t.label()
		return err
	case ir.FormCBr:
		c, err := t.operand()
		if err != nil {
			return err
		}
		in.Args = []ir.Operand{c}
		if err = t.expect(","); err != nil {
			return err
		}
		if in.Then, err = t.label(); err != nil {
			return err
		}
		if err = t.expect(","); err != nil {
			return err
		}
		in.Else, err = t.label()
		return err
	case ir.FormRet:
		if t.peek() == "" {
			return nil
		}
		a, err := t.operand()
		in.Args = []ir.Operand{a}
		return err
	case ir.FormCall:
		if in.Callee, err = t.global("function"); err != nil {
			return err
		}
		if err = t.expect("("); err != nil {
			return err
		}
		if in.Args, err = t.operandList(nil); err != nil {
			return err
		}
		return t.expect(")")
	}
	in.Args, err = t.operandList(nil)
	return err
}
