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

// operandList parses a comma-separated list of operands.
func (t *tokens) operandList() ([]ir.Operand, error) {
	var ops []ir.Operand
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

var intBinOps = map[string]ir.Op{
	"add": ir.OpAdd, "sub": ir.OpSub, "mul": ir.OpMul, "sdiv": ir.OpSDiv, "srem": ir.OpSRem,
	"and": ir.OpAnd, "or": ir.OpOr, "xor": ir.OpXor,
	"shl": ir.OpShl, "lshr": ir.OpLShr, "ashr": ir.OpAShr,
	"smin": ir.OpSMin, "smax": ir.OpSMax,
}

var floatBinOps = map[string]ir.Op{
	"fadd": ir.OpFAdd, "fsub": ir.OpFSub, "fmul": ir.OpFMul, "fdiv": ir.OpFDiv,
	"fmin": ir.OpFMin, "fmax": ir.OpFMax,
}

var floatUnOps = map[string]ir.Op{
	"fneg": ir.OpFNeg, "fabs": ir.OpFAbs, "fsqrt": ir.OpFSqrt, "fexp": ir.OpFExp, "flog": ir.OpFLog,
}

var cvtOps = map[string]ir.Op{
	"sitofp": ir.OpSitofp, "fptosi": ir.OpFptosi,
	"sext": ir.OpSext, "trunc": ir.OpTrunc, "zext": ir.OpZext,
}

// parseInstr parses a single instruction line.
func parseInstr(line string) (*ir.Instr, error) {
	t := &tokens{toks: tokenize(line)}
	in := &ir.Instr{DstReg: -1, ThenIdx: -1, ElseIdx: -1}

	if strings.HasPrefix(t.peek(), "%") && len(t.toks) > 1 && t.toks[1] == "=" {
		in.Dst = t.pop()[1:]
		t.pop() // "="
	}

	op := t.pop()
	var err error
	switch {
	case intBinOps[op] != ir.OpInvalid:
		in.Op = intBinOps[op]
		err = parseTypedBin(t, in)
	case floatBinOps[op] != ir.OpInvalid:
		in.Op = floatBinOps[op]
		err = parseTypedBin(t, in)
	case floatUnOps[op] != ir.OpInvalid:
		in.Op = floatUnOps[op]
		err = parseTypedUnary(t, in)
	case cvtOps[op] != ir.OpInvalid:
		in.Op = cvtOps[op]
		var a ir.Operand
		if a, err = t.operand(); err == nil {
			in.Args = []ir.Operand{a}
		}
	case op == "icmp" || op == "fcmp":
		in.Op = ir.OpICmp
		if op == "fcmp" {
			in.Op = ir.OpFCmp
		}
		pred, ok := ir.PredFromString(t.pop())
		if !ok {
			return nil, fmt.Errorf("bad comparison predicate in %q", line)
		}
		in.Pred = pred
		if in.Op == ir.OpICmp {
			if in.Type, err = parseType(t.pop()); err != nil {
				return nil, err
			}
		} else {
			in.Type = ir.F32
			if t.peek() == "f32" {
				t.pop()
			}
		}
		var args []ir.Operand
		if args, err = t.operandList(); err == nil {
			if len(args) != 2 {
				err = fmt.Errorf("%s needs 2 operands", op)
			}
			in.Args = args
		}
	case op == "select":
		in.Op = ir.OpSelect
		if in.Type, err = parseType(t.pop()); err != nil {
			return nil, err
		}
		var args []ir.Operand
		if args, err = t.operandList(); err == nil {
			if len(args) != 3 {
				err = fmt.Errorf("select needs 3 operands")
			}
			in.Args = args
		}
	case op == "mov":
		in.Op = ir.OpMov
		if in.Type, err = parseType(t.pop()); err != nil {
			return nil, err
		}
		var a ir.Operand
		if a, err = t.operand(); err == nil {
			in.Args = []ir.Operand{a}
		}
	case op == "gep":
		in.Op = ir.OpGEP
		var args []ir.Operand
		if args, err = t.operandList(); err != nil {
			break
		}
		if len(args) != 3 || args[2].Kind != ir.KConstInt {
			return nil, fmt.Errorf("gep wants 'gep base, index, scale' with literal scale")
		}
		in.Args = args[:2]
		in.Scale = args[2].Int
	case op == "ld", op == "ld.cg":
		in.Op = ir.OpLd
		in.NonCached = op == "ld.cg"
		err = parseMemOp(t, in, false)
	case op == "st":
		in.Op = ir.OpSt
		err = parseMemOp(t, in, true)
	case op == "atomadd":
		in.Op = ir.OpAtom
		err = parseMemOp(t, in, true)
	case op == "sreg":
		in.Op = ir.OpSReg
		k, ok := ir.SRegFromString(t.pop())
		if !ok {
			return nil, fmt.Errorf("unknown special register in %q", line)
		}
		in.SReg = k
	case op == "shptr":
		in.Op = ir.OpShPtr
		name := t.pop()
		if !strings.HasPrefix(name, "@") {
			return nil, fmt.Errorf("shptr wants @array")
		}
		in.Callee = name[1:]
	case op == "br":
		in.Op = ir.OpBr
		in.Then = t.pop()
		if in.Then == "" {
			return nil, fmt.Errorf("br wants a target label")
		}
	case op == "cbr":
		in.Op = ir.OpCBr
		var c ir.Operand
		if c, err = t.operand(); err != nil {
			break
		}
		in.Args = []ir.Operand{c}
		if err = t.expect(","); err != nil {
			break
		}
		in.Then = t.pop()
		if err = t.expect(","); err != nil {
			break
		}
		in.Else = t.pop()
		if in.Then == "" || in.Else == "" {
			return nil, fmt.Errorf("cbr wants two target labels")
		}
	case op == "ret":
		in.Op = ir.OpRet
		if t.peek() != "" {
			var v ir.Operand
			if v, err = t.operand(); err == nil {
				in.Args = []ir.Operand{v}
			}
		}
	case op == "call":
		in.Op = ir.OpCall
		err = parseCall(t, in)
	case op == "bar":
		in.Op = ir.OpBar
	default:
		return nil, fmt.Errorf("unknown opcode %q", op)
	}
	if err != nil {
		return nil, fmt.Errorf("%v in %q", err, line)
	}
	if err := t.done(); err != nil {
		return nil, fmt.Errorf("%v in %q", err, line)
	}
	return in, nil
}

func parseTypedBin(t *tokens, in *ir.Instr) error {
	typ, err := parseType(t.pop())
	if err != nil {
		return err
	}
	in.Type = typ
	args, err := t.operandList()
	if err != nil {
		return err
	}
	if len(args) != 2 {
		return fmt.Errorf("%s needs 2 operands", in.Op)
	}
	in.Args = args
	return nil
}

func parseTypedUnary(t *tokens, in *ir.Instr) error {
	typ, err := parseType(t.pop())
	if err != nil {
		return err
	}
	in.Type = typ
	a, err := t.operand()
	if err != nil {
		return err
	}
	in.Args = []ir.Operand{a}
	return nil
}

func parseMemOp(t *tokens, in *ir.Instr, hasValue bool) error {
	mt, err := parseMemType(t.pop())
	if err != nil {
		return err
	}
	in.Mem = mt
	sp, err := parseSpace(t.pop())
	if err != nil {
		return err
	}
	in.Space = sp
	a, err := t.addr()
	if err != nil {
		return err
	}
	in.Args = []ir.Operand{a}
	if hasValue {
		if err := t.expect(","); err != nil {
			return err
		}
		v, err := t.operand()
		if err != nil {
			return err
		}
		in.Args = append(in.Args, v)
	}
	return nil
}

func parseCall(t *tokens, in *ir.Instr) error {
	name := t.pop()
	if !strings.HasPrefix(name, "@") {
		return fmt.Errorf("call wants @function")
	}
	in.Callee = name[1:]
	if err := t.expect("("); err != nil {
		return err
	}
	if t.peek() == ")" {
		t.pop()
		return nil
	}
	args, err := t.operandList()
	if err != nil {
		return err
	}
	in.Args = args
	return t.expect(")")
}
