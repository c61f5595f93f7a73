// Package btor2 reads and writes the btor2 format (Niemetz et al., CAV
// 2018) that the paper uses as the interchange between yosys and its
// repair synthesizer. The writer emits a conforming word-level file for
// any transition system; the reader accepts the subset the writer
// produces (plus common yosys output constructs), so externally
// generated circuits can be simulated and model-checked by this
// framework directly.
package btor2

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"rtlrepair/internal/bv"
	"rtlrepair/internal/smt"
	"rtlrepair/internal/tsys"
)

// Write renders the system as btor2.
func Write(w io.Writer, sys *tsys.System) error {
	wr := &writer{w: bufio.NewWriter(w), sorts: map[int]int{}, nodes: map[*smt.Term]int{}, next: 1}
	fmt.Fprintf(wr.w, "; btor2 for %s\n", sys.Name)

	for _, in := range sys.Inputs {
		s := wr.sort(in.Width)
		id := wr.alloc()
		fmt.Fprintf(wr.w, "%d input %d %s\n", id, s, in.Name)
		wr.nodes[in] = id
	}
	// Params become inputs tagged with a comment (btor2 has no notion of
	// symbolic constants; readers that care can treat them specially).
	for _, p := range sys.Params {
		s := wr.sort(p.Width)
		id := wr.alloc()
		fmt.Fprintf(wr.w, "%d input %d %s ; synthesis parameter\n", id, s, p.Name)
		wr.nodes[p] = id
	}
	stateIDs := map[string]int{}
	for _, st := range sys.States {
		s := wr.sort(st.Var.Width)
		id := wr.alloc()
		fmt.Fprintf(wr.w, "%d state %d %s\n", id, s, st.Var.Name)
		wr.nodes[st.Var] = id
		stateIDs[st.Var.Name] = id
	}
	for _, st := range sys.States {
		if st.Init != nil {
			initID, err := wr.term(st.Init)
			if err != nil {
				return err
			}
			id := wr.alloc()
			fmt.Fprintf(wr.w, "%d init %d %d %d\n", id, wr.sort(st.Var.Width), stateIDs[st.Var.Name], initID)
		}
	}
	for _, st := range sys.States {
		nextID, err := wr.term(st.Next)
		if err != nil {
			return err
		}
		id := wr.alloc()
		fmt.Fprintf(wr.w, "%d next %d %d %d\n", id, wr.sort(st.Var.Width), stateIDs[st.Var.Name], nextID)
	}
	for _, o := range sys.Outputs {
		exprID, err := wr.term(o.Expr)
		if err != nil {
			return err
		}
		id := wr.alloc()
		fmt.Fprintf(wr.w, "%d output %d %s\n", id, exprID, o.Name)
	}
	return wr.w.Flush()
}

type writer struct {
	w     *bufio.Writer
	sorts map[int]int
	nodes map[*smt.Term]int
	next  int
}

func (w *writer) alloc() int {
	id := w.next
	w.next++
	return id
}

func (w *writer) sort(width int) int {
	if id, ok := w.sorts[width]; ok {
		return id
	}
	id := w.alloc()
	fmt.Fprintf(w.w, "%d sort bitvec %d\n", id, width)
	w.sorts[width] = id
	return id
}

// binOps maps smt ops to btor2 operator names.
var binOps = map[smt.Op]string{
	smt.OpAnd: "and", smt.OpOr: "or", smt.OpXor: "xor",
	smt.OpAdd: "add", smt.OpSub: "sub", smt.OpMul: "mul",
	smt.OpUdiv: "udiv", smt.OpUrem: "urem",
	smt.OpEq: "eq", smt.OpUlt: "ult", smt.OpSlt: "slt",
	smt.OpShl: "sll", smt.OpLshr: "srl", smt.OpAshr: "sra",
	smt.OpConcat: "concat",
}

func (w *writer) term(t *smt.Term) (int, error) {
	if id, ok := w.nodes[t]; ok {
		return id, nil
	}
	// The sort is declared before the node takes its id, so ids increase
	// down the file and every line refers only to earlier ones.
	s := w.sort(t.Width)
	var id int
	switch t.Op {
	case smt.OpConst:
		id = w.alloc()
		fmt.Fprintf(w.w, "%d const %d %s\n", id, s, t.Val.BinaryString())
	case smt.OpVar:
		return 0, fmt.Errorf("btor2: free variable %q not declared", t.Name)
	case smt.OpNot:
		a, err := w.term(t.Args[0])
		if err != nil {
			return 0, err
		}
		id = w.alloc()
		fmt.Fprintf(w.w, "%d not %d %d\n", id, s, a)
	case smt.OpNeg:
		a, err := w.term(t.Args[0])
		if err != nil {
			return 0, err
		}
		id = w.alloc()
		fmt.Fprintf(w.w, "%d neg %d %d\n", id, s, a)
	case smt.OpRedOr, smt.OpRedAnd, smt.OpRedXor:
		a, err := w.term(t.Args[0])
		if err != nil {
			return 0, err
		}
		op := map[smt.Op]string{smt.OpRedOr: "redor", smt.OpRedAnd: "redand", smt.OpRedXor: "redxor"}[t.Op]
		id = w.alloc()
		fmt.Fprintf(w.w, "%d %s %d %d\n", id, op, s, a)
	case smt.OpExtract:
		a, err := w.term(t.Args[0])
		if err != nil {
			return 0, err
		}
		id = w.alloc()
		fmt.Fprintf(w.w, "%d slice %d %d %d %d\n", id, s, a, t.Hi, t.Lo)
	case smt.OpZeroExt:
		a, err := w.term(t.Args[0])
		if err != nil {
			return 0, err
		}
		id = w.alloc()
		fmt.Fprintf(w.w, "%d uext %d %d %d\n", id, s, a, t.Width-t.Args[0].Width)
	case smt.OpSignExt:
		a, err := w.term(t.Args[0])
		if err != nil {
			return 0, err
		}
		id = w.alloc()
		fmt.Fprintf(w.w, "%d sext %d %d %d\n", id, s, a, t.Width-t.Args[0].Width)
	case smt.OpIte:
		c, err := w.term(t.Args[0])
		if err != nil {
			return 0, err
		}
		a, err := w.term(t.Args[1])
		if err != nil {
			return 0, err
		}
		b, err := w.term(t.Args[2])
		if err != nil {
			return 0, err
		}
		id = w.alloc()
		fmt.Fprintf(w.w, "%d ite %d %d %d %d\n", id, s, c, a, b)
	default:
		op, ok := binOps[t.Op]
		if !ok {
			return 0, fmt.Errorf("btor2: cannot serialize op %v", t.Op)
		}
		a, err := w.term(t.Args[0])
		if err != nil {
			return 0, err
		}
		b, err := w.term(t.Args[1])
		if err != nil {
			return 0, err
		}
		id = w.alloc()
		fmt.Fprintf(w.w, "%d %s %d %d %d\n", id, op, s, a, b)
	}
	w.nodes[t] = id
	return id, nil
}

// Read parses a btor2 file into a transition system.
func Read(r io.Reader, ctx *smt.Context) (*tsys.System, error) {
	p := &parser{
		ctx:   ctx,
		sorts: map[int]int{},
		terms: map[int]*smt.Term{},
	}
	sys := &tsys.System{Name: "btor2"}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	lineNo := 0
	stateByID := map[int]*tsys.State{}
	var stateOrder []int
	anon := 0

	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		id, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("btor2:%d: bad node id %q", lineNo, fields[0])
		}
		if len(fields) < 2 {
			return nil, fmt.Errorf("btor2:%d: truncated line", lineNo)
		}
		op := fields[1]
		args := fields[2:]
		switch op {
		case "sort":
			if len(args) < 2 || args[0] != "bitvec" {
				return nil, fmt.Errorf("btor2:%d: only bitvec sorts are supported", lineNo)
			}
			w, err := strconv.Atoi(args[1])
			if err != nil || w <= 0 {
				return nil, fmt.Errorf("btor2:%d: bad sort width", lineNo)
			}
			p.sorts[id] = w
		case "input":
			width, err := p.width(args, 0)
			if err != nil {
				return nil, fmt.Errorf("btor2:%d: %v", lineNo, err)
			}
			name := fmt.Sprintf("input_%d", id)
			if len(args) > 1 {
				name = args[1]
			}
			v := ctx.Var(name, width)
			p.terms[id] = v
			sys.Inputs = append(sys.Inputs, v)
		case "state":
			width, err := p.width(args, 0)
			if err != nil {
				return nil, fmt.Errorf("btor2:%d: %v", lineNo, err)
			}
			name := fmt.Sprintf("state_%d", id)
			if len(args) > 1 {
				name = args[1]
			}
			v := ctx.Var(name, width)
			p.terms[id] = v
			stateByID[id] = &tsys.State{Var: v}
			stateOrder = append(stateOrder, id)
		case "init":
			if len(args) < 3 {
				return nil, fmt.Errorf("btor2:%d: init needs sort, state, value", lineNo)
			}
			sid, _ := strconv.Atoi(args[1])
			vid, _ := strconv.Atoi(args[2])
			st, ok := stateByID[sid]
			if !ok {
				return nil, fmt.Errorf("btor2:%d: init of unknown state %d", lineNo, sid)
			}
			val, ok := p.terms[vid]
			if !ok {
				return nil, fmt.Errorf("btor2:%d: init references undefined node %d", lineNo, vid)
			}
			st.Init = val
		case "next":
			if len(args) < 3 {
				return nil, fmt.Errorf("btor2:%d: next needs sort, state, value", lineNo)
			}
			sid, _ := strconv.Atoi(args[1])
			vid, _ := strconv.Atoi(args[2])
			st, ok := stateByID[sid]
			if !ok {
				return nil, fmt.Errorf("btor2:%d: next of unknown state %d", lineNo, sid)
			}
			val, ok := p.terms[vid]
			if !ok {
				return nil, fmt.Errorf("btor2:%d: next references undefined node %d", lineNo, vid)
			}
			st.Next = val
		case "output":
			if len(args) < 1 {
				return nil, fmt.Errorf("btor2:%d: output needs a node", lineNo)
			}
			nid, _ := strconv.Atoi(args[0])
			expr, ok := p.terms[nid]
			if !ok {
				return nil, fmt.Errorf("btor2:%d: output references undefined node %d", lineNo, nid)
			}
			name := fmt.Sprintf("output_%d", anon)
			anon++
			if len(args) > 1 {
				name = args[1]
			}
			sys.Outputs = append(sys.Outputs, tsys.Output{Name: name, Expr: expr})
		case "bad", "constraint", "fair", "justice":
			// Properties become 1-bit outputs named bad_N/constraint_N.
			nid, _ := strconv.Atoi(args[0])
			expr, ok := p.terms[nid]
			if !ok {
				return nil, fmt.Errorf("btor2:%d: %s references undefined node %d", lineNo, op, nid)
			}
			sys.Outputs = append(sys.Outputs, tsys.Output{Name: fmt.Sprintf("%s_%d", op, id), Expr: expr})
		default:
			term, err := p.node(op, args)
			if err != nil {
				return nil, fmt.Errorf("btor2:%d: %v", lineNo, err)
			}
			p.terms[id] = term
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.Ints(stateOrder)
	for _, sid := range stateOrder {
		st := stateByID[sid]
		if st.Next == nil {
			st.Next = st.Var // unconstrained states hold their value
		}
		sys.States = append(sys.States, *st)
	}
	return sys, sys.Validate()
}

type parser struct {
	ctx   *smt.Context
	sorts map[int]int
	terms map[int]*smt.Term
}

func (p *parser) width(args []string, i int) (int, error) {
	if len(args) <= i {
		return 0, fmt.Errorf("missing sort reference")
	}
	sid, err := strconv.Atoi(args[i])
	if err != nil {
		return 0, fmt.Errorf("bad sort reference %q", args[i])
	}
	w, ok := p.sorts[sid]
	if !ok {
		return 0, fmt.Errorf("unknown sort %d", sid)
	}
	return w, nil
}

func (p *parser) arg(args []string, i int) (*smt.Term, error) {
	if len(args) <= i {
		return nil, fmt.Errorf("missing operand")
	}
	nid, err := strconv.Atoi(args[i])
	if err != nil {
		return nil, fmt.Errorf("bad operand %q", args[i])
	}
	neg := false
	if nid < 0 {
		neg = true
		nid = -nid
	}
	t, ok := p.terms[nid]
	if !ok {
		return nil, fmt.Errorf("undefined node %d", nid)
	}
	if neg {
		t = p.ctx.Not(t)
	}
	return t, nil
}

func (p *parser) intArg(args []string, i int) (int, error) {
	if len(args) <= i {
		return 0, fmt.Errorf("missing integer operand")
	}
	return strconv.Atoi(args[i])
}

var readBin = map[string]func(*smt.Context, *smt.Term, *smt.Term) *smt.Term{
	"and": (*smt.Context).And, "or": (*smt.Context).Or, "xor": (*smt.Context).Xor,
	"add": (*smt.Context).Add, "sub": (*smt.Context).Sub, "mul": (*smt.Context).Mul,
	"udiv": (*smt.Context).Udiv, "urem": (*smt.Context).Urem,
	"eq": (*smt.Context).Eq, "ult": (*smt.Context).Ult, "slt": (*smt.Context).Slt,
	"sll": (*smt.Context).Shl, "srl": (*smt.Context).Lshr, "sra": (*smt.Context).Ashr,
	"concat": (*smt.Context).Concat,
	"ulte":   (*smt.Context).Ule, "ugt": (*smt.Context).Ugt, "ugte": (*smt.Context).Uge,
	"neq": (*smt.Context).Ne,
}

func (p *parser) node(op string, args []string) (*smt.Term, error) {
	switch op {
	case "const":
		w, err := p.width(args, 0)
		if err != nil {
			return nil, err
		}
		if len(args) < 2 {
			return nil, fmt.Errorf("const needs digits")
		}
		x, err := bv.ParseX(args[1])
		if err != nil || x.HasUnknown() {
			return nil, fmt.Errorf("bad const %q", args[1])
		}
		return p.ctx.Const(x.Val.Resize(w)), nil
	case "constd":
		w, err := p.width(args, 0)
		if err != nil {
			return nil, err
		}
		v, err := strconv.ParseUint(args[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad constd %q", args[1])
		}
		return p.ctx.ConstU(w, v), nil
	case "consth":
		w, err := p.width(args, 0)
		if err != nil {
			return nil, err
		}
		v, err := strconv.ParseUint(args[1], 16, 64)
		if err != nil {
			return nil, fmt.Errorf("bad consth %q", args[1])
		}
		return p.ctx.ConstU(w, v), nil
	case "zero":
		w, err := p.width(args, 0)
		if err != nil {
			return nil, err
		}
		return p.ctx.Const(bv.Zero(w)), nil
	case "one":
		w, err := p.width(args, 0)
		if err != nil {
			return nil, err
		}
		return p.ctx.Const(bv.One(w)), nil
	case "ones":
		w, err := p.width(args, 0)
		if err != nil {
			return nil, err
		}
		return p.ctx.Const(bv.Ones(w)), nil
	case "not":
		a, err := p.arg(args, 1)
		if err != nil {
			return nil, err
		}
		return p.ctx.Not(a), nil
	case "neg":
		a, err := p.arg(args, 1)
		if err != nil {
			return nil, err
		}
		return p.ctx.Neg(a), nil
	case "redor", "redand", "redxor":
		a, err := p.arg(args, 1)
		if err != nil {
			return nil, err
		}
		switch op {
		case "redor":
			return p.ctx.RedOr(a), nil
		case "redand":
			return p.ctx.RedAnd(a), nil
		default:
			return p.ctx.RedXor(a), nil
		}
	case "slice":
		a, err := p.arg(args, 1)
		if err != nil {
			return nil, err
		}
		hi, err := p.intArg(args, 2)
		if err != nil {
			return nil, err
		}
		lo, err := p.intArg(args, 3)
		if err != nil {
			return nil, err
		}
		return p.ctx.Extract(a, hi, lo), nil
	case "uext":
		w, err := p.width(args, 0)
		if err != nil {
			return nil, err
		}
		a, err := p.arg(args, 1)
		if err != nil {
			return nil, err
		}
		return p.ctx.ZeroExt(a, w), nil
	case "sext":
		w, err := p.width(args, 0)
		if err != nil {
			return nil, err
		}
		a, err := p.arg(args, 1)
		if err != nil {
			return nil, err
		}
		return p.ctx.SignExt(a, w), nil
	case "ite":
		c, err := p.arg(args, 1)
		if err != nil {
			return nil, err
		}
		a, err := p.arg(args, 2)
		if err != nil {
			return nil, err
		}
		b, err := p.arg(args, 3)
		if err != nil {
			return nil, err
		}
		return p.ctx.Ite(c, a, b), nil
	case "implies":
		a, err := p.arg(args, 1)
		if err != nil {
			return nil, err
		}
		b, err := p.arg(args, 2)
		if err != nil {
			return nil, err
		}
		return p.ctx.Implies(a, b), nil
	default:
		f, ok := readBin[op]
		if !ok {
			return nil, fmt.Errorf("unsupported operator %q", op)
		}
		a, err := p.arg(args, 1)
		if err != nil {
			return nil, err
		}
		b, err := p.arg(args, 2)
		if err != nil {
			return nil, err
		}
		return f(p.ctx, a, b), nil
	}
}
