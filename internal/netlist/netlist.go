// Package netlist lowers a transition system to a gate-level netlist
// (and-inverter graph plus D flip-flops) and simulates it. This is the
// stand-in for the paper's gate-level simulation check (§6.2): a repair
// that only works under event-simulation semantics diverges here, which
// is how synthesis–simulation mismatch is detected automatically.
package netlist

import (
	"fmt"
	"strings"

	"rtlrepair/internal/smt"
	"rtlrepair/internal/tsys"
)

// Lit is a gate literal: node index shifted left once, low bit = invert.
type Lit int32

// MkLit builds a literal for node n, inverted if inv.
func MkLit(n int, inv bool) Lit {
	l := Lit(n << 1)
	if inv {
		l |= 1
	}
	return l
}

// Node returns the node index.
func (l Lit) Node() int { return int(l >> 1) }

// Inverted reports whether the literal is inverted.
func (l Lit) Inverted() bool { return l&1 == 1 }

// Not returns the complement literal.
func (l Lit) Not() Lit { return l ^ 1 }

// NodeKind enumerates gate kinds.
type NodeKind uint8

// Gate kinds. Node 0 is the constant false.
const (
	KindConst NodeKind = iota
	KindInput
	KindAnd
	KindDFF
)

// Node is one gate.
type Node struct {
	Kind NodeKind
	A, B Lit // KindAnd inputs
}

// DFF describes a flip-flop: the node holding its output and the literal
// feeding its D input. Init is nil for an uninitialized flop.
type DFF struct {
	Node int
	Next Lit
	Init *bool
	Name string // state name and bit, for debugging
	Bit  int
}

// Word is a named bundle of literals (LSB first).
type Word struct {
	Name string
	Lits []Lit
}

// Netlist is a flattened gate-level circuit.
type Netlist struct {
	Nodes   []Node
	Inputs  []Word
	Outputs []Word
	DFFs    []DFF

	hash map[[2]Lit]Lit
}

// NumGates reports the number of AND gates.
func (n *Netlist) NumGates() int {
	count := 0
	for _, node := range n.Nodes {
		if node.Kind == KindAnd {
			count++
		}
	}
	return count
}

// falseLit is the constant-0 literal (node 0).
const falseLit = Lit(0)
const trueLit = Lit(1)

func newNetlist() *Netlist {
	return &Netlist{
		Nodes: []Node{{Kind: KindConst}},
		hash:  map[[2]Lit]Lit{},
	}
}

func (n *Netlist) and(a, b Lit) Lit {
	if a == falseLit || b == falseLit {
		return falseLit
	}
	if a == trueLit {
		return b
	}
	if b == trueLit {
		return a
	}
	if a == b {
		return a
	}
	if a == b.Not() {
		return falseLit
	}
	if b < a {
		a, b = b, a
	}
	key := [2]Lit{a, b}
	if l, ok := n.hash[key]; ok {
		return l
	}
	n.Nodes = append(n.Nodes, Node{Kind: KindAnd, A: a, B: b})
	l := MkLit(len(n.Nodes)-1, false)
	n.hash[key] = l
	return l
}

func (n *Netlist) or(a, b Lit) Lit  { return n.and(a.Not(), b.Not()).Not() }
func (n *Netlist) xor(a, b Lit) Lit { return n.or(n.and(a, b.Not()), n.and(a.Not(), b)) }
func (n *Netlist) mux(c, a, b Lit) Lit {
	return n.or(n.and(c, a), n.and(c.Not(), b))
}

func (n *Netlist) addWord(a, b []Lit, cin Lit) []Lit {
	sum := make([]Lit, len(a))
	c := cin
	for i := range a {
		axb := n.xor(a[i], b[i])
		sum[i] = n.xor(axb, c)
		c = n.or(n.and(a[i], b[i]), n.and(axb, c))
	}
	return sum
}

func (n *Netlist) ultWord(a, b []Lit) Lit {
	lt := falseLit
	for i := range a {
		bitLt := n.and(a[i].Not(), b[i])
		eq := n.xor(a[i], b[i]).Not()
		lt = n.or(bitLt, n.and(eq, lt))
	}
	return lt
}

// Build lowers a transition system to gates. Systems with synthesis
// parameters cannot be lowered (repairs are re-elaborated without holes
// before the gate-level check).
func Build(sys *tsys.System) (*Netlist, error) {
	if len(sys.Params) > 0 {
		return nil, fmt.Errorf("netlist: system has unresolved synthesis parameters")
	}
	n := newNetlist()
	b := &builder{n: n, memo: map[*smt.Term][]Lit{}}

	// Allocate inputs.
	for _, in := range sys.Inputs {
		lits := make([]Lit, in.Width)
		for i := range lits {
			n.Nodes = append(n.Nodes, Node{Kind: KindInput})
			lits[i] = MkLit(len(n.Nodes)-1, false)
		}
		n.Inputs = append(n.Inputs, Word{Name: in.Name, Lits: lits})
		b.memo[in] = lits
	}
	// Allocate flop outputs.
	for _, st := range sys.States {
		lits := make([]Lit, st.Var.Width)
		for i := range lits {
			n.Nodes = append(n.Nodes, Node{Kind: KindDFF})
			lits[i] = MkLit(len(n.Nodes)-1, false)
			var init *bool
			if st.Init != nil {
				v := st.Init.Val.Bit(i)
				init = &v
			}
			n.DFFs = append(n.DFFs, DFF{Node: len(n.Nodes) - 1, Init: init, Name: st.Var.Name, Bit: i})
		}
		b.memo[st.Var] = lits
	}
	// Lower next functions and outputs.
	dffIdx := 0
	for _, st := range sys.States {
		next, err := b.lower(st.Next)
		if err != nil {
			return nil, err
		}
		for i := range next {
			n.DFFs[dffIdx].Next = next[i]
			dffIdx++
		}
	}
	for _, o := range sys.Outputs {
		lits, err := b.lower(o.Expr)
		if err != nil {
			return nil, err
		}
		n.Outputs = append(n.Outputs, Word{Name: o.Name, Lits: lits})
	}
	return n, nil
}

type builder struct {
	n    *Netlist
	memo map[*smt.Term][]Lit
}

func (b *builder) lower(t *smt.Term) ([]Lit, error) {
	if ls, ok := b.memo[t]; ok {
		return ls, nil
	}
	n := b.n
	var out []Lit
	argLits := make([][]Lit, len(t.Args))
	for i, a := range t.Args {
		ls, err := b.lower(a)
		if err != nil {
			return nil, err
		}
		argLits[i] = ls
	}
	switch t.Op {
	case smt.OpConst:
		out = make([]Lit, t.Width)
		for i := range out {
			if t.Val.Bit(i) {
				out[i] = trueLit
			} else {
				out[i] = falseLit
			}
		}
	case smt.OpVar:
		return nil, fmt.Errorf("netlist: free variable %q", t.Name)
	case smt.OpNot:
		out = make([]Lit, t.Width)
		for i := range out {
			out[i] = argLits[0][i].Not()
		}
	case smt.OpAnd, smt.OpOr, smt.OpXor:
		out = make([]Lit, t.Width)
		for i := range out {
			switch t.Op {
			case smt.OpAnd:
				out[i] = n.and(argLits[0][i], argLits[1][i])
			case smt.OpOr:
				out[i] = n.or(argLits[0][i], argLits[1][i])
			default:
				out[i] = n.xor(argLits[0][i], argLits[1][i])
			}
		}
	case smt.OpNeg:
		na := make([]Lit, t.Width)
		zero := make([]Lit, t.Width)
		for i := range na {
			na[i] = argLits[0][i].Not()
			zero[i] = falseLit
		}
		out = n.addWord(na, zero, trueLit)
	case smt.OpAdd:
		out = n.addWord(argLits[0], argLits[1], falseLit)
	case smt.OpSub:
		nb := make([]Lit, t.Width)
		for i := range nb {
			nb[i] = argLits[1][i].Not()
		}
		out = n.addWord(argLits[0], nb, trueLit)
	case smt.OpMul:
		acc := make([]Lit, t.Width)
		for i := range acc {
			acc[i] = falseLit
		}
		for i := 0; i < t.Width; i++ {
			addend := make([]Lit, t.Width)
			for j := 0; j < t.Width; j++ {
				if j < i {
					addend[j] = falseLit
				} else {
					addend[j] = n.and(argLits[0][j-i], argLits[1][i])
				}
			}
			acc = n.addWord(acc, addend, falseLit)
		}
		out = acc
	case smt.OpUdiv, smt.OpUrem:
		q, r := b.divRem(argLits[0], argLits[1])
		if t.Op == smt.OpUdiv {
			out = q
		} else {
			out = r
		}
	case smt.OpEq:
		eq := trueLit
		for i := range argLits[0] {
			eq = n.and(eq, n.xor(argLits[0][i], argLits[1][i]).Not())
		}
		out = []Lit{eq}
	case smt.OpUlt:
		out = []Lit{n.ultWord(argLits[0], argLits[1])}
	case smt.OpSlt:
		fa := append([]Lit{}, argLits[0]...)
		fb := append([]Lit{}, argLits[1]...)
		fa[len(fa)-1] = fa[len(fa)-1].Not()
		fb[len(fb)-1] = fb[len(fb)-1].Not()
		out = []Lit{n.ultWord(fa, fb)}
	case smt.OpShl, smt.OpLshr, smt.OpAshr:
		out = b.shift(t, argLits[0], argLits[1])
	case smt.OpConcat:
		out = append(append([]Lit{}, argLits[1]...), argLits[0]...)
	case smt.OpExtract:
		out = append([]Lit{}, argLits[0][t.Lo:t.Hi+1]...)
	case smt.OpZeroExt:
		out = append([]Lit{}, argLits[0]...)
		for len(out) < t.Width {
			out = append(out, falseLit)
		}
	case smt.OpSignExt:
		out = append([]Lit{}, argLits[0]...)
		sign := argLits[0][len(argLits[0])-1]
		for len(out) < t.Width {
			out = append(out, sign)
		}
	case smt.OpIte:
		c := argLits[0][0]
		out = make([]Lit, t.Width)
		for i := range out {
			out[i] = n.mux(c, argLits[1][i], argLits[2][i])
		}
	case smt.OpRedOr:
		r := falseLit
		for _, l := range argLits[0] {
			r = n.or(r, l)
		}
		out = []Lit{r}
	case smt.OpRedAnd:
		r := trueLit
		for _, l := range argLits[0] {
			r = n.and(r, l)
		}
		out = []Lit{r}
	case smt.OpRedXor:
		r := falseLit
		for _, l := range argLits[0] {
			r = n.xor(r, l)
		}
		out = []Lit{r}
	default:
		return nil, fmt.Errorf("netlist: cannot lower %v", t.Op)
	}
	if len(out) != t.Width {
		return nil, fmt.Errorf("netlist: width mismatch lowering %v", t.Op)
	}
	b.memo[t] = out
	return out, nil
}

func (b *builder) divRem(a, bb []Lit) (q, r []Lit) {
	n := b.n
	w := len(a)
	rw := make([]Lit, w+1)
	for i := range rw {
		rw[i] = falseLit
	}
	bw := append(append([]Lit{}, bb...), falseLit)
	q = make([]Lit, w)
	for i := w - 1; i >= 0; i-- {
		shifted := make([]Lit, w+1)
		shifted[0] = a[i]
		copy(shifted[1:], rw[:w])
		ge := n.ultWord(shifted, bw).Not()
		q[i] = ge
		nb := make([]Lit, w+1)
		for j := range bw {
			nb[j] = bw[j].Not()
		}
		diff := n.addWord(shifted, nb, trueLit)
		rw = make([]Lit, w+1)
		for j := range rw {
			rw[j] = n.mux(ge, diff[j], shifted[j])
		}
	}
	return q, rw[:w]
}

func (b *builder) shift(t *smt.Term, a, amt []Lit) []Lit {
	n := b.n
	w := t.Width
	cur := append([]Lit{}, a...)
	fillLit := falseLit
	if t.Op == smt.OpAshr {
		fillLit = a[w-1]
	}
	for stage := 0; stage < len(amt) && (1<<stage) < w; stage++ {
		d := 1 << stage
		next := make([]Lit, w)
		for i := 0; i < w; i++ {
			var shifted Lit
			switch t.Op {
			case smt.OpShl:
				if i-d >= 0 {
					shifted = cur[i-d]
				} else {
					shifted = falseLit
				}
			default:
				if i+d < w {
					shifted = cur[i+d]
				} else {
					shifted = fillLit
				}
			}
			next[i] = n.mux(amt[stage], shifted, cur[i])
		}
		cur = next
	}
	over := falseLit
	for stage := 0; stage < len(amt); stage++ {
		if 1<<stage >= w || stage >= 31 {
			over = n.or(over, amt[stage])
		}
	}
	if over != falseLit {
		out := make([]Lit, w)
		for i := 0; i < w; i++ {
			out[i] = n.mux(over, fillLit, cur[i])
		}
		return out
	}
	return cur
}

// WriteVerilog emits the netlist as structural gate-level Verilog,
// analogous to the synthesized output a tool like yosys would hand to a
// gate-level simulator.
func (n *Netlist) WriteVerilog(name string) string {
	var sb strings.Builder
	var ports []string
	ports = append(ports, "clk")
	for _, w := range n.Inputs {
		ports = append(ports, w.Name)
	}
	for _, w := range n.Outputs {
		ports = append(ports, w.Name)
	}
	fmt.Fprintf(&sb, "module %s(%s);\n", name, strings.Join(ports, ", "))
	fmt.Fprintf(&sb, "  input clk;\n")
	for _, w := range n.Inputs {
		fmt.Fprintf(&sb, "  input [%d:0] %s;\n", len(w.Lits)-1, w.Name)
	}
	for _, w := range n.Outputs {
		fmt.Fprintf(&sb, "  output [%d:0] %s;\n", len(w.Lits)-1, w.Name)
	}
	lit := func(l Lit) string {
		if l == falseLit {
			return "1'b0"
		}
		if l == trueLit {
			return "1'b1"
		}
		if l.Inverted() {
			return fmt.Sprintf("~n%d", l.Node())
		}
		return fmt.Sprintf("n%d", l.Node())
	}
	inputBit := map[int]string{}
	for _, w := range n.Inputs {
		for i, l := range w.Lits {
			inputBit[l.Node()] = fmt.Sprintf("%s[%d]", w.Name, i)
		}
	}
	for idx, node := range n.Nodes {
		switch node.Kind {
		case KindAnd:
			fmt.Fprintf(&sb, "  wire n%d = %s & %s;\n", idx, lit(node.A), lit(node.B))
		case KindDFF:
			fmt.Fprintf(&sb, "  reg n%d;\n", idx)
		case KindInput:
			fmt.Fprintf(&sb, "  wire n%d = %s;\n", idx, inputBit[idx])
		}
	}
	fmt.Fprintf(&sb, "  always @(posedge clk) begin\n")
	for _, d := range n.DFFs {
		fmt.Fprintf(&sb, "    n%d <= %s;\n", d.Node, lit(d.Next))
	}
	fmt.Fprintf(&sb, "  end\n")
	for _, w := range n.Outputs {
		bits := make([]string, len(w.Lits))
		for i, l := range w.Lits {
			bits[len(w.Lits)-1-i] = lit(l)
		}
		fmt.Fprintf(&sb, "  assign %s = {%s};\n", w.Name, strings.Join(bits, ", "))
	}
	fmt.Fprintf(&sb, "endmodule\n")
	return sb.String()
}
