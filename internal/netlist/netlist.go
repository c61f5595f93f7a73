// Package netlist lowers a transition system to a gate-level netlist
// (and-inverter graph plus D flip-flops) and simulates it. This is the
// stand-in for the paper's gate-level simulation check (§6.2): a repair
// that only works under event-simulation semantics diverges here, which
// is how synthesis–simulation mismatch is detected automatically.
package netlist

import (
	"fmt"
	"strings"

	"rtlrepair/internal/sat"
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

// and returns the structurally hashed AND of a and b.
func (n *Netlist) and(a, b Lit) Lit {
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

// gates is the netlist's gate library for smt.Lowering: a structurally
// hashed AND, XOR built as three ANDs, and no free inputs. Build binds
// every input and flop bit and rejects a system whose roots read any
// other variable, so Input's placeholder never reaches a netlist it
// returns.
type gates struct{ n *Netlist }

func (g gates) And(a, b sat.Lit) sat.Lit { return sat.Lit(g.n.and(Lit(a), Lit(b))) }

func (g gates) Xor(a, b sat.Lit) sat.Lit {
	x, y := Lit(a), Lit(b)
	return sat.Lit(g.n.and(g.n.and(x, y.Not()).Not(), g.n.and(x.Not(), y).Not()).Not())
}

func (g gates) Input() sat.Lit { return sat.Lit(falseLit) }

// Build lowers a transition system to gates with the bit-blaster's
// lowering (smt.Lowering). Systems with synthesis parameters cannot be
// lowered (repairs are re-elaborated without holes before the
// gate-level check).
func Build(sys *tsys.System) (*Netlist, error) {
	if len(sys.Params) > 0 {
		return nil, fmt.Errorf("netlist: system has unresolved synthesis parameters")
	}
	n := newNetlist()
	low := smt.NewLowering(gates{n}, sat.Lit(trueLit))
	newNode := func(kind NodeKind) sat.Lit {
		n.Nodes = append(n.Nodes, Node{Kind: kind})
		return sat.Lit(MkLit(len(n.Nodes)-1, false))
	}

	// Allocate inputs.
	for _, in := range sys.Inputs {
		bits := make([]sat.Lit, in.Width)
		for i := range bits {
			bits[i] = newNode(KindInput)
		}
		low.Bind(in, bits)
		n.Inputs = append(n.Inputs, Word{Name: in.Name, Lits: toLits(bits)})
	}
	// Allocate flop outputs.
	for _, st := range sys.States {
		bits := make([]sat.Lit, st.Var.Width)
		for i := range bits {
			bits[i] = newNode(KindDFF)
			var init *bool
			if st.Init != nil {
				v := st.Init.Val.Bit(i)
				init = &v
			}
			n.DFFs = append(n.DFFs, DFF{Node: len(n.Nodes) - 1, Init: init, Name: st.Var.Name, Bit: i})
		}
		low.Bind(st.Var, bits)
	}
	// Lower next functions and outputs.
	dffIdx := 0
	for _, st := range sys.States {
		for _, l := range low.Lower(st.Next) {
			n.DFFs[dffIdx].Next = Lit(l)
			dffIdx++
		}
	}
	for _, o := range sys.Outputs {
		n.Outputs = append(n.Outputs, Word{Name: o.Name, Lits: toLits(low.Lower(o.Expr))})
	}
	if free := low.Vars(); len(free) > 0 {
		return nil, fmt.Errorf("netlist: free variable %q", free[0].Name)
	}
	return n, nil
}

// toLits copies lowered literals into gate literals.
func toLits(ls []sat.Lit) []Lit {
	out := make([]Lit, len(ls))
	for i, l := range ls {
		out[i] = Lit(l)
	}
	return out
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
