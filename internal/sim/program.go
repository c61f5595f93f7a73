package sim

import (
	"fmt"

	"rtlrepair/internal/smt"
	"rtlrepair/internal/tsys"
)

// Program is a transition system compiled for cycle simulation. Every
// term reachable from the output and next-state roots is numbered into
// a dense node array (children before parents) whose entries hold the
// slot indices of their arguments, and every variable is bound once to
// a register or to a free slot. A Program is immutable after Compile and
// safe for concurrent use: each CycleSim built on it owns its memo and
// register state.
//
// Callers that simulate one system many times hold its Program and
// build simulators with NewSim. There is deliberately no global cache:
// a Program lives as long as its owner.
type Program struct {
	sys   *tsys.System
	nodes []node
	outs  []int32 // root slot of each sys.Outputs entry
	next  []int32 // root slot of each sys.States entry's next function
	nwide int     // nodes whose values live in the wide memo

	regOf  map[string]int32 // register name → index into sys.States
	free   []*smt.Term      // non-register variables, by free index
	freeOf map[string]int32 // free variable name → free index
	outOf  map[string]int32 // output name → index into sys.Outputs (last wins)
}

// node is one term of a Program.
type node struct {
	op    smt.Op
	slow  bool   // the node or an argument is wider than 64 bits
	width int    // result width
	mask  uint64 // the low width bits (narrow nodes)
	args  [3]int32
	ref   int32  // variable: register index, or -1-free index
	wide  int32  // index into the wide memo, or -1 for a narrow node
	val   uint64 // narrow constant value
	term  *smt.Term
}

// narrowMax is the widest value the word-pair fast path evaluates.
const narrowMax = 64

// Compile numbers the combinational logic of sys for simulation. It
// panics on a system no simulation of it could run: two registers with
// one name, a variable used at two widths, or a next function whose
// width differs from its register's.
func Compile(sys *tsys.System) *Program {
	p := &Program{
		sys:    sys,
		regOf:  make(map[string]int32, len(sys.States)),
		freeOf: map[string]int32{},
		outOf:  make(map[string]int32, len(sys.Outputs)),
	}
	for i, st := range sys.States {
		if _, dup := p.regOf[st.Var.Name]; dup {
			panic(fmt.Sprintf("sim: duplicate register %q", st.Var.Name))
		}
		if st.Next.Width != st.Var.Width {
			panic(fmt.Sprintf("sim: next of %q has width %d (want %d)", st.Var.Name, st.Next.Width, st.Var.Width))
		}
		p.regOf[st.Var.Name] = int32(i)
	}
	c := compiler{p: p, slot: map[*smt.Term]int32{}, vars: map[string]int32{}}
	for i, o := range sys.Outputs {
		p.outs = append(p.outs, c.add(o.Expr))
		p.outOf[o.Name] = int32(i)
	}
	for _, st := range sys.States {
		p.next = append(p.next, c.add(st.Next))
	}
	return p
}

type compiler struct {
	p    *Program
	slot map[*smt.Term]int32
	vars map[string]int32 // variable name → slot: one slot per name
}

func (c *compiler) add(t *smt.Term) int32 {
	if i, ok := c.slot[t]; ok {
		return i
	}
	p := c.p
	if t.Op == smt.OpVar {
		if i, ok := c.vars[t.Name]; ok {
			if w := p.nodes[i].width; w != t.Width {
				panic(fmt.Sprintf("sim: variable %q used at widths %d and %d", t.Name, w, t.Width))
			}
			c.slot[t] = i
			return i
		}
	}
	n := node{op: t.Op, width: t.Width, args: [3]int32{-1, -1, -1}, wide: -1, term: t}
	for k, a := range t.Args {
		n.args[k] = c.add(a)
		n.slow = n.slow || p.nodes[n.args[k]].wide >= 0
	}
	if t.Width > narrowMax {
		n.wide = int32(p.nwide)
		p.nwide++
		n.slow = true
	} else {
		n.mask = ^uint64(0) >> (narrowMax - t.Width) // 0 for width 0
	}
	switch t.Op {
	case smt.OpConst:
		n.val = t.Val.Uint64()
	case smt.OpVar:
		if r, ok := p.regOf[t.Name]; ok {
			if w := p.sys.States[r].Var.Width; w != t.Width {
				panic(fmt.Sprintf("sim: variable %q used at widths %d and %d", t.Name, w, t.Width))
			}
			n.ref = r
		} else {
			p.freeOf[t.Name] = int32(len(p.free))
			n.ref = -1 - int32(len(p.free))
			p.free = append(p.free, t)
		}
	}
	i := int32(len(p.nodes))
	p.nodes = append(p.nodes, n)
	c.slot[t] = i
	if t.Op == smt.OpVar {
		c.vars[t.Name] = i
	}
	return i
}

// wideReg reports whether register r's value lives in CycleSim.regX.
func (p *Program) wideReg(r int) bool { return p.sys.States[r].Var.Width > narrowMax }
