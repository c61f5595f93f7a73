package synth

import (
	"rtlrepair/internal/verilog"
)

// DepGraph is the signal-level dependency graph of a flattened module,
// built purely syntactically (no SMT context, no elaboration). It is the
// substrate for the static-analysis passes in internal/analysis:
// combinational-loop detection runs Tarjan's SCC algorithm over Comb,
// and fault localization computes cones of influence over Comb ∪ Seq.
//
// The granularity matches elaboration: every target of a combinational
// always block conservatively depends on everything the block reads
// before assigning it (reads of signals that are definitely assigned
// earlier in the block see the in-block value and create no edge, which
// is exactly the blocking-assignment shadowing Elaborate implements).
type DepGraph struct {
	// Comb maps each combinationally-driven signal (continuous assign or
	// combinational always target) to the signals its definition reads.
	Comb map[string]map[string]bool
	// Seq maps each register to the signals read by its clocked block.
	Seq map[string]map[string]bool
	// CombDriven marks the keys of Comb (signals with a comb driver).
	CombDriven map[string]bool
	// Pos records a representative driver position per driven signal.
	Pos map[string]verilog.Pos
}

// Deps builds the dependency graph of a module. The module should be
// flat (instances inlined, loops unrolled — see Flatten); unsupported
// constructs are skipped rather than reported, so Deps never fails.
func Deps(m *verilog.Module) *DepGraph {
	g := &DepGraph{
		Comb:       map[string]map[string]bool{},
		Seq:        map[string]map[string]bool{},
		CombDriven: map[string]bool{},
		Pos:        map[string]verilog.Pos{},
	}
	for _, it := range m.Items {
		switch it := it.(type) {
		case *verilog.ContAssign:
			reads := map[string]bool{}
			verilog.ExprReads(it.RHS, reads)
			verilog.LHSIndexReads(it.LHS, reads)
			for _, tgt := range verilog.LHSBaseNames(it.LHS) {
				g.addEdges(g.Comb, tgt, reads)
				g.CombDriven[tgt] = true
				g.notePos(tgt, it.Pos)
			}
		case *verilog.Decl:
			if it.Init != nil && it.Kind == verilog.KindWire {
				reads := map[string]bool{}
				verilog.ExprReads(it.Init, reads)
				g.addEdges(g.Comb, it.Name, reads)
				g.CombDriven[it.Name] = true
				g.notePos(it.Name, it.Pos)
			}
		case *verilog.Always:
			targets := map[string]bool{}
			for _, s := range verilog.StmtTargetNames(it.Body) {
				targets[s] = true
			}
			reads := map[string]bool{}
			stmtReads(it.Body, map[string]bool{}, reads, targets)
			into := g.Comb
			if it.IsClocked() {
				into = g.Seq
			}
			for tgt := range targets {
				g.addEdges(into, tgt, reads)
				if !it.IsClocked() {
					g.CombDriven[tgt] = true
				}
				g.notePos(tgt, it.Pos)
			}
		}
	}
	return g
}

func (g *DepGraph) addEdges(into map[string]map[string]bool, tgt string, reads map[string]bool) {
	m := into[tgt]
	if m == nil {
		m = map[string]bool{}
		into[tgt] = m
	}
	for r := range reads {
		m[r] = true
	}
}

func (g *DepGraph) notePos(name string, pos verilog.Pos) {
	if _, ok := g.Pos[name]; !ok {
		g.Pos[name] = pos
	}
}

// stmtReads collects the names a statement reads *before* they are
// definitely assigned on every path (those reads see the pre-block value
// and therefore create dependency edges). assigned is mutated to the
// definitely-assigned set after the statement. targets limits shadowing
// to the block's own targets.
func stmtReads(s verilog.Stmt, assigned, reads, targets map[string]bool) {
	addReads := func(e verilog.Expr) {
		if e == nil {
			return
		}
		raw := map[string]bool{}
		verilog.ExprReads(e, raw)
		for r := range raw {
			if !assigned[r] {
				reads[r] = true
			}
		}
	}
	switch s := s.(type) {
	case *verilog.Block:
		for _, inner := range s.Stmts {
			stmtReads(inner, assigned, reads, targets)
		}
	case *verilog.If:
		addReads(s.Cond)
		thenA := copySet(assigned)
		elseA := copySet(assigned)
		stmtReads(s.Then, thenA, reads, targets)
		if s.Else != nil {
			stmtReads(s.Else, elseA, reads, targets)
		}
		intersectInto(assigned, thenA, elseA)
	case *verilog.Case:
		addReads(s.Subject)
		var branches []map[string]bool
		hasDefault := false
		for _, item := range s.Items {
			for _, l := range item.Exprs {
				addReads(l)
			}
			if item.Exprs == nil {
				hasDefault = true
			}
			b := copySet(assigned)
			stmtReads(item.Body, b, reads, targets)
			branches = append(branches, b)
		}
		if hasDefault && len(branches) > 0 {
			intersectInto(assigned, branches...)
		}
	case *verilog.Assign:
		addReads(s.RHS)
		idx := map[string]bool{}
		verilog.LHSIndexReads(s.LHS, idx)
		for r := range idx {
			if !assigned[r] {
				reads[r] = true
			}
		}
		// A partial (bit/part-select) assignment keeps the other bits, so
		// the previous value of the base signal is still read. Plain
		// identifier targets — directly or as concat parts — overwrite the
		// whole signal and shadow later reads.
		var assignLHS func(lhs verilog.Expr)
		assignLHS = func(lhs verilog.Expr) {
			switch l := lhs.(type) {
			case *verilog.Ident:
				if targets[l.Name] {
					assigned[l.Name] = true
				}
			case *verilog.Concat:
				for _, p := range l.Parts {
					assignLHS(p)
				}
			case *verilog.Index, *verilog.PartSelect:
				for _, base := range verilog.LHSBaseNames(l) {
					if !assigned[base] {
						reads[base] = true
					}
				}
			}
		}
		assignLHS(s.LHS)
	case *verilog.For:
		addReads(s.Init)
		assigned[s.Var] = true
		addReads(s.Cond)
		addReads(s.Step)
		stmtReads(s.Body, assigned, reads, targets)
	}
}

func copySet(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m))
	for k := range m {
		out[k] = true
	}
	return out
}

// intersectInto replaces dst with the intersection of the given sets.
func intersectInto(dst map[string]bool, sets ...map[string]bool) {
	for k := range dst {
		delete(dst, k)
	}
	if len(sets) == 0 {
		return
	}
	for k := range sets[0] {
		in := true
		for _, s := range sets[1:] {
			if !s[k] {
				in = false
				break
			}
		}
		if in {
			dst[k] = true
		}
	}
}
