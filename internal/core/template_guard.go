package core

import (
	"fmt"
	"sort"

	"rtlrepair/internal/verilog"
)

// AddGuard is the template of Figure 5: the condition of any if
// statement and the right-hand side of any 1-bit assignment may be
// inverted and/or strengthened with a guard built from the design's
// 1-bit signals: e → (¬?)e ∧ ((¬?)a (∨ (¬?)b)?). Guard candidates are
// restricted so that no new combinational cycle can arise.
type AddGuard struct{}

// Name returns the template name used in reports.
func (AddGuard) Name() string { return "Add Guard" }

// Instrument applies the transform to every eligible expression.
func (AddGuard) Instrument(m *verilog.Module, env *Env, vars *VarTable) (*verilog.Module, error) {
	out := verilog.CloneModule(m)
	g := &guardInstr{env: env, vars: vars, reach: map[string]map[string]bool{}}

	// All 1-bit signals are guard candidates, except the clock.
	for name, w := range env.Info.Widths {
		if w == 1 && name != env.Info.ClockName {
			g.oneBit = append(g.oneBit, name)
		}
	}
	sort.Strings(g.oneBit)

	for _, it := range out.Items {
		switch it := it.(type) {
		case *verilog.ContAssign:
			if name, ok := identName(it.LHS); ok && env.Info.Widths[name] == 1 &&
				!env.IsFrozen(name) && env.InCone(name) {
				it.RHS = g.wrap(it.RHS, []string{name}, it.Pos)
			}
		case *verilog.Always:
			// In clocked processes the guarded expressions feed registers
			// only, so no combinational cycle can be created and every
			// candidate is safe.
			var targets []string
			if !it.IsClocked() {
				targets = stmtTargets(it.Body)
			}
			g.walkStmt(it.Body, it, targets)
		}
	}
	return out, nil
}

type guardInstr struct {
	env    *Env
	vars   *VarTable
	oneBit []string
	reach  map[string]map[string]bool
}

// reachable computes the transitive combinational dependency set.
func (g *guardInstr) reachable(name string) map[string]bool {
	if r, ok := g.reach[name]; ok {
		return r
	}
	r := map[string]bool{}
	g.reach[name] = r // break cycles
	for dep := range g.env.Info.CombDeps[name] {
		r[dep] = true
		for d2 := range g.reachable(dep) {
			r[d2] = true
		}
	}
	return r
}

// candidates returns the guard variables that will not create a new
// combinational dependency from any target back to itself.
func (g *guardInstr) candidates(targets []string) []string {
	if len(targets) == 0 {
		return g.oneBit
	}
	var out []string
	for _, cand := range g.oneBit {
		ok := true
		reach := g.reachable(cand)
		for _, tgt := range targets {
			if cand == tgt || reach[tgt] {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, cand)
		}
	}
	return out
}

func (g *guardInstr) walkStmt(s verilog.Stmt, parent *verilog.Always, targets []string) {
	switch s := s.(type) {
	case *verilog.Block:
		for _, inner := range s.Stmts {
			g.walkStmt(inner, parent, targets)
		}
	case *verilog.If:
		// Guarding the condition only helps if some assignment it
		// controls can reach a failing output.
		if g.env.InCone(stmtTargets(s)...) {
			s.Cond = g.wrap(s.Cond, targets, s.Pos)
		}
		g.walkStmt(s.Then, parent, targets)
		if s.Else != nil {
			g.walkStmt(s.Else, parent, targets)
		}
	case *verilog.Case:
		for i := range s.Items {
			g.walkStmt(s.Items[i].Body, parent, targets)
		}
	case *verilog.Assign:
		if name, ok := identName(s.LHS); ok && g.env.Info.Widths[name] == 1 &&
			!g.env.IsFrozen(name) && g.env.InCone(name) {
			s.RHS = g.wrap(s.RHS, targets, s.Pos)
		}
	}
}

// wrap builds (φ_inv ? !e : e) && (φ_g ? guard : 1'b1).
func (g *guardInstr) wrap(e verilog.Expr, targets []string, pos verilog.Pos) verilog.Expr {
	phiInv := g.vars.NewPhi(1, fmt.Sprintf("invert condition %s at %v", clip(verilog.PrintExpr(e)), pos))
	inv := &verilog.Ternary{
		Pos:  pos,
		Cond: phiInv,
		Then: &verilog.Unary{Pos: pos, Op: "!", X: verilog.CloneExpr(e)},
		Else: e,
	}
	cands := g.candidates(targets)
	if len(cands) == 0 {
		return inv
	}
	phiG := g.vars.NewPhi(1, fmt.Sprintf("add guard to %s at %v", clip(verilog.PrintExpr(e)), pos))
	phiB := g.vars.NewPhi(1, fmt.Sprintf("add second guard disjunct at %v", pos))
	selA := g.selector(cands, pos)
	selB := g.selector(cands, pos)
	gexpr := &verilog.Binary{
		Pos: pos, Op: "||",
		X: selA,
		Y: &verilog.Ternary{Pos: pos, Cond: phiB, Then: selB, Else: verilog.MkNumber(1, 0)},
	}
	guard := &verilog.Ternary{Pos: pos, Cond: phiG, Then: gexpr, Else: verilog.MkNumber(1, 1)}
	return &verilog.Binary{Pos: pos, Op: "&&", X: inv, Y: guard}
}

// selector builds an optionally-negated, α-selected candidate reference:
// (α_pol ? !c : c) with c chosen by a mux chain over selector bits.
func (g *guardInstr) selector(cands []string, pos verilog.Pos) verilog.Expr {
	pol := g.vars.NewAlpha(1)
	c := g.muxChain(cands, pos)
	return &verilog.Ternary{
		Pos:  pos,
		Cond: pol,
		Then: &verilog.Unary{Pos: pos, Op: "!", X: verilog.CloneExpr(c)},
		Else: c,
	}
}

// muxChain selects one candidate via a binary tree of α-driven ternaries.
func (g *guardInstr) muxChain(cands []string, pos verilog.Pos) verilog.Expr {
	if len(cands) == 1 {
		return &verilog.Ident{Pos: pos, Name: cands[0]}
	}
	mid := len(cands) / 2
	bit := g.vars.NewAlpha(1)
	return &verilog.Ternary{
		Pos:  pos,
		Cond: bit,
		Then: g.muxChain(cands[mid:], pos),
		Else: g.muxChain(cands[:mid], pos),
	}
}

func identName(e verilog.Expr) (string, bool) {
	id, ok := e.(*verilog.Ident)
	if !ok {
		return "", false
	}
	return id.Name, true
}

// stmtTargets lists base names assigned under a statement.
func stmtTargets(s verilog.Stmt) []string {
	seen := map[string]bool{}
	var out []string
	var rec func(verilog.Stmt)
	rec = func(s verilog.Stmt) {
		switch s := s.(type) {
		case *verilog.Block:
			for _, inner := range s.Stmts {
				rec(inner)
			}
		case *verilog.If:
			rec(s.Then)
			if s.Else != nil {
				rec(s.Else)
			}
		case *verilog.Case:
			for _, item := range s.Items {
				rec(item.Body)
			}
		case *verilog.Assign:
			for _, n := range verilog.LHSBaseNames(s.LHS) {
				if !seen[n] {
					seen[n] = true
					out = append(out, n)
				}
			}
		}
	}
	rec(s)
	return out
}

func clip(s string) string {
	if len(s) > 40 {
		return s[:37] + "..."
	}
	return s
}
