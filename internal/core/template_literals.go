package core

import (
	"fmt"

	"rtlrepair/internal/verilog"
)

// ReplaceLiterals is the template of Figure 6: every integer literal in
// an r-value position may be replaced by a freely-chosen constant.
// Literals that must stay compile-time constants — declaration ranges,
// parameter values, part-select bounds, replication counts and case
// labels — are conservatively excluded.
type ReplaceLiterals struct{}

// Name returns the template name used in reports.
func (ReplaceLiterals) Name() string { return "Replace Literals" }

// Instrument replaces each candidate literal L with (φ ? α : L).
func (ReplaceLiterals) Instrument(m *verilog.Module, env *Env, vars *VarTable) (*verilog.Module, error) {
	out := verilog.CloneModule(m)
	rewrite := func(e verilog.Expr) verilog.Expr {
		n, ok := e.(*verilog.Number)
		if !ok {
			return e
		}
		// Skip degenerate zero-width or enormous literals.
		if n.Width <= 0 || n.Width > 128 {
			return e
		}
		phi := vars.NewPhi(1, fmt.Sprintf("replace literal %s at %v", verilog.PrintExpr(n), n.Pos))
		alpha := vars.NewAlpha(n.Width)
		return &verilog.Ternary{Pos: n.Pos, Cond: phi, Then: alpha, Else: n}
	}
	// The traversal visits exactly the r-value positions: continuous
	// assignment RHSs, procedural RHSs, if conditions and case subjects —
	// and deliberately skips declaration ranges, parameter values, case
	// labels, replication counts, part-select bounds and assignments to
	// frozen signals.
	for _, it := range out.Items {
		switch it := it.(type) {
		case *verilog.ContAssign:
			if anyFrozen(env, it.LHS) || !env.InCone(verilog.LHSBaseNames(it.LHS)...) {
				continue
			}
			it.RHS = rewriteRValue(it.RHS, rewrite)
		case *verilog.Always:
			rewriteStmtRValues(it.Body, env, rewrite)
		case *verilog.Initial:
			rewriteStmtRValues(it.Body, env, rewrite)
		}
	}
	return out, nil
}

// anyFrozen reports whether an lvalue touches a frozen signal.
func anyFrozen(env *Env, lhs verilog.Expr) bool {
	for _, name := range verilog.LHSBaseNames(lhs) {
		if env.IsFrozen(name) {
			return true
		}
	}
	return false
}

// rewriteRValue applies f bottom-up to an r-value expression (same
// positions verilog.RewriteExprs would visit).
func rewriteRValue(e verilog.Expr, f func(verilog.Expr) verilog.Expr) verilog.Expr {
	probe := &verilog.Assign{LHS: &verilog.Ident{Name: "_"}, RHS: e}
	verilog.RewriteStmtExprs(probe, f)
	return probe.RHS
}

// rewriteStmtRValues mirrors verilog.RewriteStmtExprs but skips
// assignments to frozen signals.
func rewriteStmtRValues(s verilog.Stmt, env *Env, f func(verilog.Expr) verilog.Expr) {
	switch s := s.(type) {
	case *verilog.Block:
		for _, inner := range s.Stmts {
			rewriteStmtRValues(inner, env, f)
		}
	case *verilog.If:
		// A literal in the condition can only matter if some assignment
		// it controls reaches a failing output.
		if env.InCone(stmtTargets(s)...) {
			s.Cond = rewriteRValue(s.Cond, f)
		}
		rewriteStmtRValues(s.Then, env, f)
		if s.Else != nil {
			rewriteStmtRValues(s.Else, env, f)
		}
	case *verilog.Case:
		if env.InCone(stmtTargets(s)...) {
			s.Subject = rewriteRValue(s.Subject, f)
		}
		for i := range s.Items {
			rewriteStmtRValues(s.Items[i].Body, env, f)
		}
	case *verilog.Assign:
		if anyFrozen(env, s.LHS) || !env.InCone(verilog.LHSBaseNames(s.LHS)...) {
			return
		}
		s.RHS = rewriteRValue(s.RHS, f)
	}
}
