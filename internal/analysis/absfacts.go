package analysis

import (
	"fmt"
	"sort"
	"strings"

	"rtlrepair/internal/smt"
	"rtlrepair/internal/synth"
	"rtlrepair/internal/tsys"
	"rtlrepair/internal/verilog"
)

// absFactsPass is the fact-driven lint pass: it elaborates the design to
// its transition system, runs the known-bits × interval abstract domains
// to a reachability fixpoint (tsys.AbstractReach), and reports
//
//   - const-net: registers and outputs whose fact is a singleton — the
//     signal holds one value in every reachable cycle;
//   - fact-dead-branch: if-conditions decided by a reachability
//     invariant (not by syntactic constant folding, which the dead-branch
//     rule already covers);
//   - fact-unreachable-arm: case labels outside the selector's
//     reachable value set.
//
// Every diagnostic carries Explain lines listing the abstract facts the
// verdict rests on. Designs that do not elaborate are skipped — the
// structural passes already reported why.
func (a *analyzer) absFactsPass() {
	defer func() {
		// The elaborator panics on malformed designs it cannot reject
		// gracefully; a lint pass must never take the analyzer down.
		_ = recover()
	}()
	ctx := smt.NewContext()
	sys, _, err := synth.Elaborate(ctx, a.m, synth.Options{})
	if err != nil || sys == nil {
		return
	}
	reach := tsys.AbstractReach(sys, 0)
	p := &absPass{a: a, ctx: ctx, sys: sys, reach: reach}
	p.constNets()
	for _, it := range a.m.Items {
		if al, ok := it.(*verilog.Always); ok {
			p.stmt(al.Body)
		}
	}
}

// absPass carries the fact-driven pass state.
type absPass struct {
	a     *analyzer
	ctx   *smt.Context
	sys   *tsys.System
	reach *tsys.ReachFacts
}

// constNets reports state variables and outputs with singleton facts.
func (p *absPass) constNets() {
	names := make([]string, 0, len(p.reach.State))
	for n := range p.reach.State {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := p.reach.State[n]
		st := p.sys.StateByName(n)
		if st == nil || !f.IsConst() {
			continue
		}
		if st.Init != nil && st.Init.Op == smt.OpConst && st.Next == st.Var {
			continue // declared constant; not a finding
		}
		d := Diagnostic{
			Rule: RuleConstNet, Severity: SevInfo, Pos: p.a.m.Pos, Signal: n,
			Msg: fmt.Sprintf("register %q holds 0x%s in every reachable cycle", n, f.Val.HexString()),
			Explain: []string{
				fmt.Sprintf("reach(%s) %s", n, f),
				fmt.Sprintf("next(%s) = %s", n, st.Next),
			},
		}
		p.a.report.add(d)
	}
}

// stmt walks a process body, judging if-conditions and case selectors.
func (p *absPass) stmt(s verilog.Stmt) {
	switch s := s.(type) {
	case *verilog.Block:
		for _, inner := range s.Stmts {
			p.stmt(inner)
		}
	case *verilog.If:
		p.checkIf(s)
		p.stmt(s.Then)
		if s.Else != nil {
			p.stmt(s.Else)
		}
	case *verilog.Case:
		p.checkCaseArms(s)
		for _, item := range s.Items {
			p.stmt(item.Body)
		}
	case *verilog.For:
		p.stmt(s.Body)
	}
}

// checkIf reports if-branches decided by reachability facts. Conditions
// the constant folder already decides are left to the dead-branch rule.
func (p *absPass) checkIf(s *verilog.If) {
	if _, err := p.a.static.ConstEval(s.Cond); err == nil {
		return
	}
	t := p.term(s.Cond)
	if t == nil {
		return
	}
	cond := p.ctx.Truthy(t)
	f := p.reach.FactOf(p.sys, cond)
	if !f.IsConst() {
		return
	}
	explain := p.explainFor(s.Cond, cond, f)
	if f.Val.IsZero() {
		p.a.report.add(Diagnostic{
			Rule: RuleFactDeadBranch, Severity: SevWarning, Pos: s.Then.NodePos(),
			Msg:     "condition is false in every reachable cycle: then-branch is dead",
			Explain: explain,
		})
	} else if s.Else != nil {
		p.a.report.add(Diagnostic{
			Rule: RuleFactDeadBranch, Severity: SevWarning, Pos: s.Else.NodePos(),
			Msg:     "condition is true in every reachable cycle: else-branch is dead",
			Explain: explain,
		})
	}
}

// checkCaseArms reports exact-match case labels the selector's
// reachability fact excludes.
func (p *absPass) checkCaseArms(c *verilog.Case) {
	if c.Kind != verilog.CaseExact {
		return
	}
	subj := p.term(c.Subject)
	if subj == nil {
		return
	}
	f := p.reach.FactOf(p.sys, subj)
	if f.IsTop() {
		return
	}
	subjName := baseIdent(c.Subject)
	if subjName == "" {
		if vars := smt.CollectVars(subj); len(vars) > 0 {
			subjName = vars[0].Name
		}
	}
	for _, item := range c.Items {
		for _, l := range item.Exprs {
			if isWildcardNumber(l) {
				continue
			}
			v, err := p.a.static.ConstEval(l)
			if err != nil {
				continue
			}
			v = v.Resize(subj.Width)
			if f.Admits(v) {
				continue
			}
			p.a.report.add(Diagnostic{
				Rule: RuleFactDeadArm, Severity: SevWarning, Pos: l.NodePos(), Signal: subjName,
				Msg: fmt.Sprintf("case label 0x%s is outside the selector's reachable values", v.HexString()),
				Explain: []string{
					fmt.Sprintf("reach(%s) %s", exprText(c.Subject), f),
					fmt.Sprintf("label 0x%s violates the invariant", v.HexString()),
				},
			})
		}
	}
}

// explainFor builds the justification chain for a decided condition:
// the facts of every state variable the condition reads, then the
// condition's own fact.
func (p *absPass) explainFor(src verilog.Expr, cond *smt.Term, f smt.Fact) []string {
	var lines []string
	seen := map[string]bool{}
	for _, v := range smt.CollectVars(cond) {
		if seen[v.Name] {
			continue
		}
		seen[v.Name] = true
		if sf, ok := p.reach.State[v.Name]; ok {
			lines = append(lines, fmt.Sprintf("reach(%s) %s", v.Name, sf))
		}
	}
	sort.Strings(lines)
	lines = append(lines, fmt.Sprintf("cond(%s) %s", exprText(src), f))
	return lines
}

// term converts a (flattened) Verilog expression to an smt term in the
// elaboration context, so state-variable identities line up with the
// reachability facts. Unsupported shapes — signed operands, 4-state
// literals, dynamic selects — return nil and the condition is skipped;
// conversion is total on the subset the corpus conditions use.
func (p *absPass) term(e verilog.Expr) *smt.Term {
	switch e := e.(type) {
	case *verilog.Number:
		if e.Bits.HasUnknown() {
			return nil
		}
		return p.ctx.Const(e.Bits.Val)
	case *verilog.Ident:
		if v, ok := p.a.static.Params[e.Name]; ok {
			return p.ctx.Const(v)
		}
		d, ok := p.a.static.Signals[e.Name]
		if !ok || d.Signed || d.Width <= 0 {
			return nil
		}
		return p.ctx.Var(e.Name, d.Width)
	case *verilog.Unary:
		x := p.term(e.X)
		if x == nil {
			return nil
		}
		switch e.Op {
		case "~":
			return p.ctx.Not(x)
		case "!":
			return p.ctx.Not(p.ctx.Truthy(x))
		case "-":
			return p.ctx.Neg(x)
		case "+":
			return x
		case "&":
			return p.ctx.RedAnd(x)
		case "|":
			return p.ctx.RedOr(x)
		case "^":
			return p.ctx.RedXor(x)
		case "~&":
			return p.ctx.Not(p.ctx.RedAnd(x))
		case "~|":
			return p.ctx.Not(p.ctx.RedOr(x))
		case "~^", "^~":
			return p.ctx.Not(p.ctx.RedXor(x))
		}
		return nil
	case *verilog.Binary:
		x, y := p.term(e.X), p.term(e.Y)
		if x == nil || y == nil {
			return nil
		}
		switch e.Op {
		case "&&":
			return p.ctx.And(p.ctx.Truthy(x), p.ctx.Truthy(y))
		case "||":
			return p.ctx.Or(p.ctx.Truthy(x), p.ctx.Truthy(y))
		}
		x, y = p.balance(x, y)
		switch e.Op {
		case "+":
			return p.ctx.Add(x, y)
		case "-":
			return p.ctx.Sub(x, y)
		case "&":
			return p.ctx.And(x, y)
		case "|":
			return p.ctx.Or(x, y)
		case "^":
			return p.ctx.Xor(x, y)
		case "==", "===":
			return p.ctx.Eq(x, y)
		case "!=", "!==":
			return p.ctx.Ne(x, y)
		case "<":
			return p.ctx.Ult(x, y)
		case "<=":
			return p.ctx.Ule(x, y)
		case ">":
			return p.ctx.Ugt(x, y)
		case ">=":
			return p.ctx.Uge(x, y)
		}
		return nil
	case *verilog.Ternary:
		c, x, y := p.term(e.Cond), p.term(e.Then), p.term(e.Else)
		if c == nil || x == nil || y == nil {
			return nil
		}
		x, y = p.balance(x, y)
		return p.ctx.Ite(p.ctx.Truthy(c), x, y)
	case *verilog.Index:
		x := p.term(e.X)
		if x == nil {
			return nil
		}
		i64, err := p.a.static.ConstInt(e.Idx)
		i := int(i64)
		if err != nil || i < 0 || i >= x.Width {
			return nil
		}
		return p.ctx.Extract(x, i, i)
	case *verilog.PartSelect:
		x := p.term(e.X)
		if x == nil {
			return nil
		}
		hi64, err1 := p.a.static.ConstInt(e.MSB)
		lo64, err2 := p.a.static.ConstInt(e.LSB)
		hi, lo := int(hi64), int(lo64)
		if err1 != nil || err2 != nil || lo < 0 || hi < lo || hi >= x.Width {
			return nil
		}
		return p.ctx.Extract(x, hi, lo)
	case *verilog.Concat:
		var out *smt.Term
		for _, part := range e.Parts {
			t := p.term(part)
			if t == nil {
				return nil
			}
			if out == nil {
				out = t
			} else {
				out = p.ctx.Concat(out, t)
			}
		}
		return out
	}
	return nil
}

// balance zero-extends the narrower operand (unsigned context only —
// signed operands never reach here).
func (p *absPass) balance(x, y *smt.Term) (*smt.Term, *smt.Term) {
	if x.Width < y.Width {
		x = p.ctx.ZeroExt(x, y.Width)
	} else if y.Width < x.Width {
		y = p.ctx.ZeroExt(y, x.Width)
	}
	return x, y
}

// exprText renders a source expression for Explain lines.
func exprText(e verilog.Expr) string {
	s := verilog.PrintExpr(e)
	if len(s) > 60 {
		s = s[:57] + "..."
	}
	return strings.TrimSpace(s)
}
