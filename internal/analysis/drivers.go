package analysis

import (
	"rtlrepair/internal/synth"
	"rtlrepair/internal/verilog"
)

// bitRange is one continuous-assignment target range within a signal,
// normalized to the declaration's LSB. known is false when the select
// bounds are not compile-time constants.
type bitRange struct {
	hi, lo int
	known  bool
	pos    verilog.Pos
}

// sigDrivers aggregates every driver of one signal.
type sigDrivers struct {
	cont []bitRange
	comb []*verilog.Always
	clk  []*verilog.Always
	init bool // wire initializer ("wire x = expr")
	pos  verilog.Pos
}

// driverPass finds multiply-driven nets, internally-driven inputs,
// undeclared assignment targets, out-of-range selects, and
// undriven/unused signals — the conditions Elaborate reports one at a
// time, surfaced all at once as structured diagnostics.
func (a *analyzer) driverPass() {
	drivers := map[string]*sigDrivers{}
	rec := func(name string, pos verilog.Pos) *sigDrivers {
		d := drivers[name]
		if d == nil {
			d = &sigDrivers{pos: pos}
			drivers[name] = d
		}
		return d
	}

	declared := func(name string, pos verilog.Pos) bool {
		if _, ok := a.declOf(name); ok {
			return true
		}
		if a.isParam(name) {
			a.errf(RuleUndeclared, pos, name, "assignment to parameter %q", name)
			return false
		}
		a.errf(RuleUndeclared, pos, name, "assignment to undeclared signal %q", name)
		return false
	}

	for _, it := range a.m.Items {
		switch it := it.(type) {
		case *verilog.Decl:
			if it.Init != nil && it.Kind == verilog.KindWire {
				rec(it.Name, it.Pos).init = true
			}
		case *verilog.ContAssign:
			a.recordContTarget(it.LHS, it.Pos, rec, declared)
		case *verilog.Always:
			for _, tgt := range verilog.StmtTargetNames(it.Body) {
				if !declared(tgt, it.Pos) {
					continue
				}
				d := rec(tgt, it.Pos)
				if it.IsClocked() {
					d.clk = append(d.clk, it)
				} else {
					d.comb = append(d.comb, it)
				}
			}
		}
	}

	reads := a.collectReads()
	clock := a.clockName()

	for _, name := range a.static.Order {
		decl, _ := a.declOf(name)
		d := drivers[name]
		// Loop unrolling eliminates every use of an induction variable;
		// its declaration is a compile-time artifact, not an unused or
		// undriven signal.
		loopVar := a.isLoopVar(name)
		if d == nil {
			// No driver at all. Inputs are driven externally; everything
			// else reads as constant zero in 2-state synthesis.
			if decl.Dir != verilog.DirInput && reads[name] && !loopVar {
				a.warnf(RuleUndriven, declPos(a.m, name), name, "signal %q is read but never driven", name)
			}
			if !reads[name] && decl.Dir == verilog.DirNone && !loopVar {
				a.warnf(RuleUnused, declPos(a.m, name), name, "signal %q is never read", name)
			}
			continue
		}
		if decl.Dir == verilog.DirInput {
			a.errf(RuleMultiDriven, d.pos, name, "input %q is driven inside the module", name)
			continue
		}
		a.checkDriverConflicts(name, decl, d)
		if !reads[name] && decl.Dir == verilog.DirNone && name != clock && !loopVar {
			a.warnf(RuleUnused, d.pos, name, "signal %q is assigned but never read", name)
		}
	}
}

// recordContTarget registers continuous-assignment ranges for an lvalue,
// mirroring Elaborate.addContTarget's target shapes.
func (a *analyzer) recordContTarget(lhs verilog.Expr, pos verilog.Pos,
	rec func(string, verilog.Pos) *sigDrivers, declared func(string, verilog.Pos) bool) {
	switch l := lhs.(type) {
	case *verilog.Ident:
		if !declared(l.Name, pos) {
			return
		}
		decl, _ := a.declOf(l.Name)
		d := rec(l.Name, pos)
		d.cont = append(d.cont, bitRange{hi: decl.Width - 1, lo: 0, known: true, pos: pos})
	case *verilog.Index:
		base := baseIdent(l.X)
		if base == "" || !declared(base, pos) {
			return
		}
		decl, _ := a.declOf(base)
		r := bitRange{known: false, pos: pos}
		if bit, err := a.static.ConstInt(l.Idx); err == nil {
			b := int(bit) - decl.Lsb
			r = bitRange{hi: b, lo: b, known: true, pos: pos}
		}
		d := rec(base, pos)
		d.cont = append(d.cont, r)
	case *verilog.PartSelect:
		base := baseIdent(l.X)
		if base == "" || !declared(base, pos) {
			return
		}
		decl, _ := a.declOf(base)
		r := bitRange{known: false, pos: pos}
		hi, errH := a.static.ConstInt(l.MSB)
		lo, errL := a.static.ConstInt(l.LSB)
		if errH == nil && errL == nil {
			r = bitRange{hi: int(hi) - decl.Lsb, lo: int(lo) - decl.Lsb, known: true, pos: pos}
		}
		d := rec(base, pos)
		d.cont = append(d.cont, r)
	case *verilog.Concat:
		for _, p := range l.Parts {
			a.recordContTarget(p, pos, rec, declared)
		}
	}
}

// checkDriverConflicts reports conflicts between the driver classes of
// one signal and bit overlaps between its continuous drivers.
func (a *analyzer) checkDriverConflicts(name string, decl synth.SigDecl, d *sigDrivers) {
	contCount := len(d.cont)
	if d.init {
		contCount++
	}
	switch {
	case len(d.clk) > 1:
		a.errf(RuleMultiDriven, d.pos, name, "register %q is assigned in %d clocked blocks", name, len(d.clk))
	case len(d.comb) > 1:
		a.errf(RuleMultiDriven, d.pos, name, "signal %q is assigned in %d combinational blocks", name, len(d.comb))
	case len(d.clk) > 0 && len(d.comb) > 0:
		a.errf(RuleMultiDriven, d.pos, name, "signal %q is driven by both clocked and combinational logic", name)
	case (len(d.clk) > 0 || len(d.comb) > 0) && contCount > 0:
		a.errf(RuleMultiDriven, d.pos, name, "signal %q has both procedural and continuous drivers", name)
	}

	// Bit-coverage check across continuous drivers.
	covered := make([]int, decl.Width)
	unknown := 0
	for _, r := range d.cont {
		if !r.known {
			unknown++
			continue
		}
		if r.lo < 0 || r.hi >= decl.Width || r.hi < r.lo {
			a.errf(RuleOutOfRange, r.pos, name, "assignment range [%d:%d] out of bounds for %q (width %d)",
				r.hi+decl.Lsb, r.lo+decl.Lsb, name, decl.Width)
			continue
		}
		for i := r.lo; i <= r.hi; i++ {
			covered[i]++
		}
	}
	if d.init {
		for i := range covered {
			covered[i]++
		}
	}
	for i, n := range covered {
		if n > 1 {
			a.errf(RuleMultiDriven, d.pos, name, "bit %d of %q has %d continuous drivers", i+decl.Lsb, name, n)
			break
		}
	}
	if unknown > 0 && len(d.cont)+boolInt(d.init) > 1 {
		// Dynamic-index drivers cannot be proven disjoint; Elaborate
		// rejects them outright, so flag the ambiguity.
		a.warnf(RuleMultiDriven, d.pos, name, "signal %q has continuous drivers with non-constant select bounds", name)
	}
}

// collectReads returns every name read anywhere in the module:
// right-hand sides, conditions, case subjects and labels, lvalue index
// expressions, sensitivity lists and output ports.
func (a *analyzer) collectReads() map[string]bool {
	reads := map[string]bool{}
	for _, it := range a.m.Items {
		switch it := it.(type) {
		case *verilog.Decl:
			if it.Init != nil {
				verilog.ExprReads(it.Init, reads)
			}
		case *verilog.ContAssign:
			verilog.ExprReads(it.RHS, reads)
			verilog.LHSIndexReads(it.LHS, reads)
		case *verilog.Always:
			for _, s := range it.Senses {
				reads[s.Signal] = true
			}
			stmtReadNames(it.Body, reads)
		case *verilog.Initial:
			stmtReadNames(it.Body, reads)
		}
	}
	for _, p := range a.m.Ports {
		if d, ok := a.declOf(p); ok && d.Dir == verilog.DirOutput {
			reads[p] = true
		}
	}
	return reads
}

// clockName finds the edge-triggered signal (empty for pure comb).
func (a *analyzer) clockName() string {
	clk, err := synth.FindClock(a.m)
	if err != nil {
		return ""
	}
	return clk
}

// declPos finds the declaration position of a signal.
func declPos(m *verilog.Module, name string) verilog.Pos {
	for _, it := range m.Items {
		if d, ok := it.(*verilog.Decl); ok && d.Name == name {
			return d.Pos
		}
	}
	return verilog.Pos{}
}

// baseIdent returns the name of a plain identifier expression.
func baseIdent(e verilog.Expr) string {
	if id, ok := e.(*verilog.Ident); ok {
		return id.Name
	}
	return ""
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
