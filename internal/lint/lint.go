// Package lint implements RTL-Repair's static-analysis preprocessing
// (§4.1). The paper runs Verilator as a linter and automatically fixes
// two classes of issues that keep a design from synthesizing: the wrong
// kind of procedural assignment for the process type, and inferred
// latches, which get a default value of zero. We additionally complete
// level-sensitive sensitivity lists (Verilator's COMBDLY/ALWCOMBORDER
// family of warnings), which is how several "incorrect sensitivity list"
// benchmarks are repaired by preprocessing alone.
package lint

import (
	"errors"
	"fmt"

	"rtlrepair/internal/analysis"
	"rtlrepair/internal/smt"
	"rtlrepair/internal/synth"
	"rtlrepair/internal/verilog"
)

// FixKind enumerates automatic fixes.
type FixKind int

// Fix kinds.
const (
	FixAssignKind FixKind = iota
	FixSensitivity
	FixLatchDefault
)

func (k FixKind) String() string {
	switch k {
	case FixAssignKind:
		return "assignment-kind"
	case FixSensitivity:
		return "sensitivity-list"
	case FixLatchDefault:
		return "latch-default"
	}
	return "unknown"
}

// Fix describes one applied preprocessing change.
type Fix struct {
	Kind   FixKind
	Pos    verilog.Pos
	Signal string
	Desc   string
}

// PreprocessWithReport returns a repaired clone of m, the list of fixes
// that were applied, and the static-analysis report of the *fixed*
// design. The input module is not modified. Lib provides instantiated
// modules (they are preprocessed transitively via flattening inside
// elaboration; lint itself only touches the top module, as in the
// paper's per-file operation). The report tells the caller what lint
// could not fix: error-severity diagnostics predict elaboration failure
// (an early cannot-repair classification), and the flagged signals feed
// fault localization in the repair engine. The report is never nil.
func PreprocessWithReport(m *verilog.Module, lib map[string]*verilog.Module) (*verilog.Module, []Fix, *analysis.Report, error) {
	out := verilog.CloneModule(m)
	var fixes []Fix

	fixes = append(fixes, fixAssignKinds(out)...)
	fixes = append(fixes, fixSensitivity(out)...)

	latchFixes, err := fixLatches(out, lib)
	if err != nil {
		return out, fixes, analysis.Analyze(out, analysis.Options{Lib: lib}), err
	}
	fixes = append(fixes, latchFixes...)
	return out, fixes, analysis.Analyze(out, analysis.Options{Lib: lib}), nil
}

// fixAssignKinds converts blocking assignments in clocked processes to
// non-blocking and vice versa in combinational processes.
func fixAssignKinds(m *verilog.Module) []Fix {
	var fixes []Fix
	verilog.WalkStmts(m, func(s verilog.Stmt, parent *verilog.Always) {
		a, ok := s.(*verilog.Assign)
		if !ok || parent == nil {
			return
		}
		if parent.IsClocked() && a.Blocking {
			a.Blocking = false
			fixes = append(fixes, Fix{Kind: FixAssignKind, Pos: a.Pos,
				Desc: fmt.Sprintf("%v: blocking assignment in clocked process changed to non-blocking", a.Pos)})
		} else if !parent.IsClocked() && !a.Blocking {
			a.Blocking = true
			fixes = append(fixes, Fix{Kind: FixAssignKind, Pos: a.Pos,
				Desc: fmt.Sprintf("%v: non-blocking assignment in combinational process changed to blocking", a.Pos)})
		}
	})
	return fixes
}

// fixSensitivity replaces incomplete level-sensitive lists with @(*).
// The missing-signal computation is shared with the analysis engine's
// sens-incomplete diagnostic (analysis.MissingSenses), so the fix fires
// exactly where rtllint warns. For-loop induction variables and
// parameters cannot produce events and do not count as missing.
func fixSensitivity(m *verilog.Module) []Fix {
	var fixes []Fix
	params := analysis.ModuleParams(m)
	isParam := func(name string) bool { return params[name] }
	for _, it := range m.Items {
		a, ok := it.(*verilog.Always)
		if !ok {
			continue
		}
		if len(analysis.MissingSenses(a, isParam)) > 0 {
			a.Star = true
			a.Senses = nil
			fixes = append(fixes, Fix{Kind: FixSensitivity, Pos: a.Pos,
				Desc: fmt.Sprintf("%v: incomplete sensitivity list replaced with @(*)", a.Pos)})
		}
	}
	return fixes
}

// fixLatches elaborates the design and, for every latch diagnostic,
// inserts a zero default assignment at the start of the responsible
// combinational process, repeating until elaboration stops reporting
// latches (or fails differently).
func fixLatches(m *verilog.Module, lib map[string]*verilog.Module) ([]Fix, error) {
	var fixes []Fix
	for iter := 0; iter < 8; iter++ {
		_, _, err := synth.Elaborate(smt.NewContext(), m, synth.Options{Lib: lib})
		if err == nil {
			return fixes, nil
		}
		var se *synth.ErrSynth
		if !errors.As(err, &se) || se.Kind != "latch" || len(se.Signals) == 0 {
			// Other synthesis problems are not lint's to fix; they are
			// reported to the repair engine which will classify the
			// design as not repairable.
			return fixes, nil
		}
		static, serr := synth.Static(m)
		if serr != nil {
			return fixes, nil
		}
		progress := false
		for _, name := range se.Signals {
			blk := findCombBlockAssigning(m, name)
			if blk == nil {
				continue
			}
			width := 1
			if d, ok := static.Signals[name]; ok {
				width = d.Width
			}
			def := &verilog.Assign{
				Pos:      blk.NodePos(),
				LHS:      &verilog.Ident{Name: name},
				RHS:      verilog.MkNumber(width, 0),
				Blocking: true,
			}
			prependStmt(blk, def)
			progress = true
			fixes = append(fixes, Fix{Kind: FixLatchDefault, Pos: blk.NodePos(), Signal: name,
				Desc: fmt.Sprintf("%v: latch on %q removed by inserting default assignment to 0", blk.NodePos(), name)})
		}
		if !progress {
			return fixes, nil
		}
	}
	return fixes, nil
}

// findCombBlockAssigning locates the combinational always block that
// assigns the given signal, whatever the shape of the left-hand side
// (plain identifier, bit/part select or concatenation part) — a latch
// on a signal assigned only through x[i] or {hi, lo} must still get its
// default inserted.
func findCombBlockAssigning(m *verilog.Module, name string) *verilog.Always {
	var found *verilog.Always
	verilog.WalkStmts(m, func(s verilog.Stmt, parent *verilog.Always) {
		if found != nil || parent == nil || parent.IsClocked() {
			return
		}
		if a, ok := s.(*verilog.Assign); ok {
			for _, base := range verilog.LHSBaseNames(a.LHS) {
				if base == name {
					found = parent
					return
				}
			}
		}
	})
	return found
}

// prependStmt inserts a statement at the start of an always body,
// wrapping non-block bodies in a begin/end.
func prependStmt(a *verilog.Always, s verilog.Stmt) {
	if b, ok := a.Body.(*verilog.Block); ok {
		b.Stmts = append([]verilog.Stmt{s}, b.Stmts...)
		return
	}
	a.Body = &verilog.Block{Pos: a.Pos, Stmts: []verilog.Stmt{s, a.Body}}
}
