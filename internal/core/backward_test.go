package core

import (
	"testing"

	"rtlrepair/internal/analysis"
	"rtlrepair/internal/bench"
	"rtlrepair/internal/obs"
	"rtlrepair/internal/sat"
	"rtlrepair/internal/sim"
	"rtlrepair/internal/smt"
	"rtlrepair/internal/synth"
	"rtlrepair/internal/tsys"
)

// minimalChanges returns the least Σ cost·φ under which check is Sat,
// given the Σ value of a first Sat model. It is the minimal-change
// linear search of solveWindow without the model reads.
func minimalChanges(t *testing.T, s *Synthesizer, check func(...*smt.Term) sat.Status, first int) int {
	t.Helper()
	sum := s.sumTerm()
	for k := 0; k < first; k++ {
		if check(s.ctx.Ule(sum, s.ctx.ConstU(16, uint64(k)))) == sat.Sat {
			return k
		}
	}
	return first
}

// rebuildWindow is the reference encoder: a fresh solver over cycles
// [start, end) unrolled from the concrete start state, with the same
// cycle asserts as the live window. It returns the window's status and,
// when Sat, its minimal Σ cost·φ.
func rebuildWindow(t *testing.T, s *Synthesizer, start, end int) (sat.Status, int) {
	t.Helper()
	state := s.prefixState(start)
	init := map[*smt.Term]*smt.Term{}
	for _, st := range s.sys.States {
		init[st.Var] = s.ctx.Const(state[st.Var.Name].Val)
	}
	u := tsys.Unroll(s.ctx, s.sys, end-start, init)
	ref := smt.NewSolver(s.ctx)
	s.assertCycles(ref, u, start, start, end)
	check := func(assumptions ...*smt.Term) sat.Status {
		st, err := ref.Check(assumptions...)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if check() != sat.Sat {
		return sat.Unsat, -1
	}
	return sat.Sat, minimalChanges(t, s, check, s.vars.Changes(modelOf(s, ref)))
}

// modelOf reads every synthesis variable from a solver's Sat model.
func modelOf(s *Synthesizer, solver *smt.Solver) Assignment {
	a := Assignment{}
	for _, v := range s.allVars() {
		a[v.Name] = solver.Value(v)
	}
	return a
}

// growAndCompare runs one attempt's window sequence around the first
// failure ff, comparing every window with rebuildWindow. It returns how
// many windows prepended cycles, appended cycles, and had their start
// clamped at cycle 0.
func growAndCompare(t *testing.T, name string, s *Synthesizer, ff int) (prepends, appends, clamps int) {
	t.Helper()
	check := func(assumptions ...*smt.Term) sat.Status {
		st, err := s.check(assumptions...)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	kPast, kFuture := 0, 0
	for kPast+kFuture <= s.opts.MaxWindow {
		start, end := max(ff-kPast, 0), min(ff+kFuture+1, s.tr.Len())
		if ff-kPast < 0 {
			clamps++
		}
		if s.win != nil && start < s.win.start {
			prepends++
		}
		if s.win != nil && end > s.win.end {
			appends++
		}
		if _, err := s.encodeWindow(start, end, s.prefixState(start), obs.Scope{}); err != nil {
			t.Fatal(err)
		}
		st, minimal := check(), -1
		var model Assignment
		if st == sat.Sat {
			model = modelOf(s, s.win.solver)
			minimal = minimalChanges(t, s, check, s.vars.Changes(model))
		}
		refSt, refMinimal := rebuildWindow(t, s, start, end)
		if st != refSt || minimal != refMinimal {
			t.Fatalf("%s window [%d, %d): live %v Σφ=%d, rebuilt %v Σφ=%d",
				name, start, end, st, minimal, refSt, refMinimal)
		}
		if st != sat.Sat {
			kPast += s.opts.PastStep
			continue
		}
		res := s.Validate(model)
		if res.Passed() && s.robust(model) {
			break
		}
		if !res.Passed() && res.FirstFailure > ff && res.FirstFailure-ff > kFuture {
			kFuture = res.FirstFailure - ff
		} else {
			kPast += s.opts.PastStep
		}
	}
	if s.Stats.SolverBuilds != 1 {
		t.Errorf("%s: %d solver builds, want 1", name, s.Stats.SolverBuilds)
	}
	return prepends, appends, clamps
}

// TestBackwardGrowthMatchesRebuild drives the live window solver of
// every attempt RepairCtx runs (each template, localized and unpruned)
// through Windowed's growth policy, decided on each window's first
// minimal model: k_past grows when the window is Unsat or the model is
// not a robust repair, k_future grows when the model fails past the
// current future boundary. At every window the grown encoding — earlier
// cycles prepended and linked to the old start variables, the start
// state bound by assumption — must agree with a fresh encoding from the
// concrete start state on status and minimal Σ cost·φ. C3 grows only
// k_past; i2c_w2 and fsm_w1 mix both and clamp the start at cycle 0; D4
// mixes both. No sampling runs, so no blocking clause enters the
// comparison.
func TestBackwardGrowthMatchesRebuild(t *testing.T) {
	if testing.Short() {
		t.Skip("encodes benchmark designs window by window")
	}
	for _, tc := range []struct {
		name                      string
		prepends, appends, clamps bool
	}{
		{name: "C3", prepends: true},
		{name: "i2c_w2", prepends: true, appends: true, clamps: true},
		{name: "fsm_w1", prepends: true, appends: true, clamps: true},
		{name: "D4", prepends: true, appends: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := bench.ByName(tc.name)
			if b == nil {
				t.Fatalf("benchmark %s missing from registry", tc.name)
			}
			tr, err := b.Trace()
			if err != nil {
				t.Fatal(err)
			}
			m, err := b.BuggyModule()
			if err != nil {
				t.Fatal(err)
			}
			lib, err := b.LibModules()
			if err != nil {
				t.Fatal(err)
			}
			fe := NewFrontend(m, lib, false)
			if fe.Reason != "" {
				t.Fatal(fe.Reason)
			}
			init, ctr := Concretize(fe.Sys, tr, sim.Randomize, 1)
			base := runConcrete(fe.Sys, ctr, init)
			ff := base.FirstFailure
			if ff < 0 {
				t.Fatal("buggy design passes its trace")
			}
			// The attempts RepairCtx runs: every template on the localized
			// pass, then on the unpruned one.
			loc := analysis.Localize(fe.Fixed, lib, failingOutputs(base, ctr), fe.Diagnostics)
			var prepends, appends, clamps int
			for _, l := range []*analysis.Localization{loc, nil} {
				for _, tmpl := range DefaultTemplates() {
					ctx := fe.ctx.Clone()
					counter := 0
					vars := NewVarTable(&counter)
					instr, err := tmpl.Instrument(fe.Fixed, &Env{Info: fe.Info, Lib: lib, Loc: l}, vars)
					if err != nil || vars.Empty() {
						continue
					}
					isys, _, err := synth.Elaborate(ctx, instr, synth.Options{Lib: lib})
					if err != nil {
						t.Fatal(err)
					}
					s := NewSynthesizer(ctx, isys, vars, ctr, init, DefaultSynthOptions())
					p, a, c := growAndCompare(t, tmpl.Name(), s, ff)
					prepends, appends, clamps = prepends+p, appends+a, clamps+c
				}
			}
			t.Logf("%s: first failure %d, %d prepends, %d appends, %d windows clamped at cycle 0", tc.name, ff, prepends, appends, clamps)
			if tc.prepends && prepends == 0 || tc.appends && appends == 0 || tc.clamps && clamps == 0 {
				t.Errorf("growth not exercised: %d prepends, %d appends, %d windows clamped at cycle 0 (want prepends=%v appends=%v clamps=%v)",
					prepends, appends, clamps, tc.prepends, tc.appends, tc.clamps)
			}
		})
	}
}
