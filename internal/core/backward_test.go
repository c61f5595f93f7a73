package core

import (
	"testing"

	"rtlrepair/internal/analysis"
	"rtlrepair/internal/bench"
	"rtlrepair/internal/obs"
	"rtlrepair/internal/sat"
	"rtlrepair/internal/sim"
	"rtlrepair/internal/smt"
	"rtlrepair/internal/tsys"
)

// minimalChanges returns the least Σ cost·φ under which check is Sat,
// given the Σ value of a first Sat model. It is the minimal-change
// linear search of solveWindow without the model reads.
func minimalChanges(t *testing.T, s *Synthesizer, check func(...*smt.Term) sat.Status, first int) int {
	t.Helper()
	sum := sumTerm(s.ctx, s.vars)
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
	u := tsys.Unroll(s.ctx, s.sys, end-start, init, traceInputs(s.ctx, s.tr, start))
	ref := smt.NewSolver(s.ctx)
	if err := s.assertCycles(ref, u, start, start, end); err != nil {
		t.Fatal(err)
	}
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
	return readModel(s.ctx, solver, s.vars)
}

// growAndCompare runs growWindows around the first failure ff, deciding
// each window on its first minimal model: the search ends on a robust
// repair, and a model that fails the trace reports its failure cycle.
// It then compares every window the search solved with rebuildWindow,
// and fails if an Unsat window repeats the one before it: once the start
// is clamped at cycle 0, growWindows must stop rather than re-solve it.
// The windows are read back from rec, the synthesizer's recorder: each
// "window.solve" event gives a window's cycle_start and cycle_end, and
// the "window" span end its solutions, zero for an Unsat window. It
// returns how many windows prepended cycles, appended cycles, and had
// their start clamped at cycle 0.
func growAndCompare(t *testing.T, name string, s *Synthesizer, rec *obs.Recorder, ff int) (prepends, appends, clamps int) {
	t.Helper()
	var minimal []int // the live minimal Σ cost·φ of each Sat window
	err := s.growWindows(ff, func(sols []*Solution) (bool, int, error) {
		minimal = append(minimal, sols[0].Changes)
		res := s.Validate(sols[0].Assign)
		if res.Passed() {
			return s.robust(sols[0].Assign), -1, nil
		}
		return false, res.FirstFailure, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats.SolverBuilds != 1 {
		t.Errorf("%s: %d solver builds, want 1", name, s.Stats.SolverBuilds)
	}

	type window struct{ start, end, solutions int }
	var wins []window
	for _, ev := range rec.Events() {
		a := obs.AttrMap(ev.Attrs)
		switch {
		case ev.Kind == obs.EvProgress && ev.Name == "window.solve":
			wins = append(wins, window{start: int(a["cycle_start"].(int64)), end: int(a["cycle_end"].(int64))})
		case ev.Kind == obs.EvSpanEnd && ev.Name == "window":
			wins[len(wins)-1].solutions = int(a["solutions"].(int64))
		}
	}
	kPast, sats := 0, 0
	for i, w := range wins {
		if i > 0 {
			// Growing k_future moves the end; every other step grows k_past.
			if w.end > wins[i-1].end {
				appends++
			} else {
				kPast += pastStep
			}
			if w.start < wins[i-1].start {
				prepends++
			}
			if w.solutions == 0 && w == wins[i-1] {
				t.Errorf("%s: Unsat window [%d, %d) solved twice in a row", name, w.start, w.end)
			}
		}
		if ff-kPast < 0 {
			clamps++
		}
		st, live := sat.Unsat, -1
		if w.solutions > 0 {
			st, live = sat.Sat, minimal[sats]
			sats++
		}
		refSt, refMinimal := rebuildWindow(t, s, w.start, w.end)
		if st != refSt || live != refMinimal {
			t.Fatalf("%s window [%d, %d): live %v Σφ=%d, rebuilt %v Σφ=%d",
				name, w.start, w.end, st, live, refSt, refMinimal)
		}
	}
	if sats != len(minimal) {
		t.Fatalf("%s: %d Sat windows recorded, %d solved", name, sats, len(minimal))
	}
	return prepends, appends, clamps
}

// TestBackwardGrowthMatchesRebuild drives the live window solver of
// every attempt RepairCtx runs (each template, localized and unpruned)
// through growWindows, the growth rule Windowed runs. At every window
// the grown encoding — earlier cycles prepended and linked to the old
// start variables, the start state bound by assumption — must agree
// with a fresh encoding from the concrete start state on status and
// minimal Σ cost·φ. C3 grows only k_past; i2c_w2 and fsm_w1 mix both
// and clamp the start at cycle 0; D4 mixes both. MaxSamples is 1, so no
// blocking clause enters the comparison.
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
					in, err := fe.instrument(tmpl, l, &Options{Lib: lib}, obs.Scope{})
					if err == nil {
						err = in.elaborate(fe, obs.Scope{})
					}
					if err != nil {
						t.Fatal(err)
					}
					if in.sys == nil {
						continue
					}
					rec := obs.NewRecorder(0)
					s := NewSynthesizer(in.ctx, in.sys, in.vars, ctr, init, SynthOptions{MaxSamples: 1, Obs: obs.Scope{Rec: rec}})
					p, a, c := growAndCompare(t, tmpl.Name(), s, rec, ff)
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
