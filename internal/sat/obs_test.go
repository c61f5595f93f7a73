package sat

import (
	"testing"
	"time"

	"rtlrepair/internal/obs"
)

// TestSolverFlightRecorder drives a real search with the recorder
// attached and checks the always-on story: a live cell exists during
// the search, heartbeat ring events appear at exact conflict
// milestones, and the cell is gone once Solve returns.
func TestSolverFlightRecorder(t *testing.T) {
	rec := obs.NewRecorder(4096)
	s := New()
	s.Obs = obs.Scope{Rec: rec, Label: "fsm_w1/p0:cond", Worker: 2}
	// pigeonhole(8,7) yields several thousand conflicts — enough to cross
	// multiple 1024-conflict heartbeat milestones.
	pigeonhole(s, 8, 7)

	// Observe the live cell from a subscriber goroutine while solving.
	sawCell := make(chan obs.SolverView, 1)
	stop := make(chan struct{})
	go func() {
		defer close(sawCell)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if cells := rec.Solvers(); len(cells) > 0 {
				select {
				case sawCell <- cells[0]:
				default:
				}
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()
	st, err := s.Solve()
	close(stop)
	if err != nil || st != Unsat {
		t.Fatalf("solve = %v, %v", st, err)
	}
	if v, ok := <-sawCell; ok {
		if v.Label != "fsm_w1/p0:cond" || v.Worker != 2 {
			t.Errorf("live cell = %+v", v)
		}
		if v.CNFVars != 56 {
			t.Errorf("cell cnf_vars = %d, want 56", v.CNFVars)
		}
	} else {
		t.Log("search finished before the watcher sampled a cell (fast host); cell lifetime not observed")
	}
	if left := rec.Solvers(); len(left) != 0 {
		t.Fatalf("cells leaked after Solve: %+v", left)
	}

	stats := s.Statistics()
	want := stats.Conflicts / heartbeatConflicts
	var beats int64
	for _, ev := range rec.Events() {
		if ev.Kind != obs.EvHeartbeat {
			continue
		}
		beats++
		if ev.Scope != "fsm_w1/p0:cond" || ev.Name != "sat.solve" {
			t.Fatalf("heartbeat event = %+v", ev)
		}
		var conflicts int64 = -1
		for _, a := range ev.Attrs {
			if a.Key == "conflicts" {
				conflicts = a.Int
			}
		}
		if conflicts%heartbeatConflicts != 0 || conflicts == 0 {
			t.Fatalf("heartbeat at conflicts=%d, want a multiple of %d", conflicts, heartbeatConflicts)
		}
	}
	if beats != want {
		t.Fatalf("heartbeat events = %d, want conflicts/%d = %d (conflicts=%d)",
			beats, heartbeatConflicts, want, stats.Conflicts)
	}
	if want == 0 {
		t.Fatalf("fixture produced %d conflicts — too few to exercise heartbeats", stats.Conflicts)
	}
}

// TestRecorderOverheadBudget pins the always-on flight recorder's cost
// on the solver hot path below 2% of solve time. The recorder adds, per
// Solve: one "sat.solve" span pair (BeginSpan plus End with its counter
// attrs) and one cell register+close (all mutexed), one atomic Beat per
// 1024 loop iterations, and one ring Emit per 1024 conflicts. Each is
// priced in isolation and multiplied by the real search's counts.
func TestRecorderOverheadBudget(t *testing.T) {
	s := New()
	pigeonhole(s, 7, 6)
	startSolve := time.Now()
	st, err := s.Solve()
	solveTime := time.Since(startSolve)
	if err != nil || st != Unsat {
		t.Fatalf("solve = %v, %v", st, err)
	}
	stats := s.Statistics()
	// The poll block runs at most once per propagate/decision iteration;
	// bound it generously by propagations (every iteration propagates at
	// least the enqueued literal, so props is an upper bound on
	// iterations, hence props/1024 bounds the Beat count).
	beats := stats.Propagations/1024 + 1
	emits := stats.Conflicts/heartbeatConflicts + 1

	rec := obs.NewRecorder(obs.DefaultRingCapacity)
	const reps = 200_000
	startReg := time.Now()
	for i := 0; i < reps; i++ {
		c := rec.RegisterSolver("bench", 0)
		c.Close()
	}
	perRegister := time.Since(startReg) / reps

	startSpan := time.Now()
	for i := 0; i < reps; i++ {
		h := rec.BeginSpan(obs.Handle{}, "sat.solve", "bench", 0)
		h.End(obs.Str("result", "UNSAT"), obs.Int("conflicts", int64(i)), obs.Int("decisions", 0),
			obs.Int("propagations", 0), obs.Int("cnf_vars", 0), obs.Int("cnf_clauses", 0))
	}
	perSpan := time.Since(startSpan) / reps

	c := rec.RegisterSolver("bench", 0)
	startBeat := time.Now()
	for i := 0; i < reps; i++ {
		c.Beat(int64(i), 0, 0, 0)
	}
	perBeat := time.Since(startBeat) / reps

	startEmit := time.Now()
	for i := 0; i < reps; i++ {
		rec.Emit(obs.EvHeartbeat, "sat.solve", "bench", 0,
			obs.Int("conflicts", int64(i)), obs.Int("decisions", 0),
			obs.Int("propagations", 0), obs.Int("learned", 0), obs.Int("restarts", 0))
	}
	perEmit := time.Since(startEmit) / reps
	c.Close()

	overhead := perSpan + perRegister + time.Duration(beats)*perBeat + time.Duration(emits)*perEmit
	budget := solveTime / 50 // 2%
	t.Logf("solve %v; span %v + register %v + %d beats × %v + %d emits × %v = %v (budget %v)",
		solveTime, perSpan, perRegister, beats, perBeat, emits, perEmit, overhead, budget)
	if overhead > budget {
		t.Fatalf("flight-recorder overhead %v exceeds 2%% of solve time %v", overhead, solveTime)
	}
}

// BenchmarkRecorder prices the recorder primitives the solver hot path
// touches: the per-poll Beat (atomics only), the per-milestone Emit
// (mutexed ring append), the per-Solve span pair, and a full
// recorder-attached solve vs the detached baseline (the zero Scope).
func BenchmarkRecorder(b *testing.B) {
	b.Run("beat", func(b *testing.B) {
		rec := obs.NewRecorder(1024)
		c := rec.RegisterSolver("bench", 0)
		defer c.Close()
		for i := 0; i < b.N; i++ {
			c.Beat(int64(i), 0, 0, 0)
		}
	})
	b.Run("emit", func(b *testing.B) {
		rec := obs.NewRecorder(1024)
		for i := 0; i < b.N; i++ {
			rec.Emit(obs.EvHeartbeat, "sat.solve", "bench", 0, obs.Int("conflicts", int64(i)))
		}
	})
	b.Run("span", func(b *testing.B) {
		rec := obs.NewRecorder(1024)
		for i := 0; i < b.N; i++ {
			h := rec.BeginSpan(obs.Handle{}, "sat.solve", "bench", 0)
			h.End(obs.Str("result", "UNSAT"), obs.Int("conflicts", int64(i)), obs.Int("decisions", 0),
				obs.Int("propagations", 0), obs.Int("cnf_vars", 0), obs.Int("cnf_clauses", 0))
		}
	})
	solve := func(b *testing.B, sc obs.Scope) {
		for i := 0; i < b.N; i++ {
			s := New()
			s.Obs = sc
			pigeonhole(s, 7, 6)
			if st, err := s.Solve(); err != nil || st != Unsat {
				b.Fatalf("solve = %v, %v", st, err)
			}
		}
	}
	b.Run("solve", func(b *testing.B) { solve(b, obs.Scope{}) })
	b.Run("solve-recorded", func(b *testing.B) {
		solve(b, obs.Scope{Rec: obs.NewRecorder(obs.DefaultRingCapacity), Label: "bench"})
	})
}
