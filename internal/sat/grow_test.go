package sat

import (
	"math/bits"
	"slices"
	"testing"
)

// TestStorageGrowsByDoubling pins how solver and checker storage grows.
// Every slice that grows with the variables or the clauses doubles when
// it is full, so adding n variables and their clauses allocates
// O(log n) times per slice: at most bits.Len(4n) times for a slice of up
// to 4n elements. append, which grows a large slice by about 1.25×,
// takes about twice as many.
func TestStorageGrowsByDoubling(t *testing.T) {
	const n = 1 << 16
	perSlice := bits.Len(4 * n)

	// vals, phase, level, reason, activity, seen, the watch headers, and
	// the heap's two slices.
	const varSlices = 9
	vars := testing.AllocsPerRun(1, func() {
		s := New()
		for range n {
			s.NewVar()
		}
	})
	if limit := varSlices * perSlice; vars > float64(limit) {
		t.Errorf("adding %d variables allocated %.0f times, want at most %d", n, vars, limit)
	}

	// The solver's per-variable slices, clause arena, clause list and
	// watch pool; the proof's literals and steps; the checker's values,
	// marks, watch headers, watch pool, arena and deletion table.
	const allSlices = varSlices + 3 + 2 + 6
	var solver *Solver
	all := testing.AllocsPerRun(1, func() {
		solver = New()
		proof := solver.StartProof()
		chainCNF(solver, n)
		if err := NewChecker(proof).advance(); err != nil {
			t.Fatal(err)
		}
	})
	if limit := allSlices * perSlice; all > float64(limit) {
		t.Errorf("adding %d variables and %d clauses, logged and checked, allocated %.0f times, want at most %d",
			n, len(solver.clauses), all, limit)
	}
}

// chainCNF adds n variables and the clauses ¬v ∨ v+1 ∨ v+2 over them.
func chainCNF(s *Solver, n int) {
	for range n {
		s.NewVar()
	}
	for v := 0; v+2 < n; v++ {
		s.AddClause(NegLit(v), PosLit(v+1), PosLit(v+2))
	}
}

// TestResetRebuildAllocs pins the point of Reset: rebuilding, solving,
// logging and checking the same 1<<16-variable CNF on a reset solver and
// checker allocates O(1) times, where a new solver and checker allocate
// O(log n) times per slice (TestStorageGrowsByDoubling).
func TestResetRebuildAllocs(t *testing.T) {
	const n = 1 << 16
	s := New()
	c := NewChecker(s.StartProof())
	rebuild := func() {
		chainCNF(s, n)
		if st, err := s.Solve(); st != Sat || err != nil {
			t.Fatalf("Solve = %v, %v; want sat", st, err)
		}
		if err := c.advance(); err != nil {
			t.Fatal(err)
		}
	}
	rebuild()
	allocs := testing.AllocsPerRun(2, func() {
		s.Reset()
		c.Reset(s.StartProof())
		rebuild()
	})
	if allocs > 2 {
		t.Errorf("rebuilding %d variables on a reset solver allocated %.0f times, want at most 2", n, allocs)
	}
}

// TestResetMatchesNew solves, logs and checks one instance on a new
// solver and on a reset one that first refuted an unrelated formula.
// The two must agree in every statistic, model value, clause, proof
// step and checked clause; the reset solver reuses its proof log.
func TestResetMatchesNew(t *testing.T) {
	solve := func(s *Solver) (*Proof, *Checker) {
		proof := s.StartProof()
		reduceDBInstance(s)
		if st := mustSolve(t, s); st != Sat {
			t.Fatalf("status = %v", st)
		}
		return proof, NewChecker(proof)
	}
	fresh := New()
	wantProof, wantChecker := solve(fresh)

	s := New()
	oldProof := s.StartProof()
	pigeonhole(s, 7, 6)
	if st := mustSolve(t, s); st != Unsat {
		t.Fatalf("PHP(7,6) = %v, want unsat", st)
	}
	checker := NewChecker(oldProof)
	if err := checker.CheckUnsat(nil); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	gotProof := s.StartProof()
	if gotProof != oldProof {
		t.Error("StartProof after Reset made a new log, want the emptied old one")
	}
	reduceDBInstance(s)
	if st := mustSolve(t, s); st != Sat {
		t.Fatalf("status after Reset = %v", st)
	}
	checker.Reset(gotProof)

	if got, want := s.Statistics(), fresh.Statistics(); got != want {
		t.Errorf("statistics after Reset:\n got %+v\nwant %+v", got, want)
	}
	if !slices.Equal(s.vals, fresh.vals) || !slices.Equal(s.phase, fresh.phase) {
		t.Error("model or saved phases after Reset differ from a new solver's")
	}
	if !slices.Equal(s.arena, fresh.arena) || !slices.Equal(s.learnts, fresh.learnts) {
		t.Error("clause arena after Reset differs from a new solver's")
	}
	if gotProof.Len() != wantProof.Len() || !slices.Equal(gotProof.steps, wantProof.steps) ||
		!slices.Equal(gotProof.lits, wantProof.lits) {
		t.Errorf("proof after Reset has %d steps, a new solver's %d, or they differ", gotProof.Len(), wantProof.Len())
	}
	for _, c := range []*Checker{checker, wantChecker} {
		if err := c.advance(); err != nil {
			t.Fatal(err)
		}
	}
	if checker.Checked() != wantChecker.Checked() || checker.conflict != wantChecker.conflict {
		t.Errorf("reset checker verified %d clauses, a new one %d", checker.Checked(), wantChecker.Checked())
	}
	checkArena(t, s)
	checkWatchStore(t, &checker.watches)
}
