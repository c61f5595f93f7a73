package sat

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func TestProofPigeonhole(t *testing.T) {
	s := New()
	proof := s.StartProof()
	pigeonhole(s, 7, 6)
	if st := mustSolve(t, s); st != Unsat {
		t.Fatalf("status = %v", st)
	}
	if proof.NumLearned() == 0 {
		t.Fatal("expected learned clauses in the proof")
	}
	c := NewChecker(proof)
	if err := c.CheckUnsat(nil); err != nil {
		t.Fatalf("certificate rejected: %v", err)
	}
	if c.Checked() == 0 {
		t.Fatal("checker verified no learned clauses")
	}
}

func TestProofAssumptionUnsat(t *testing.T) {
	s := New()
	proof := s.StartProof()
	a, b, x := s.NewVar(), s.NewVar(), s.NewVar()
	// Satisfiable alone, unsatisfiable under assumptions {a, b}.
	s.AddClause(NegLit(a), PosLit(x))
	s.AddClause(NegLit(b), NegLit(x))
	if st := mustSolve(t, s); st != Sat {
		t.Fatalf("status = %v", st)
	}
	assumps := []Lit{PosLit(a), PosLit(b)}
	if st := mustSolve(t, s, assumps...); st != Unsat {
		t.Fatalf("status under assumptions = %v", st)
	}
	if err := CheckProof(proof, assumps); err != nil {
		t.Fatalf("certificate rejected: %v", err)
	}
}

// TestProofIncremental drives one checker lazily across a sequence of
// Solve calls, the way the SMT layer consumes it: each Unsat verdict is
// certified against the proof prefix available at that point.
func TestProofIncremental(t *testing.T) {
	s := New()
	c := NewChecker(s.StartProof())
	pigeonhole(s, 6, 5)
	sel := s.NewVar()
	extra := s.NewVar()
	s.AddClause(NegLit(sel), PosLit(extra))

	if st := mustSolve(t, s, PosLit(sel), NegLit(extra)); st != Unsat {
		t.Fatalf("first incremental status = %v", st)
	}
	if err := c.CheckUnsat([]Lit{PosLit(sel), NegLit(extra)}); err != nil {
		t.Fatalf("first certificate rejected: %v", err)
	}
	if st := mustSolve(t, s); st != Unsat {
		t.Fatalf("second status = %v", st)
	}
	if err := c.CheckUnsat(nil); err != nil {
		t.Fatalf("second certificate rejected: %v", err)
	}
}

// TestProofOverconstrainedRandom certifies a dense random 3-SAT
// instance (well past the phase transition, so reliably unsatisfiable).
// Its clauses carry duplicate literals, which pins the checker's clause
// normalization.
func TestProofOverconstrainedRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := New()
	proof := s.StartProof()
	const nv = 60
	vars := make([]int, nv)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	for i := 0; i < nv*8; i++ {
		var cl []Lit
		for k := 0; k < 3; k++ {
			l := PosLit(vars[rng.Intn(nv)])
			if rng.Intn(2) == 0 {
				l = l.Not()
			}
			cl = append(cl, l)
		}
		s.AddClause(cl...)
	}
	if st := mustSolve(t, s); st != Unsat {
		t.Fatalf("status = %v", st)
	}
	if err := CheckProof(proof, nil); err != nil {
		t.Fatalf("certificate rejected: %v", err)
	}
}

// TestProofReduceDBDeletions drives a hard phase-transition instance
// until reduceDB garbage-collects learned clauses, then verifies every
// learned step of the proof with the deletions interleaved.
func TestProofReduceDBDeletions(t *testing.T) {
	s := New()
	proof := s.StartProof()
	reduceDBInstance(s)
	st := mustSolve(t, s)
	if countDeletes(proof, 0) == 0 {
		t.Skip("instance solved without triggering reduceDB")
	}
	learned := proof.NumLearned() // before the checker releases the steps
	c := NewChecker(proof)
	if err := c.advance(); err != nil {
		t.Fatalf("learned steps rejected with deletions interleaved: %v", err)
	}
	if c.Checked() != learned {
		t.Fatalf("checked %d of %d learned clauses", c.Checked(), learned)
	}
	checkChecker(t, c)
	if st == Unsat {
		if err := c.CheckUnsat(nil); err != nil {
			t.Fatalf("unsat certificate rejected: %v", err)
		}
	}
}

// TestCheckerReplayAllocs pins the flat checker: replaying the reduceDB
// instance's proof allocates only when an arena, the watch pool or the
// deletion table grows, far less than once per step. A checker releases
// the steps it consumes, so each replay gets its own copy of the log.
func TestCheckerReplayAllocs(t *testing.T) {
	s := New()
	proof := s.StartProof()
	reduceDBInstance(s)
	mustSolve(t, s)
	var copies [3]*Proof // AllocsPerRun calls the function runs+1 times
	for i := range copies {
		copies[i] = &Proof{lits: slices.Clone(proof.lits), steps: slices.Clone(proof.steps)}
	}
	run := 0
	allocs := testing.AllocsPerRun(len(copies)-1, func() {
		if err := NewChecker(copies[run]).advance(); err != nil {
			t.Fatal(err)
		}
		run++
	})
	if allocs > float64(proof.Len())/2 {
		t.Fatalf("replaying %d steps allocated %.0f times", proof.Len(), allocs)
	}
}

// TestProofReleasedAfterCheck: once CheckUnsat has consumed the log, the
// log retains no step, while Len still counts every step and later
// steps keep their numbers and are checked as before.
func TestProofReleasedAfterCheck(t *testing.T) {
	s := New()
	proof := s.StartProof()
	c := NewChecker(proof)
	pigeonhole(s, 6, 5)
	sel := s.NewVar()
	s.AddClause(NegLit(sel), PosLit(0))
	if st := mustSolve(t, s, PosLit(sel), NegLit(0)); st != Unsat {
		t.Fatalf("status = %v", st)
	}
	n := proof.Len()
	if err := c.CheckUnsat([]Lit{PosLit(sel), NegLit(0)}); err != nil {
		t.Fatalf("certificate rejected: %v", err)
	}
	if len(proof.steps) != 0 || len(proof.lits) != 0 {
		t.Fatalf("log retains %d steps and %d literals after the check", len(proof.steps), len(proof.lits))
	}
	if proof.Len() != n {
		t.Fatalf("Len = %d after the check, want %d", proof.Len(), n)
	}
	if st := mustSolve(t, s); st != Unsat {
		t.Fatalf("status = %v", st)
	}
	if proof.Len() <= n || len(proof.steps) != proof.Len()-n {
		t.Fatalf("Len %d (was %d) with %d steps retained", proof.Len(), n, len(proof.steps))
	}
	if kind, _ := proof.Step(n); kind != StepLearn {
		t.Fatalf("step %d is %v, want the first learned step after the check", n, kind)
	}
	if err := c.CheckUnsat(nil); err != nil {
		t.Fatalf("second certificate rejected: %v", err)
	}
	if len(proof.steps) != 0 || proof.Len() <= n {
		t.Fatalf("log retains %d steps, Len %d", len(proof.steps), proof.Len())
	}
	checkChecker(t, c)
}

// checkChecker is checkArena's twin for a Checker: the watch pool holds
// its invariants, every watcher of a live clause sits on the negation
// of one of the clause's first two literals, and every live clause of
// two or more literals has exactly two watchers.
func checkChecker(t *testing.T, c *Checker) {
	t.Helper()
	checkWatchStore(t, &c.watches)
	watched := map[cref]int{}
	for li := range c.watches.lists {
		for _, w := range c.watches.list(Lit(li)) {
			if c.arena[w.c]&chkDeleted != 0 {
				continue // dropped when propagation next visits it
			}
			lits := c.lits(w.c)
			if lits[0].Not() != Lit(li) && lits[1].Not() != Lit(li) {
				t.Fatalf("watcher on literal %d points at clause %v, which does not watch it", li, lits)
			}
			watched[w.c]++
		}
	}
	for cr := cref(0); int(cr) < len(c.arena); cr += 1 + cref(c.arena[cr])>>1 {
		if c.arena[cr]&chkDeleted == 0 && len(c.lits(cr)) >= 2 && watched[cr] != 2 {
			t.Fatalf("clause %v has %d watchers, want 2", c.lits(cr), watched[cr])
		}
	}
}

// TestProofTamperedRejected pins the negative direction: a proof whose
// learned clause does not have the RUP property must be rejected.
func TestProofTamperedRejected(t *testing.T) {
	p := &Proof{}
	x, y := PosLit(0), PosLit(1)
	p.add(StepOrig, []Lit{x, y})
	// (x) is not RUP w.r.t. {(x ∨ y)}: asserting ¬x propagates y and
	// reaches no conflict.
	p.add(StepLearn, []Lit{x})
	err := NewChecker(p).CheckUnsat(nil)
	if err == nil {
		t.Fatal("tampered proof accepted")
	}
	if !strings.Contains(err.Error(), "not RUP") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestProofFlippedLiteralRejected tampers with a real proof: the
// reduceDB instance's log with the first literal of one learned step
// flipped, the first learned step after the first deletion, so the
// check runs against a database the deletion table has changed. The
// checker must reject exactly that step as not RUP.
func TestProofFlippedLiteralRejected(t *testing.T) {
	s := New()
	proof := s.StartProof()
	reduceDBInstance(s)
	mustSolve(t, s)
	target, deleted := -1, false
	for i := 0; i < proof.Len() && target < 0; i++ {
		switch kind, _ := proof.Step(i); kind {
		case StepDelete:
			deleted = true
		case StepLearn:
			if deleted {
				target = i
			}
		}
	}
	if target < 0 {
		t.Fatal("no learned step after a deletion")
	}
	tampered := &Proof{}
	for i := 0; i < proof.Len(); i++ {
		kind, lits := proof.Step(i)
		if i == target {
			lits = append([]Lit(nil), lits...)
			lits[0] = lits[0].Not()
		}
		tampered.add(kind, lits)
	}
	err := NewChecker(tampered).CheckUnsat(nil)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("proof step %d: ", target)) ||
		!strings.Contains(err.Error(), "not RUP") {
		t.Fatalf("flipped literal in step %d: got %v, want that step rejected as not RUP", target, err)
	}
}

// TestProofDeleteOneOfTwoCopies logs (x ∨ y) twice and deletes it once
// with its literals permuted and duplicated: one copy must stay, so
// (x ∨ y) is still RUP. A second deletion removes the last copy.
func TestProofDeleteOneOfTwoCopies(t *testing.T) {
	x, y := PosLit(0), PosLit(1)
	p := &Proof{}
	p.add(StepOrig, []Lit{x, y})
	p.add(StepOrig, []Lit{x, y})
	p.add(StepDelete, []Lit{y, x, y})
	c := NewChecker(p)
	assumps := []Lit{x.Not(), y.Not()}
	if err := c.CheckUnsat(assumps); err != nil {
		t.Fatalf("one delete removed both copies: %v", err)
	}
	p.add(StepDelete, []Lit{x, y})
	if err := c.CheckUnsat(assumps); err == nil {
		t.Fatal("(x ∨ y) still RUP after both copies were deleted")
	}
}

// TestProofUnsoundVerdictRejected: a structurally valid proof does not
// let an Unsat verdict through when the formula is satisfiable.
func TestProofUnsoundVerdictRejected(t *testing.T) {
	s := New()
	proof := s.StartProof()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(PosLit(a), PosLit(b))
	if st := mustSolve(t, s); st != Sat {
		t.Fatalf("status = %v", st)
	}
	// Claiming unconditional Unsat must fail: the empty clause is not RUP.
	if err := CheckProof(proof, nil); err == nil {
		t.Fatal("empty-clause certificate accepted for a satisfiable formula")
	}
}

func TestStatisticsExported(t *testing.T) {
	s := New()
	pigeonhole(s, 6, 5)
	if st := mustSolve(t, s); st != Unsat {
		t.Fatalf("status = %v", st)
	}
	st := s.Statistics()
	if st.Conflicts == 0 || st.Decisions == 0 || st.Propagations == 0 {
		t.Fatalf("search counters empty: %+v", st)
	}
	if st.Learned == 0 {
		t.Fatalf("learned counter empty: %+v", st)
	}
	if st.Clauses == 0 || st.Vars == 0 {
		t.Fatalf("size counters empty: %+v", st)
	}
	var agg Statistics
	agg.Add(st)
	agg.Add(st)
	if agg.Conflicts != 2*st.Conflicts {
		t.Fatalf("Add did not accumulate: %+v", agg)
	}
}
