package sat

import (
	"fmt"
	"math/rand"
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
	if countDeletes(proof) == 0 {
		t.Skip("instance solved without triggering reduceDB")
	}
	c := NewChecker(proof)
	if err := c.advance(); err != nil {
		t.Fatalf("learned steps rejected with deletions interleaved: %v", err)
	}
	if c.Checked() != proof.NumLearned() {
		t.Fatalf("checked %d of %d learned clauses", c.Checked(), proof.NumLearned())
	}
	if st == Unsat {
		if err := c.CheckUnsat(nil); err != nil {
			t.Fatalf("unsat certificate rejected: %v", err)
		}
	}
}

// TestCheckerReplayAllocs pins the flat checker: replaying the reduceDB
// instance's proof allocates only when an arena, a watch list or the
// deletion table grows, far less than once per step.
func TestCheckerReplayAllocs(t *testing.T) {
	s := New()
	proof := s.StartProof()
	reduceDBInstance(s)
	mustSolve(t, s)
	allocs := testing.AllocsPerRun(2, func() {
		if err := NewChecker(proof).advance(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > float64(proof.Len())/2 {
		t.Fatalf("replaying %d steps allocated %.0f times", proof.Len(), allocs)
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
