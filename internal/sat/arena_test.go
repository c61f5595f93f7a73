package sat

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// reduceDBInstance adds the seed-2 random 3-SAT instance (180 variables,
// 783 clauses, ratio 4.35 at the satisfiability threshold) and returns
// its clauses. It is satisfiable and hard enough that the search runs
// reduceDB, so it exercises arena compaction; PHP(7,6) never does.
func reduceDBInstance(s *Solver) [][]Lit {
	rng := rand.New(rand.NewSource(2))
	const nv = 180
	vars := make([]int, nv)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	var cnf [][]Lit
	for i := 0; i < nv*435/100; i++ {
		cnf = append(cnf, randomClause(rng, vars))
		s.AddClause(cnf[len(cnf)-1]...)
	}
	return cnf
}

func randomClause(rng *rand.Rand, vars []int) []Lit {
	cl := make([]Lit, 3)
	for k := range cl {
		cl[k] = MkLit(vars[rng.Intn(len(vars))], rng.Intn(2) == 0)
	}
	return cl
}

func countDeletes(p *Proof) int {
	n := 0
	for i := 0; i < p.Len(); i++ {
		if kind, _ := p.Step(i); kind == StepDelete {
			n++
		}
	}
	return n
}

// checkArena verifies the clause memory between Solve calls: every
// clause of clauses and learnts is live and watched by exactly its
// first two literals, every watcher points at such a clause, a watcher
// carries crefBinary exactly when its clause has two literals and then
// holds the other literal as its blocker, and every reason is live.
func checkArena(t *testing.T, s *Solver) {
	t.Helper()
	watched := map[cref]int{}
	for li, ws := range s.watches {
		for _, w := range ws {
			c := w.c &^ crefBinary
			if h := uint32(s.arena[c]); h&(hdrDeleted|hdrMoved|hdrLocked) != 0 {
				t.Fatalf("watcher on literal %d points at clause %d with header flags %#x", li, c, h&0xf)
			}
			lits := s.lits(c)
			if lits[0].Not() != Lit(li) && lits[1].Not() != Lit(li) {
				t.Fatalf("watcher on literal %d points at clause %v, which does not watch it", li, lits)
			}
			if bin := w.c&crefBinary != 0; bin != (len(lits) == 2) {
				t.Fatalf("watcher on literal %d of clause %v has binary flag %v", li, lits, bin)
			}
			if other := lits[0] ^ lits[1] ^ Lit(li).Not(); len(lits) == 2 && w.blocker != other {
				t.Fatalf("binary watcher on literal %d of clause %v has blocker %d, want %d", li, lits, w.blocker, other)
			}
			watched[c]++
		}
	}
	n := 0
	for _, list := range [][]cref{s.clauses, s.learnts} {
		for _, c := range list {
			if watched[c] != 2 {
				t.Fatalf("clause %v has %d watchers, want 2", s.lits(c), watched[c])
			}
			n++
		}
	}
	if n != len(watched) {
		t.Fatalf("%d watched clauses, %d in clauses+learnts", len(watched), n)
	}
	for v, r := range s.reason {
		if r != crefUndef && s.arena[r]&hdrDeleted != 0 {
			t.Fatalf("var %d's reason is a deleted clause", v)
		}
	}
}

// checkModel verifies that a Sat answer satisfies every clause and every
// assumption.
func checkModel(t *testing.T, s *Solver, cnf [][]Lit, assumps []Lit) {
	t.Helper()
	holds := func(l Lit) bool { return s.Value(l.Var()) != l.Neg() }
	for _, a := range assumps {
		if !holds(a) {
			t.Fatalf("model violates assumption %d", a)
		}
	}
	for _, cl := range cnf {
		sat := false
		for _, l := range cl {
			sat = sat || holds(l)
		}
		if !sat {
			t.Fatalf("model violates clause %v", cl)
		}
	}
}

func TestWatcherIsEightBytes(t *testing.T) {
	if n := unsafe.Sizeof(watcher{}); n != 8 {
		t.Fatalf("watcher is %d bytes, want 8", n)
	}
}

// TestReduceDBSearchPinned pins the search on the instance that
// compacts the arena: the counters are those of the pointer-based clause
// memory the arena replaced, so a layout change that alters a watch
// order or a literal swap shows up here.
func TestReduceDBSearchPinned(t *testing.T) {
	s := New()
	proof := s.StartProof()
	cnf := reduceDBInstance(s)
	if st := mustSolve(t, s); st != Sat {
		t.Fatalf("status = %v", st)
	}
	want := Statistics{Conflicts: 5869, Decisions: 7096, Propagations: 208895, Restarts: 29,
		Learned: 5869, LearnedLive: 3459, Clauses: 783, Vars: 180}
	if got := s.Statistics(); got != want {
		t.Fatalf("search moved:\n got %+v\nwant %+v", got, want)
	}
	if countDeletes(proof) == 0 {
		t.Fatal("reduceDB never ran")
	}
	checkModel(t, s, cnf, nil)
	checkArena(t, s)
}

// TestProofDeterministic solves the same instance twice: reduceDB's
// deletion steps must come out in the same order, so the two flat logs
// agree in every step's kind and end offset and in every literal.
func TestProofDeterministic(t *testing.T) {
	var proofs [2]*Proof
	for i := range proofs {
		s := New()
		proofs[i] = s.StartProof()
		reduceDBInstance(s)
		mustSolve(t, s)
	}
	if countDeletes(proofs[0]) == 0 {
		t.Fatal("reduceDB never ran")
	}
	a, b := proofs[0], proofs[1]
	if !reflect.DeepEqual(a.steps, b.steps) {
		t.Fatal("two identical solves logged different step kinds or offsets")
	}
	if !reflect.DeepEqual(a.lits, b.lits) {
		t.Fatal("two identical solves logged different literals")
	}
}

// TestSolveAfterCompaction keeps using a solver whose arena reduceDB has
// compacted: each round adds clauses and solves under assumptions. Every
// verdict must match a fresh solver's, every model must hold, and every
// Unsat must certify against the one running proof.
func TestSolveAfterCompaction(t *testing.T) {
	s := New()
	proof := s.StartProof()
	cnf := reduceDBInstance(s)
	if st := mustSolve(t, s); st != Sat {
		t.Fatalf("status = %v", st)
	}
	deletes := countDeletes(proof)
	if deletes == 0 {
		t.Fatal("reduceDB never ran")
	}
	checker := NewChecker(proof)
	rng := rand.New(rand.NewSource(3))
	vars := make([]int, s.NumVars())
	for i := range vars {
		vars[i] = i
	}
	solveFresh := func(assumps []Lit) Status {
		f := New()
		for range vars {
			f.NewVar()
		}
		for _, cl := range cnf {
			f.AddClause(cl...)
		}
		return mustSolve(t, f, assumps...)
	}
	verdicts := map[Status]int{}
	for round := 0; round < 8; round++ {
		for i := 0; i < 3; i++ {
			cnf = append(cnf, randomClause(rng, vars))
			s.AddClause(cnf[len(cnf)-1]...)
		}
		assumps := randomClause(rng, vars)[:2]
		st := mustSolve(t, s, assumps...)
		if want := solveFresh(assumps); st != want {
			t.Fatalf("round %d: verdict %v, fresh solver says %v", round, st, want)
		}
		verdicts[st]++
		if st == Sat {
			checkModel(t, s, cnf, assumps)
		} else if err := checker.CheckUnsat(assumps); err != nil {
			t.Fatalf("round %d: certificate rejected: %v", round, err)
		}
		checkArena(t, s)
	}
	if verdicts[Sat] == 0 || verdicts[Unsat] == 0 {
		t.Errorf("verdicts %v: want both Sat and Unsat rounds", verdicts)
	}
	if countDeletes(proof) == deletes {
		t.Error("reduceDB never ran again after the first compaction")
	}
}
