package sat

import (
	"math/rand"
	"testing"
	"time"
)

func mustSolve(t *testing.T, s *Solver, assumptions ...Lit) Status {
	t.Helper()
	st, err := s.Solve(assumptions...)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	return st
}

func TestTrivialSat(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(PosLit(a))
	if st := mustSolve(t, s); st != Sat {
		t.Fatalf("status = %v", st)
	}
	if !s.Value(a) {
		t.Fatal("a should be true")
	}
}

func TestTrivialUnsat(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(PosLit(a))
	s.AddClause(NegLit(a))
	if st := mustSolve(t, s); st != Unsat {
		t.Fatalf("status = %v", st)
	}
}

func TestUnitPropagationChain(t *testing.T) {
	s := New()
	n := 50
	vars := make([]int, n)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	s.AddClause(PosLit(vars[0]))
	for i := 0; i+1 < n; i++ {
		s.AddClause(NegLit(vars[i]), PosLit(vars[i+1]))
	}
	if st := mustSolve(t, s); st != Sat {
		t.Fatalf("status = %v", st)
	}
	for i, v := range vars {
		if !s.Value(v) {
			t.Fatalf("var %d should be true", i)
		}
	}
}

// pigeonhole adds the classic PHP(n+1, n) encoding, which is unsatisfiable.
func pigeonhole(s *Solver, pigeons, holes int) {
	p := make([][]int, pigeons)
	for i := range p {
		p[i] = make([]int, holes)
		for j := range p[i] {
			p[i][j] = s.NewVar()
		}
	}
	for i := 0; i < pigeons; i++ {
		lits := make([]Lit, holes)
		for j := 0; j < holes; j++ {
			lits[j] = PosLit(p[i][j])
		}
		s.AddClause(lits...)
	}
	for j := 0; j < holes; j++ {
		for i1 := 0; i1 < pigeons; i1++ {
			for i2 := i1 + 1; i2 < pigeons; i2++ {
				s.AddClause(NegLit(p[i1][j]), NegLit(p[i2][j]))
			}
		}
	}
}

func TestPigeonholeUnsat(t *testing.T) {
	for n := 2; n <= 6; n++ {
		s := New()
		pigeonhole(s, n+1, n)
		if st := mustSolve(t, s); st != Unsat {
			t.Fatalf("PHP(%d,%d) = %v, want unsat", n+1, n, st)
		}
	}
}

func TestPigeonholeSatWhenEnoughHoles(t *testing.T) {
	s := New()
	pigeonhole(s, 5, 5)
	if st := mustSolve(t, s); st != Sat {
		t.Fatalf("PHP(5,5) = %v, want sat", st)
	}
}

// bruteForce decides a CNF over n vars by enumeration.
func bruteForce(n int, cnf [][]Lit) bool {
	for m := 0; m < 1<<n; m++ {
		ok := true
		for _, cl := range cnf {
			sat := false
			for _, l := range cl {
				val := m>>l.Var()&1 == 1
				if l.Neg() {
					val = !val
				}
				if val {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func TestRandom3SATAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 300; iter++ {
		nv := 4 + rng.Intn(9)
		nc := 3 + rng.Intn(nv*5)
		cnf := make([][]Lit, nc)
		for i := range cnf {
			cl := make([]Lit, 3)
			for j := range cl {
				cl[j] = MkLit(rng.Intn(nv), rng.Intn(2) == 0)
			}
			cnf[i] = cl
		}
		s := New()
		for i := 0; i < nv; i++ {
			s.NewVar()
		}
		for _, cl := range cnf {
			s.AddClause(cl...)
		}
		got := mustSolve(t, s)
		want := bruteForce(nv, cnf)
		if (got == Sat) != want {
			t.Fatalf("iter %d: got %v, brute force says sat=%v (nv=%d nc=%d)", iter, got, want, nv, nc)
		}
		if got == Sat {
			// Verify the model actually satisfies the formula.
			for ci, cl := range cnf {
				sat := false
				for _, l := range cl {
					v := s.Value(l.Var())
					if l.Neg() {
						v = !v
					}
					if v {
						sat = true
						break
					}
				}
				if !sat {
					t.Fatalf("iter %d: model does not satisfy clause %d", iter, ci)
				}
			}
		}
	}
}

const maxFuzzOps = 64

// solveMatchesBruteForce decodes a small incremental session over at most
// eight variables and replays it on one solver. data[0] picks the
// variable count; then each header byte b is one operation:
//   - b%4 < 3 adds a clause of 1 + (b>>2)%3 literals, one byte each;
//   - b%4 == 3 solves under (b>>2)%4 assumptions, one byte each.
//
// A literal byte x is variable (x>>1) mod the count, negated if x&1. A
// final Solve without assumptions follows. Every verdict must match
// brute force over the clauses so far plus the assumptions; a Sat model
// must satisfy both, and FailedAssumptions must be a subset of the
// assumptions.
func solveMatchesBruteForce(t *testing.T, data []byte) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	nv := int(next()%8) + 1
	lit := func() Lit { b := next(); return MkLit(int(b>>1)%nv, b&1 == 1) }
	s := New()
	for i := 0; i < nv; i++ {
		s.NewVar()
	}
	var cnf [][]Lit
	solve := func(assumps []Lit) {
		st := mustSolve(t, s, assumps...)
		query := append([][]Lit(nil), cnf...)
		for _, a := range assumps {
			query = append(query, []Lit{a})
		}
		if want := bruteForce(nv, query); (st == Sat) != want {
			t.Fatalf("verdict %v under assumptions %v, brute force says sat=%v on %v", st, assumps, want, cnf)
		}
		if st == Sat {
			checkModel(t, s, cnf, assumps)
		}
		for _, f := range s.FailedAssumptions() {
			if !refHas(assumps, f) {
				t.Fatalf("failed assumption %d is not among %v", f, assumps)
			}
		}
		checkArena(t, s)
	}
	for ops := 0; len(data) > 0 && ops < maxFuzzOps; ops++ {
		b := next()
		if b%4 == 3 {
			assumps := make([]Lit, (b>>2)%4)
			for i := range assumps {
				assumps[i] = lit()
			}
			solve(assumps)
			continue
		}
		cl := make([]Lit, 1+int(b>>2)%3)
		for i := range cl {
			cl[i] = lit()
		}
		cnf = append(cnf, cl)
		s.AddClause(cl...)
	}
	solve(nil)
}

// FuzzSolverMatchesBruteForce differentially tests incremental solving on
// unit, binary and ternary clauses against enumeration; the seed corpus
// is in testdata/fuzz.
func FuzzSolverMatchesBruteForce(f *testing.F) {
	f.Fuzz(solveMatchesBruteForce)
}

func TestAssumptions(t *testing.T) {
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(NegLit(a), PosLit(b))
	s.AddClause(NegLit(b), PosLit(c))

	if st := mustSolve(t, s, PosLit(a), NegLit(c)); st != Unsat {
		t.Fatalf("a & !c should be unsat, got %v", st)
	}
	// The solver must remain usable after an assumption failure.
	if st := mustSolve(t, s, PosLit(a)); st != Sat {
		t.Fatalf("a alone should be sat, got %v", st)
	}
	if !s.Value(b) || !s.Value(c) {
		t.Fatal("a implies b implies c")
	}
	if st := mustSolve(t, s, NegLit(c)); st != Sat {
		t.Fatalf("!c should be sat, got %v", st)
	}
	if s.Value(a) {
		t.Fatal("a must be false when !c assumed")
	}
}

func TestAssumptionsIncrementalMinimization(t *testing.T) {
	// Mimic the repair synthesizer's usage: a counter over selector bits
	// with decreasing bounds via assumptions.
	s := New()
	n := 6
	sel := make([]int, n)
	for i := range sel {
		sel[i] = s.NewVar()
	}
	// Require sel[1] | sel[3].
	s.AddClause(PosLit(sel[1]), PosLit(sel[3]))
	// Require sel[2].
	s.AddClause(PosLit(sel[2]))

	// "at most 1 set among all" encoded pairwise, guarded by an activation var.
	act := s.NewVar()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			s.AddClause(NegLit(act), NegLit(sel[i]), NegLit(sel[j]))
		}
	}
	if st := mustSolve(t, s, PosLit(act)); st != Unsat {
		t.Fatalf("at-most-1 with two required selectors must be unsat, got %v", st)
	}
	if st := mustSolve(t, s); st != Sat {
		t.Fatalf("without activation should be sat, got %v", st)
	}
}

func TestContradictoryAssumptionPair(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.NewVar()
	if st := mustSolve(t, s, PosLit(a), NegLit(a)); st != Unsat {
		t.Fatalf("contradictory assumptions = %v, want unsat", st)
	}
	if st := mustSolve(t, s); st != Sat {
		t.Fatalf("formula itself is sat, got %v", st)
	}
}

func TestAddClauseAfterLevelZeroConflict(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(PosLit(a))
	if ok := s.AddClause(NegLit(a)); ok {
		t.Fatal("adding the contradicting unit should report false")
	}
	if st := mustSolve(t, s); st != Unsat {
		t.Fatalf("status = %v", st)
	}
}

func TestManySolveCallsReuseState(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := New()
	nv := 12
	for i := 0; i < nv; i++ {
		s.NewVar()
	}
	var cnf [][]Lit
	for i := 0; i < 30; i++ {
		cl := []Lit{
			MkLit(rng.Intn(nv), rng.Intn(2) == 0),
			MkLit(rng.Intn(nv), rng.Intn(2) == 0),
			MkLit(rng.Intn(nv), rng.Intn(2) == 0),
		}
		cnf = append(cnf, cl)
		s.AddClause(cl...)
		got := mustSolve(t, s)
		want := bruteForce(nv, cnf)
		if (got == Sat) != want {
			t.Fatalf("after clause %d: got %v want sat=%v", i, got, want)
		}
	}
}

func TestLitHelpers(t *testing.T) {
	l := MkLit(5, true)
	if l.Var() != 5 || !l.Neg() {
		t.Fatalf("lit = %v", l)
	}
	if l.Not().Neg() || l.Not().Var() != 5 {
		t.Fatal("Not broken")
	}
	if Sat.String() != "sat" || Unsat.String() != "unsat" || Unknown.String() != "unknown" {
		t.Fatal("status strings")
	}
}

func TestFailedAssumptionsReported(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(NegLit(a), NegLit(b)) // !(a & b)
	st := mustSolve(t, s, PosLit(a), PosLit(b))
	if st != Unsat {
		t.Fatalf("status = %v", st)
	}
	failed := s.FailedAssumptions()
	if len(failed) == 0 {
		t.Fatal("no failed assumptions reported")
	}
}

func TestSolveDeadline(t *testing.T) {
	s := New()
	pigeonhole(s, 11, 10) // hard instance
	s.Deadline = time.Now().Add(10 * time.Millisecond)
	start := time.Now()
	st, err := s.Solve()
	if err == nil && st == Unsat {
		t.Skip("machine solved PHP(11,10) within the deadline")
	}
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("deadline ignored")
	}
}

// A search whose first decisions each propagate more than
// pollPropagations literals must still poll its deadline: under an
// already-expired deadline it stops with ErrTimeout instead of finishing
// the few remaining iterations.
func TestLongPropagationPollsDeadline(t *testing.T) {
	s := New()
	for chain := 0; chain < 2; chain++ {
		prev := s.NewVar()
		for i := 0; i <= pollPropagations; i++ {
			v := s.NewVar()
			s.AddClause(NegLit(prev), PosLit(v))
			s.AddClause(PosLit(prev), NegLit(v))
			prev = v
		}
	}
	s.Deadline = time.Now().Add(-time.Second)
	if st, err := s.Solve(); err != ErrTimeout {
		t.Fatalf("Solve() = %v, %v; want ErrTimeout", st, err)
	}
}
