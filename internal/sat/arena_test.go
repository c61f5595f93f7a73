package sat

import (
	"math/bits"
	"math/rand"
	"reflect"
	"sort"
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

// countDeletes counts the deletion steps of p from step from on, which
// no checker may have consumed yet.
func countDeletes(p *Proof, from int) int {
	n := 0
	for i := from; i < p.Len(); i++ {
		if kind, _ := p.Step(i); kind == StepDelete {
			n++
		}
	}
	return n
}

// checkWatchStore verifies the watch pool: every list's chunk lies in
// the pool and has a power-of-two capacity of at least its length, no
// two live chunks overlap, and no free-list chunk overlaps a live chunk
// or another free one.
func checkWatchStore(t *testing.T, ws *watchStore) {
	t.Helper()
	type chunk struct {
		off, size uint32
		what      string
	}
	var chunks []chunk
	for li, h := range ws.lists {
		if h.cap == 0 {
			if h.n != 0 {
				t.Fatalf("literal %d has %d watchers and no chunk", li, h.n)
			}
			continue
		}
		if bits.OnesCount32(h.cap) != 1 || h.n > h.cap {
			t.Fatalf("literal %d has %d watchers in a chunk of %d", li, h.n, h.cap)
		}
		chunks = append(chunks, chunk{h.off, h.cap, "live"})
	}
	for k, f := range ws.free {
		for steps := 0; f != 0; steps++ {
			if steps > len(ws.pool) || int(f-1) >= len(ws.pool) {
				t.Fatalf("free list %d is cyclic or leaves the pool", k)
			}
			chunks = append(chunks, chunk{f - 1, 1 << k, "free"})
			f = uint32(ws.pool[f-1].c)
		}
	}
	sort.Slice(chunks, func(i, j int) bool { return chunks[i].off < chunks[j].off })
	for i, ch := range chunks {
		if uint64(ch.off)+uint64(ch.size) > uint64(len(ws.pool)) {
			t.Fatalf("%s chunk [%d, +%d) leaves the pool of %d", ch.what, ch.off, ch.size, len(ws.pool))
		}
		if i > 0 && chunks[i-1].off+chunks[i-1].size > ch.off {
			p := chunks[i-1]
			t.Fatalf("%s chunk [%d, +%d) overlaps %s chunk [%d, +%d)", p.what, p.off, p.size, ch.what, ch.off, ch.size)
		}
	}
}

// checkArena verifies the clause memory between Solve calls: every
// clause of clauses and learnts is live and watched by exactly its
// first two literals, every watcher points at such a clause, a watcher
// carries crefBinary exactly when its clause has two literals and then
// holds the other literal as its blocker, every reason is live, and the
// watch pool holds its invariants.
func checkArena(t *testing.T, s *Solver) {
	t.Helper()
	checkWatchStore(t, &s.watches)
	watched := map[cref]int{}
	for li := range s.watches.lists {
		for _, w := range s.watches.list(Lit(li)) {
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
	if countDeletes(proof, 0) == 0 {
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
	if countDeletes(proofs[0], 0) == 0 {
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
	// The checker releases the steps it consumes, so deletions are
	// counted before each check.
	if countDeletes(proof, 0) == 0 {
		t.Fatal("reduceDB never ran")
	}
	counted, deletesAfter := proof.Len(), 0
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
		deletesAfter += countDeletes(proof, counted)
		counted = proof.Len()
		if st == Sat {
			checkModel(t, s, cnf, assumps)
		} else {
			if err := checker.CheckUnsat(assumps); err != nil {
				t.Fatalf("round %d: certificate rejected: %v", round, err)
			}
			checkChecker(t, checker)
		}
		checkArena(t, s)
	}
	if verdicts[Sat] == 0 || verdicts[Unsat] == 0 {
		t.Errorf("verdicts %v: want both Sat and Unsat rounds", verdicts)
	}
	if deletesAfter == 0 {
		t.Error("reduceDB never ran again after the first compaction")
	}
}
