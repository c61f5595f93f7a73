// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver in the MiniSat tradition: two-watched-literal propagation,
// first-UIP conflict analysis, VSIDS-style activity branching with phase
// saving, Luby restarts, learned-clause reduction, and solving under
// assumptions. Assumptions make the solver incrementally reusable, which
// the repair synthesizer relies on for its minimal-change search.
package sat

import (
	"errors"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"rtlrepair/internal/obs"
)

// Lit is a literal: variable index shifted left once, low bit 1 for the
// negated polarity. Variables are numbered from 0.
type Lit int32

// MkLit builds a literal for variable v, negated if neg.
func MkLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// PosLit returns the positive literal of variable v.
func PosLit(v int) Lit { return MkLit(v, false) }

// NegLit returns the negative literal of variable v.
func NegLit(v int) Lit { return MkLit(v, true) }

// Var returns the literal's variable index.
func (l Lit) Var() int { return int(l >> 1) }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complementary literal.
func (l Lit) Not() Lit { return l ^ 1 }

// Status is a solver verdict.
type Status int

// Solver verdicts.
const (
	Unknown Status = iota
	Sat
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}

// ErrTimeout is returned by Solve when the configured deadline expires.
var ErrTimeout = errors.New("sat: timeout")

// ErrInterrupted is returned by Solve when the Interrupt flag is set by
// another goroutine (e.g. a portfolio worker being cancelled because a
// sibling already found an acceptable repair).
var ErrInterrupted = errors.New("sat: interrupted")

type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

func (b lbool) neg() lbool {
	switch b {
	case lTrue:
		return lFalse
	case lFalse:
		return lTrue
	}
	return lUndef
}

// Clause memory (MiniSat's layout). Every clause lives in the solver's
// arena: a header word, then its literals inline, then — for a learnt
// clause — its float64 activity split over two words. A cref is the
// arena offset of a clause's header, so watchers and reasons hold no
// pointers and reaching a clause's literals is one load.
type cref uint32

// crefUndef is the reason of a decision, an assumption or a root fact.
const crefUndef = ^cref(0)

// Header flags; the clause size fills the bits above hdrSizeShift.
const (
	hdrLearnt  = 1 << iota // derived or imported, not added by AddClause
	hdrDeleted             // chosen by reduceDB; gone after compaction
	hdrLocked              // reason of a root assignment during reduceDB
	hdrMoved               // copied by compaction; the next word is the new cref
)

const hdrSizeShift = 4

// clauseWords is the arena footprint of the clause with header h.
func clauseWords(h uint32) cref {
	n := 1 + cref(h>>hdrSizeShift)
	if h&hdrLearnt != 0 {
		n += 2
	}
	return n
}

// watcher is 8 bytes and pointer-free: watch lists cost no GC marking
// and no write barriers.
type watcher struct {
	c       cref
	blocker Lit
}

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
type Solver struct {
	arena    []Lit       // every clause, see cref
	clauses  []cref      // original clauses, in AddClause order
	learnts  []cref      // learned clauses, in derivation order
	watches  [][]watcher // indexed by literal
	assigns  []lbool     // indexed by var
	phase    []bool      // saved phase, indexed by var
	level    []int       // decision level per var
	reason   []cref      // antecedent per var
	trail    []Lit
	trailLim []int
	qhead    int

	activity  []float64
	varInc    float64
	heap      *varHeap
	claInc    float64
	seen      []bool
	conflicts int64
	decisions int64
	props     int64
	restarts  int64
	learned   int64 // learned clauses ever derived (incl. units)
	added     int64 // original clauses accepted by AddClause

	// Scratch buffers, reused across calls: every consumer of their
	// contents (alloc, Proof.add, Endpoint.publish) copies.
	addBuf    []Lit // AddClause's normalized clause
	learntBuf []Lit // analyze's learnt clause
	markedBuf []int // analyze's seen variables

	// proof, when non-nil, records a DRUP log of clause additions and
	// deletions (see drat.go). Enabled with StartProof.
	proof *Proof

	assumptionLevel int
	failed          []Lit

	ok       bool // false once an empty clause is derived at level 0
	Deadline time.Time
	// Interrupt, when non-nil, is polled during search; setting it true
	// makes Solve return (Unknown, ErrInterrupted). It is the only field
	// another goroutine may touch while Solve runs.
	Interrupt *atomic.Bool
	// Obs positions the solver in the observability layer, and restarts
	// tick its "sat.restarts" counter. When Obs.Rec is set (the always-on
	// flight recorder), each Solve records one "sat.solve" span under
	// Obs with the verdict, search-counter deltas and CNF size, registers
	// a live SolverCell — updated with atomic heartbeats from the
	// periodic poll block, surfaced by /debugz/solvers and the stall
	// watchdog — and emits a "heartbeat" ring event every
	// heartbeatConflicts conflicts. Emission is keyed on the cumulative
	// conflict count, not wall clock, so the event multiset is
	// deterministic across worker counts (see TestRecorderOverheadBudget
	// for the pinned ≤2% cost). The zero Scope (the default) disables all
	// of it; the hot loop then pays only nil checks.
	Obs obs.Scope
}

// heartbeatConflicts is the ring-event cadence: one heartbeat per this
// many conflicts. Power of two so the hot-loop check is a mask.
const heartbeatConflicts = 1024

// heartbeat publishes the live counters onto the cell and, at conflict
// milestones, into the flight-recorder ring.
func (s *Solver) heartbeat(cell *obs.SolverCell, emit bool) {
	cell.Beat(s.conflicts, s.decisions, s.props, s.learned)
	if emit {
		s.Obs.Rec.Emit(obs.EvHeartbeat, "sat.solve", s.Obs.Label, s.Obs.Worker,
			obs.Int("conflicts", s.conflicts),
			obs.Int("decisions", s.decisions),
			obs.Int("propagations", s.props),
			obs.Int("learned", s.learned),
			obs.Int("restarts", s.restarts))
	}
}

// New returns an empty solver.
func New() *Solver {
	s := &Solver{varInc: 1, claInc: 1, ok: true}
	s.heap = newVarHeap(&s.activity)
	return s
}

// NumVars reports the number of allocated variables.
func (s *Solver) NumVars() int { return len(s.assigns) }

// NewVar allocates a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.assigns)
	s.assigns = append(s.assigns, lUndef)
	s.phase = append(s.phase, false)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, crefUndef)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	s.heap.insert(v)
	return v
}

func (s *Solver) value(l Lit) lbool {
	a := s.assigns[l.Var()]
	if a == lUndef {
		return lUndef
	}
	if l.Neg() {
		return a.neg()
	}
	return a
}

// AddClause adds a clause. Returns false if the formula became trivially
// unsatisfiable.
func (s *Solver) AddClause(lits ...Lit) bool {
	if s.proof != nil {
		// Log the verbatim clause as an axiom, before normalization: the
		// checker must start from what the caller asserted, not from the
		// solver's simplified form.
		s.proof.add(StepOrig, lits)
	}
	s.added++
	if !s.ok {
		return false
	}
	s.backtrackTo(0)
	s.assumptionLevel = 0
	// Normalize: sort-free dedup, drop false literals, detect tautology.
	out := s.addBuf[:0]
	for _, l := range lits {
		switch s.value(l) {
		case lTrue:
			return true // satisfied at level 0
		case lFalse:
			continue
		}
		dup, taut := false, false
		for _, o := range out {
			if o == l {
				dup = true
				break
			}
			if o == l.Not() {
				taut = true
				break
			}
		}
		if taut {
			return true
		}
		if !dup {
			out = append(out, l)
		}
	}
	s.addBuf = out
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		if !s.enqueue(out[0], crefUndef) {
			s.ok = false
			return false
		}
		if s.propagate() != crefUndef {
			s.ok = false
			return false
		}
		return true
	}
	c := s.alloc(out, false)
	s.clauses = append(s.clauses, c)
	s.attach(c)
	return true
}

// alloc copies lits into the arena as a new clause and returns its
// reference. A learnt clause starts with activity 0.
func (s *Solver) alloc(lits []Lit, learnt bool) cref {
	c := cref(len(s.arena))
	h := uint32(len(lits)) << hdrSizeShift
	if learnt {
		h |= hdrLearnt
	}
	if uint64(c)+uint64(clauseWords(h)) >= uint64(crefUndef) {
		panic("sat: clause arena exceeds 2^32 words")
	}
	s.arena = append(s.arena, Lit(h))
	s.arena = append(s.arena, lits...)
	if learnt {
		s.arena = append(s.arena, 0, 0)
	}
	return c
}

// lits returns clause c's literals, aliasing the arena: swaps through
// it reorder the clause in place.
func (s *Solver) lits(c cref) []Lit {
	end := c + 1 + cref(uint32(s.arena[c])>>hdrSizeShift)
	return s.arena[c+1 : end : end]
}

// claActivity reads a learnt clause's activity.
func (s *Solver) claActivity(c cref) float64 {
	i := c + clauseWords(uint32(s.arena[c])) - 2
	return math.Float64frombits(uint64(uint32(s.arena[i])) | uint64(uint32(s.arena[i+1]))<<32)
}

func (s *Solver) setClaActivity(c cref, a float64) {
	i := c + clauseWords(uint32(s.arena[c])) - 2
	b := math.Float64bits(a)
	s.arena[i], s.arena[i+1] = Lit(uint32(b)), Lit(uint32(b>>32))
}

func (s *Solver) attach(c cref) {
	lits := s.lits(c)
	s.watches[lits[0].Not()] = append(s.watches[lits[0].Not()], watcher{c, lits[1]})
	s.watches[lits[1].Not()] = append(s.watches[lits[1].Not()], watcher{c, lits[0]})
}

func (s *Solver) enqueue(l Lit, from cref) bool {
	switch s.value(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	v := l.Var()
	if l.Neg() {
		s.assigns[v] = lFalse
	} else {
		s.assigns[v] = lTrue
	}
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
	return true
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// propagate runs unit propagation to a fixpoint and returns the
// conflicting clause, or crefUndef.
func (s *Solver) propagate() cref {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.props++
		falseLit := p.Not()
		ws := s.watches[p]
		j := 0 // ws[:j] holds the watchers p keeps, in their old order
	next:
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if s.value(w.blocker) == lTrue {
				ws[j] = w
				j++
				continue
			}
			c := w.c
			lits := s.lits(c)
			// Ensure the false literal is lits[1].
			if lits[0] == falseLit {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			if first != w.blocker && s.value(first) == lTrue {
				ws[j] = watcher{c, first}
				j++
				continue
			}
			// Look for a new watch.
			for k := 2; k < len(lits); k++ {
				if s.value(lits[k]) != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					s.watches[lits[1].Not()] = append(s.watches[lits[1].Not()], watcher{c, first})
					continue next
				}
			}
			// Unit or conflicting.
			ws[j] = watcher{c, first}
			j++
			if s.value(first) == lFalse {
				// Conflict: keep remaining watchers and bail.
				j += copy(ws[j:], ws[i+1:])
				s.watches[p] = ws[:j]
				s.qhead = len(s.trail)
				return c
			}
			s.enqueue(first, c)
		}
		s.watches[p] = ws[:j]
	}
	return crefUndef
}

// analyze performs first-UIP conflict analysis, returning the learnt
// clause (asserting literal first) and the backtrack level. The clause
// aliases a scratch buffer that the next analyze overwrites.
func (s *Solver) analyze(confl cref) ([]Lit, int) {
	learnt := append(s.learntBuf[:0], 0) // reserve slot for asserting literal
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1
	marked := s.markedBuf[:0]

	for {
		for _, q := range s.lits(confl) {
			if p != -1 && q == p {
				continue
			}
			v := q.Var()
			if !s.seen[v] && s.level[v] > 0 {
				s.seen[v] = true
				marked = append(marked, v)
				s.bumpVar(v)
				if s.level[v] >= s.decisionLevel() {
					counter++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// Select next literal to look at.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.seen[p.Var()] = false
		counter--
		if counter == 0 {
			break
		}
		confl = s.reason[p.Var()]
	}
	learnt[0] = p.Not()

	// Simplify: remove literals implied by the rest (local minimization).
	j := 1
	for i := 1; i < len(learnt); i++ {
		v := learnt[i].Var()
		r := s.reason[v]
		redundant := false
		if r != crefUndef {
			redundant = true
			for _, q := range s.lits(r) {
				if q.Var() == v {
					continue
				}
				if !s.seenOrLevel0(q) {
					redundant = false
					break
				}
			}
		}
		if !redundant {
			learnt[j] = learnt[i]
			j++
		}
	}
	learnt = learnt[:j]

	// Find backtrack level: max level among learnt[1:].
	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = s.level[learnt[1].Var()]
	}
	for _, v := range marked {
		s.seen[v] = false
	}
	s.learntBuf, s.markedBuf = learnt, marked
	return learnt, btLevel
}

func (s *Solver) seenOrLevel0(q Lit) bool {
	// Mark-based check used during minimization: literal q is redundant
	// support if it is already in the learnt set (seen) or fixed at the
	// root level.
	return s.seen[q.Var()] || s.level[q.Var()] == 0
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.heap.update(v)
}

func (s *Solver) bumpClause(c cref) {
	a := s.claActivity(c) + s.claInc
	s.setClaActivity(c, a)
	if a > 1e20 {
		for _, cl := range s.learnts {
			s.setClaActivity(cl, s.claActivity(cl)*1e-20)
		}
		s.claInc *= 1e-20
	}
}

func (s *Solver) backtrackTo(level int) {
	if s.decisionLevel() <= level {
		return
	}
	bound := s.trailLim[level]
	for i := len(s.trail) - 1; i >= bound; i-- {
		v := s.trail[i].Var()
		s.phase[v] = s.assigns[v] == lTrue
		s.assigns[v] = lUndef
		s.reason[v] = crefUndef
		s.heap.insertIfAbsent(v)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *Solver) pickBranchVar() int {
	for {
		v, ok := s.heap.pop()
		if !ok {
			return -1
		}
		if s.assigns[v] == lUndef {
			return v
		}
	}
}

// luby computes the Luby restart sequence element i (1-based).
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (int64(1)<<k)-1 {
			return int64(1) << (k - 1)
		}
		if i < (int64(1)<<k)-1 {
			return luby(i - (int64(1) << (k - 1)) + 1)
		}
	}
}

// reduceDB drops the lower-activity half of the learnt clauses, except
// binary clauses and reasons of root assignments, then compacts the
// arena. Must be called at decision level 0.
func (s *Solver) reduceDB() {
	if len(s.learnts) < 2 {
		return
	}
	type byActivity struct {
		act float64
		c   cref
	}
	sorted := make([]byActivity, len(s.learnts))
	for i, c := range s.learnts {
		sorted[i] = byActivity{s.claActivity(c), c}
	}
	// Stable: clauses of equal activity keep their derivation order.
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].act < sorted[j].act })
	for _, r := range s.reason {
		if r != crefUndef {
			s.arena[r] |= hdrLocked
		}
	}
	removed := 0
	for _, e := range sorted[:len(sorted)/2] {
		h := uint32(s.arena[e.c])
		if h>>hdrSizeShift <= 2 || h&hdrLocked != 0 {
			continue
		}
		s.arena[e.c] = Lit(h | hdrDeleted)
		removed++
	}
	for _, r := range s.reason {
		if r != crefUndef {
			s.arena[r] &^= hdrLocked
		}
	}
	if removed == 0 {
		return
	}
	kept := s.learnts[:0]
	live := len(s.arena)
	for _, c := range s.learnts {
		h := uint32(s.arena[c])
		if h&hdrDeleted == 0 {
			kept = append(kept, c)
			continue
		}
		live -= int(clauseWords(h))
		if s.proof != nil {
			// Deletions are logged in learnts order, so identical solves
			// produce identical proofs.
			s.proof.add(StepDelete, s.lits(c))
		}
	}
	s.learnts = kept
	s.compact(live)
}

// compact copies every live clause into a fresh arena and rewrites each
// cref in the watch lists, reasons, clauses and learnts. Clauses are
// laid out in the order the watch lists first reach them, so a
// literal's watched clauses sit together; a copied clause's old header
// gets hdrMoved and its next word the new cref, which later references
// follow. Watchers of deleted clauses are dropped in place, keeping the
// order of the rest. live is the word count of the surviving clauses.
func (s *Solver) compact(live int) {
	to := make([]Lit, 0, live)
	for li, ws := range s.watches {
		kept := ws[:0]
		for _, w := range ws {
			if s.arena[w.c]&hdrDeleted == 0 {
				w.c, to = s.reloc(w.c, to)
				kept = append(kept, w)
			}
		}
		s.watches[li] = kept
	}
	for v, r := range s.reason {
		if r != crefUndef {
			s.reason[v], to = s.reloc(r, to)
		}
	}
	for i, c := range s.learnts {
		s.learnts[i], to = s.reloc(c, to)
	}
	for i, c := range s.clauses {
		s.clauses[i], to = s.reloc(c, to)
	}
	s.arena = to
}

// reloc returns c's reference in the arena being built in to, copying
// the clause on its first visit.
func (s *Solver) reloc(c cref, to []Lit) (cref, []Lit) {
	h := uint32(s.arena[c])
	if h&hdrMoved != 0 {
		return cref(s.arena[c+1]), to
	}
	nc := cref(len(to))
	to = append(to, s.arena[c:c+clauseWords(h)]...)
	s.arena[c] = Lit(h | hdrMoved)
	s.arena[c+1] = Lit(nc)
	return nc, to
}

// Solve searches for a model extending the given assumptions. On Sat the
// model can be read with Value. On Unsat under assumptions, the conflict
// subset is available via FailedAssumptions.
func (s *Solver) Solve(assumptions ...Lit) (st Status, err error) {
	// Flight recorder: a "sat.solve" span whose span_end carries the
	// verdict, the search-counter deltas and the CNF size, plus a live
	// cell for /debugz/solvers and the stall watchdog. The cell is
	// registered per Solve call so its lifetime is exactly "a search is
	// running"; a solver stuck inside this call is a cell whose
	// heartbeat goes quiet.
	var cell *obs.SolverCell
	if rec := s.Obs.Rec; rec != nil {
		span := s.Obs.Start("sat.solve")
		vars, clauses := int64(len(s.assigns)), s.added
		cell = rec.RegisterSolver(s.Obs.Label, s.Obs.Worker)
		cell.SetCNF(vars, clauses)
		before := s.Statistics()
		defer func() {
			s.heartbeat(cell, false)
			cell.Close()
			after := s.Statistics()
			span.End(obs.Str("result", st.String()),
				obs.Int("conflicts", after.Conflicts-before.Conflicts),
				obs.Int("decisions", after.Decisions-before.Decisions),
				obs.Int("propagations", after.Propagations-before.Propagations),
				obs.Int("cnf_vars", vars),
				obs.Int("cnf_clauses", clauses))
		}()
	}
	if !s.ok {
		return Unsat, nil
	}
	s.backtrackTo(0)
	s.failed = nil
	s.assumptionLevel = 0

	restarts := int64(0)
	conflictBudget := int64(100) * luby(1)
	conflictsAtRestart := s.conflicts
	checkCounter := 0

	for {
		// Poll cancellation and the deadline on both the conflict and the
		// decision path: a conflict-heavy search must still notice that a
		// portfolio sibling won or that the budget expired.
		checkCounter++
		if checkCounter&1023 == 0 {
			if s.Interrupt != nil && s.Interrupt.Load() {
				return Unknown, ErrInterrupted
			}
			if !s.Deadline.IsZero() && time.Now().After(s.Deadline) {
				return Unknown, ErrTimeout
			}
			if cell != nil {
				// Atomic stores only — the poll block stays lock-free.
				s.heartbeat(cell, false)
			}
		}
		confl := s.propagate()
		if confl != crefUndef {
			s.conflicts++
			if cell != nil && s.conflicts&(heartbeatConflicts-1) == 0 {
				// Ring heartbeat at a conflict milestone: cumulative
				// counts are deterministic per solver lineage, so
				// scrubbed ring dumps stay byte-identical across worker
				// counts.
				s.heartbeat(cell, true)
			}
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat, nil
			}
			// Fail if conflict is at or below the assumption levels: we
			// must analyze whether assumptions are to blame.
			learnt, btLevel := s.analyze(confl)
			s.learned++
			if s.proof != nil {
				s.proof.add(StepLearn, learnt)
			}
			if btLevel < s.assumptionLevel {
				btLevel = s.assumptionLevel
				// If the asserting literal conflicts with assumptions we
				// may loop; detect by checking enqueue below.
			}
			s.backtrackTo(btLevel)
			if len(learnt) == 1 {
				s.backtrackTo(0)
				if !s.enqueue(learnt[0], crefUndef) {
					s.ok = false
					return Unsat, nil
				}
				// Re-establish assumptions after a root-level restart.
				if st, done := s.reassume(assumptions); done {
					return st, nil
				}
			} else {
				c := s.alloc(learnt, true)
				s.learnts = append(s.learnts, c)
				s.attach(c)
				s.bumpClause(c)
				if !s.enqueue(learnt[0], c) {
					// Asserting literal false at assumption level →
					// assumptions are inconsistent with the formula.
					s.computeFailed(assumptions)
					return Unsat, nil
				}
			}
			s.varInc *= 1.052
			s.claInc *= 1.001
			continue
		}

		if s.conflicts-conflictsAtRestart >= conflictBudget {
			restarts++
			s.restarts++
			s.Obs.Metrics.Add("sat.restarts", 1)
			conflictBudget = 100 * luby(restarts+1)
			conflictsAtRestart = s.conflicts
			s.backtrackTo(s.assumptionLevel)
			if len(s.learnts) > 4000+len(s.clauses) {
				s.backtrackTo(0)
				s.reduceDB()
				if st, done := s.reassume(assumptions); done {
					return st, nil
				}
				continue
			}
		}

		// Extend assumptions first.
		if s.decisionLevel() < len(assumptions) {
			a := assumptions[s.decisionLevel()]
			switch s.value(a) {
			case lTrue:
				s.trailLim = append(s.trailLim, len(s.trail))
				s.assumptionLevel = s.decisionLevel()
				continue
			case lFalse:
				s.computeFailed(assumptions)
				return Unsat, nil
			}
			s.trailLim = append(s.trailLim, len(s.trail))
			s.enqueue(a, crefUndef)
			s.assumptionLevel = s.decisionLevel()
			continue
		}

		v := s.pickBranchVar()
		if v == -1 {
			return Sat, nil
		}
		s.decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		s.enqueue(MkLit(v, !s.phase[v]), crefUndef)
	}
}

// reassume replays assumption decisions after a restart to level 0.
// It returns (status, true) if solving is already decided.
func (s *Solver) reassume([]Lit) (Status, bool) {
	s.assumptionLevel = 0
	if s.propagate() != crefUndef {
		s.ok = false
		return Unsat, true
	}
	return Unknown, false
}

// computeFailed records which assumptions were contradicted. We keep it
// simple: report all assumptions that are currently assigned false.
func (s *Solver) computeFailed(assumptions []Lit) {
	s.failed = nil
	for _, a := range assumptions {
		if s.value(a) == lFalse {
			s.failed = append(s.failed, a)
		}
	}
}

// FailedAssumptions returns assumptions found inconsistent in the last
// Unsat answer (possibly empty when the formula itself is Unsat).
func (s *Solver) FailedAssumptions() []Lit { return s.failed }

// Value reports the model value of variable v after a Sat answer.
func (s *Solver) Value(v int) bool { return s.assigns[v] == lTrue }

// Stats reports search statistics.
func (s *Solver) Stats() (conflicts, decisions, propagations int64) {
	return s.conflicts, s.decisions, s.props
}

// Statistics is a full snapshot of the solver's search counters.
type Statistics struct {
	Conflicts    int64 // conflicts hit during search
	Decisions    int64 // branching decisions made
	Propagations int64 // literals propagated
	Restarts     int64 // Luby restarts performed
	Learned      int64 // learned clauses ever derived (incl. units)
	LearnedLive  int64 // learned clauses currently in the database
	Clauses      int64 // original clauses accepted by AddClause
	Vars         int64 // allocated variables

	// SharedImported and SharedRejected are always zero: the solver no
	// longer exchanges learned clauses with other solvers. They stay for
	// the benchmark's sat.share_admit_frac probe, which reads them.
	SharedImported int64
	SharedRejected int64
}

// Statistics returns a snapshot of every search counter, including the
// clause-database sizes the three-value Stats() omits.
func (s *Solver) Statistics() Statistics {
	return Statistics{
		Conflicts:    s.conflicts,
		Decisions:    s.decisions,
		Propagations: s.props,
		Restarts:     s.restarts,
		Learned:      s.learned,
		LearnedLive:  int64(len(s.learnts)),
		Clauses:      s.added,
		Vars:         int64(len(s.assigns)),
	}
}

// Add merges another snapshot into this one (database sizes and counters
// both sum; used to aggregate across a synthesis run's solvers).
func (st *Statistics) Add(o Statistics) {
	st.Conflicts += o.Conflicts
	st.Decisions += o.Decisions
	st.Propagations += o.Propagations
	st.Restarts += o.Restarts
	st.Learned += o.Learned
	st.LearnedLive += o.LearnedLive
	st.Clauses += o.Clauses
	st.Vars += o.Vars
	st.SharedImported += o.SharedImported
	st.SharedRejected += o.SharedRejected
}
