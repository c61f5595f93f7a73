package sat

import (
	"fmt"
)

// This file implements DRUP proof logging and a forward RUP checker, so
// every Unsat verdict of the CDCL solver can carry an independently
// machine-checked certificate. The solver (when proof logging is
// enabled) records three kinds of steps in order:
//
//   - original clause additions (axioms, logged verbatim as given to
//     AddClause, before any solver-side normalization);
//   - learned clause additions (from first-UIP conflict analysis,
//     including learned units), each of which must have the RUP
//     property — reverse unit propagation — with respect to the active
//     clause database at the time it was derived;
//   - deletions (from reduceDB garbage collection).
//
// The checker replays the log forward with its own two-watched-literal
// unit propagation, verifying the RUP property of every learned clause.
// An Unsat answer is certified by checking that the final conflict
// clause is RUP against the resulting database: the empty clause for an
// unconditional Unsat, or the clause ¬a₁ ∨ … ∨ ¬aₙ over the Solve call's
// assumptions for an assumption-relative Unsat. Soundness rests only on
// the checker's propagation, not on any solver internals: if the check
// passes, the axioms (plus assumptions) are genuinely unsatisfiable.
//
// Both sides are flat. The log is one literal buffer plus an 8-byte
// record per step, and the checker keeps its clauses in its own arena
// with dense, literal-indexed assignments, a watch pool (watch.go) and
// a hash table of arena offsets for deletions, so neither allocates per
// step nor uses a map. The checker releases the steps it has consumed,
// so the log holds only the steps since the last check.

// StepKind discriminates proof log entries.
type StepKind uint8

// Proof step kinds.
const (
	// StepOrig is an input clause (axiom); the checker trusts it.
	StepOrig StepKind = iota
	// StepLearn is a derived clause; the checker verifies it is RUP.
	StepLearn
	// StepDelete removes a clause from the active database.
	StepDelete
)

// proofStep is one log entry: its kind and the end offset of its
// literals in Proof.lits. The step's literals start where the previous
// retained step's end.
type proofStep struct {
	end  uint32
	kind StepKind
}

// Proof is an in-memory DRUP proof log: an ordered interleaving of
// axiom additions, learned-clause additions and deletions. It grows
// across incremental Solve calls; a Checker consumes it lazily, so
// certifying a sequence of Unsat answers costs one forward pass over
// the log overall, not one pass per answer. Steps a Checker has
// consumed are released: the log keeps only the steps after them, and
// their buffers are reused for the steps that follow.
type Proof struct {
	lits     []Lit // every retained step's literals, back to back
	steps    []proofStep
	released int // steps dropped from the front of steps
}

// Len reports the number of steps ever logged, released ones included.
func (p *Proof) Len() int { return p.released + len(p.steps) }

// Step returns the kind and literals of step i, which must not have
// been released. The literals alias the log and must not be modified.
func (p *Proof) Step(i int) (StepKind, []Lit) {
	i -= p.released
	if i < 0 {
		panic(fmt.Sprintf("sat: proof step %d was released", i+p.released))
	}
	start := uint32(0)
	if i > 0 {
		start = p.steps[i-1].end
	}
	st := p.steps[i]
	return st.kind, p.lits[start:st.end:st.end]
}

// NumLearned counts learned-clause additions among the retained steps.
func (p *Proof) NumLearned() int {
	n := 0
	for _, st := range p.steps {
		if st.kind == StepLearn {
			n++
		}
	}
	return n
}

func (p *Proof) add(kind StepKind, lits []Lit) {
	p.lits = append(reserve(p.lits, len(lits)), lits...)
	p.steps = append(reserve(p.steps, 1), proofStep{end: uint32(len(p.lits)), kind: kind})
}

// reset empties the log, keeping its buffers.
func (p *Proof) reset() {
	p.lits, p.steps, p.released = p.lits[:0], p.steps[:0], 0
}

// release drops every step before step n, moving the later ones to the
// front of the buffers.
func (p *Proof) release(n int) {
	k := n - p.released
	if k <= 0 {
		return
	}
	cut := p.steps[k-1].end
	p.steps = p.steps[:copy(p.steps, p.steps[k:])]
	for i := range p.steps {
		p.steps[i].end -= cut
	}
	p.lits = p.lits[:copy(p.lits, p.lits[cut:])]
	p.released = n
}

// StartProof enables DRUP proof logging on the solver and returns the
// log. It must be called before clauses are added: clauses already in
// the solver are snapshotted into the log as axioms so the checker's
// database matches, but learned clauses derived before logging began
// cannot be certified. Logging cannot be disabled once started.
func (s *Solver) StartProof() *Proof {
	if s.proof != nil {
		return s.proof
	}
	s.proof, s.spare = s.spare, nil
	if s.proof == nil {
		s.proof = &Proof{}
	}
	for _, c := range s.clauses {
		s.proof.add(StepOrig, s.lits(c))
	}
	// Root-level facts (from unit AddClause calls) are stored on the
	// trail, not as clauses.
	for _, l := range s.trail {
		if s.level[l.Var()] == 0 {
			s.proof.add(StepOrig, []Lit{l})
		}
	}
	// Clauses learned before logging started are axioms to the checker.
	for _, c := range s.learnts {
		s.proof.add(StepOrig, s.lits(c))
	}
	return s.proof
}

// Proof returns the proof log, or nil when logging is not enabled.
func (s *Solver) Proof() *Proof { return s.proof }

// ---------------------------------------------------------------------
// Forward RUP checker.
//
// The checker shares only the Lit and lbool types and the watch-list
// container (watch.go) with the solver; its clause store, watch lists
// and propagation are its own.

// Checker clause store: a clause at arena offset c is the header word
// arena[c] = size<<1 | chkDeleted, then its size literals. Deleted
// clauses stay in place; their watchers are dropped when next visited.
const chkDeleted = 1

// A deletion table slot holds a clause's arena offset plus one, so the
// zero slot is empty; chkTomb marks a deleted entry.
const chkTomb = ^uint32(0)

// Checker verifies a DRUP proof log by forward replay. It maintains its
// own assignment (the unit-propagation fixed point of the active
// database) and two-watched-literal scheme, fully independent of the
// solver that produced the log.
type Checker struct {
	proof  *Proof
	cursor int // next unconsumed proof step

	arena   []Lit      // clause store, see chkDeleted
	watches watchStore // watchers hold arena offsets, see watch.go
	vals    []lbool    // indexed by literal like Solver.vals, grown on demand
	mark    []bool     // indexed by literal; all false between calls
	trail   []Lit
	qhead   int
	buf     []Lit // the normalized clause of the current step

	// table finds a live clause by its literal set for deletion: open
	// addressing with linear probing, keyed by a commutative hash.
	table []uint32
	live  int // live entries in table
	used  int // live entries plus tombstones

	// conflict is true once the active database propagates to a
	// contradiction at the root level: every clause is trivially RUP.
	conflict bool
	checked  int // learned clauses verified
}

// NewChecker returns a checker that will consume the given proof log.
func NewChecker(p *Proof) *Checker {
	return &Checker{proof: p}
}

// Reset empties the checker into the state NewChecker(p) returns,
// keeping the capacity of its buffers and the size of its deletion
// table, whose entries it clears.
func (c *Checker) Reset(p *Proof) {
	clear(c.table)
	*c = Checker{
		proof:   p,
		arena:   c.arena[:0],
		watches: c.watches.reset(),
		vals:    c.vals[:0],
		mark:    c.mark[:0],
		trail:   c.trail[:0],
		buf:     c.buf[:0],
		table:   c.table,
	}
}

// Checked reports how many learned clauses have been RUP-verified.
func (c *Checker) Checked() int { return c.checked }

// reserve grows the per-literal arrays to cover both literals of every
// variable in lits.
func (c *Checker) reserve(lits []Lit) {
	n := len(c.vals)
	for _, l := range lits {
		if m := int(l|1) + 1; m > n {
			n = m
		}
	}
	if k := n - len(c.vals); k > 0 {
		c.vals = reserve(c.vals, k)
		c.mark = reserve(c.mark, k)
		c.watches.lists = reserve(c.watches.lists, k)
	}
	for len(c.vals) < n {
		c.vals = append(c.vals, lUndef, lUndef)
		c.watches.addVar()
		c.mark = append(c.mark, false, false)
	}
}

func (c *Checker) value(l Lit) lbool { return c.vals[l] }

func (c *Checker) assign(l Lit) {
	c.vals[l], c.vals[l^1] = lTrue, lFalse
	c.trail = append(c.trail, l)
}

// normalize copies lits into c.buf without duplicate literals and
// reports false for a tautology. Axioms are logged verbatim, so they can
// carry duplicates; a duplicate would break the two-watched-literal
// scheme (both watches landing on one literal suppresses unit
// propagation), and a tautology constrains nothing. The literals of
// c.buf stay marked until unmark.
func (c *Checker) normalize(lits []Lit) bool {
	c.reserve(lits)
	c.buf = c.buf[:0]
	for _, l := range lits {
		if c.mark[l] {
			continue
		}
		if c.mark[l.Not()] {
			c.unmark()
			return false
		}
		c.mark[l] = true
		c.buf = append(c.buf, l)
	}
	return true
}

func (c *Checker) unmark() {
	for _, l := range c.buf {
		c.mark[l] = false
	}
}

// clauseHash is an order-insensitive hash of a duplicate-free literal
// set: the sum of a 64-bit mix of each literal.
func clauseHash(lits []Lit) uint64 {
	var h uint64
	for _, l := range lits {
		x := uint64(uint32(l)) + 0x9e3779b97f4a7c15
		x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
		x = (x ^ x>>27) * 0x94d049bb133111eb
		h += x ^ x>>31
	}
	return h
}

// lits returns the literals of the clause at arena offset cr.
func (c *Checker) lits(cr cref) []Lit {
	n := cref(c.arena[cr]) >> 1
	return c.arena[cr+1 : cr+1+n]
}

// insert records the clause at arena offset cr in the deletion table.
func (c *Checker) insert(cr cref, h uint64) {
	if 2*(c.used+1) > len(c.table) {
		c.rehash()
	}
	mask := uint64(len(c.table) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		if c.table[i] == 0 {
			c.table[i] = uint32(cr) + 1
			c.live++
			c.used++
			return
		}
	}
}

// rehash rebuilds the deletion table without tombstones, sized so that
// at most a quarter of it is live.
func (c *Checker) rehash() {
	old := c.table
	n := 64
	for n < 4*(c.live+1) {
		n *= 2
	}
	c.table = make([]uint32, n)
	c.live, c.used = 0, 0
	for _, ref := range old {
		if ref != 0 && ref != chkTomb {
			c.insert(cref(ref-1), clauseHash(c.lits(cref(ref-1))))
		}
	}
}

// addClause inserts the normalized clause c.buf into the active
// database and propagates any immediate consequence. A root-level
// conflict flips c.conflict.
func (c *Checker) addClause() {
	cr := cref(len(c.arena))
	c.arena = reserve(c.arena, 1+len(c.buf))
	c.arena = append(c.arena, Lit(len(c.buf)<<1))
	c.arena = append(c.arena, c.buf...)
	c.insert(cr, clauseHash(c.buf))
	lits := c.lits(cr)
	// Place two unassigned-or-true literals first for watching.
	j := 0
	for i, l := range lits {
		if c.value(l) != lFalse {
			lits[i], lits[j] = lits[j], lits[i]
			j++
			if j == 2 {
				break
			}
		}
	}
	if len(lits) >= 2 {
		c.watch(cr, lits)
	}
	switch j {
	case 0:
		// Empty or fully falsified at root: contradiction.
		c.conflict = true
	case 1:
		// Unit (or effectively unit): assign and propagate.
		if c.value(lits[0]) == lUndef {
			c.assign(lits[0])
		}
		if !c.propagate() {
			c.conflict = true
		}
	}
}

func (c *Checker) watch(cr cref, lits []Lit) {
	c.watches.push(lits[0].Not(), watcher{cr, lits[1]})
	c.watches.push(lits[1].Not(), watcher{cr, lits[0]})
}

// deleteClause removes one live clause whose literal set equals the
// normalized, still-marked c.buf. Deleting an unknown clause is
// harmless for UNSAT soundness (it only ever weakens the database), so
// a miss is ignored.
func (c *Checker) deleteClause() {
	if len(c.table) == 0 {
		return
	}
	h := clauseHash(c.buf)
	mask := uint64(len(c.table) - 1)
	for i := h & mask; c.table[i] != 0; i = (i + 1) & mask {
		ref := c.table[i]
		if ref == chkTomb || !c.sameSet(cref(ref-1)) {
			continue
		}
		c.arena[ref-1] |= chkDeleted
		c.table[i] = chkTomb
		c.live--
		return
	}
}

// sameSet reports whether the clause at cr has exactly the marked
// literals of c.buf. Both are duplicate-free, so equal sizes and
// inclusion suffice.
func (c *Checker) sameSet(cr cref) bool {
	lits := c.lits(cr)
	if len(lits) != len(c.buf) {
		return false
	}
	for _, l := range lits {
		if !c.mark[l] {
			return false
		}
	}
	return true
}

// propagate runs unit propagation to a fixed point. It returns false on
// conflict.
func (c *Checker) propagate() bool {
	for c.qhead < len(c.trail) {
		p := c.trail[c.qhead]
		c.qhead++
		falseLit := p.Not()
		ws := c.watches.list(p)
		j := 0 // ws[:j] holds the watchers p keeps
	next:
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if c.value(w.blocker) == lTrue {
				ws[j] = w
				j++
				continue
			}
			if c.arena[w.c]&chkDeleted != 0 {
				continue
			}
			lits := c.lits(w.c)
			if lits[0] == falseLit {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			if first != w.blocker && c.value(first) == lTrue {
				ws[j] = watcher{w.c, first}
				j++
				continue
			}
			for k := 2; k < len(lits); k++ {
				if c.value(lits[k]) != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					c.watches.push(lits[1].Not(), watcher{w.c, first})
					// The push may have moved the pool, but not p's chunk.
					ws = c.watches.list(p)
					continue next
				}
			}
			ws[j] = watcher{w.c, first}
			j++
			if c.value(first) == lFalse {
				j += copy(ws[j:], ws[i+1:])
				c.watches.setLen(p, j)
				return false
			}
			c.assign(first)
		}
		c.watches.setLen(p, j)
	}
	return true
}

// isRUP checks the reverse-unit-propagation property of a clause:
// asserting the negation of every literal on top of the current fixed
// point must propagate to a conflict. The trail is rewound afterwards.
func (c *Checker) isRUP(lits []Lit) bool {
	if c.conflict {
		return true
	}
	c.reserve(lits)
	mark := len(c.trail)
	qmark := c.qhead
	ok := false
	for _, l := range lits {
		switch c.value(l) {
		case lTrue:
			// A literal already true at root: the clause is subsumed by
			// the fixed point, trivially redundant.
			ok = true
		case lFalse:
			continue
		default:
			c.assign(l.Not())
		}
	}
	if !ok {
		ok = !c.propagate()
	}
	for _, l := range c.trail[mark:] {
		c.vals[l], c.vals[l^1] = lUndef, lUndef
	}
	c.trail = c.trail[:mark]
	c.qhead = qmark
	return ok
}

// advance consumes all unconsumed proof steps, verifying each learned
// clause's RUP property before admitting it to the database, and
// releases the consumed steps from the log.
func (c *Checker) advance() error {
	for ; c.cursor < c.proof.Len(); c.cursor++ {
		kind, lits := c.proof.Step(c.cursor)
		switch kind {
		case StepLearn:
			if !c.isRUP(lits) {
				return fmt.Errorf("sat: proof step %d: learned clause %v is not RUP", c.cursor, lits)
			}
			c.checked++
			fallthrough
		case StepOrig:
			if c.conflict || !c.normalize(lits) {
				continue // tautologies add no propagation power
			}
			c.addClause()
			c.unmark()
		case StepDelete:
			if !c.normalize(lits) {
				continue // tautologies were never added
			}
			c.deleteClause()
			c.unmark()
		}
	}
	c.proof.release(c.cursor)
	return nil
}

// CheckUnsat verifies an Unsat verdict: it replays any new proof steps
// (checking every learned clause) and then checks that the clause
// ¬a₁ ∨ … ∨ ¬aₙ over the Solve call's assumptions is RUP against the
// active database. For an unconditional Unsat pass no assumptions; the
// target is then the empty clause. A nil return means the certificate
// is valid.
func (c *Checker) CheckUnsat(assumptions []Lit) error {
	if err := c.advance(); err != nil {
		return err
	}
	target := make([]Lit, len(assumptions))
	for i, a := range assumptions {
		target[i] = a.Not()
	}
	if !c.isRUP(target) {
		return fmt.Errorf("sat: final clause %v is not RUP: unsat verdict not certified", target)
	}
	return nil
}

// CheckProof verifies a complete proof log against an Unsat verdict in
// one shot (a convenience wrapper over NewChecker + CheckUnsat).
func CheckProof(p *Proof, assumptions []Lit) error {
	return NewChecker(p).CheckUnsat(assumptions)
}
