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

// ProofStep is one entry of a DRUP proof log.
type ProofStep struct {
	Kind StepKind
	Lits []Lit
}

// Proof is an in-memory DRUP proof log: an ordered interleaving of
// axiom additions, learned-clause additions and deletions. It grows
// monotonically across incremental Solve calls; a Checker consumes it
// lazily, so certifying a sequence of Unsat answers costs one forward
// pass over the log overall, not one pass per answer.
type Proof struct {
	Steps []ProofStep
}

// NumLearned counts learned-clause additions in the log.
func (p *Proof) NumLearned() int {
	n := 0
	for _, st := range p.Steps {
		if st.Kind == StepLearn {
			n++
		}
	}
	return n
}

func (p *Proof) add(kind StepKind, lits []Lit) {
	cp := make([]Lit, len(lits))
	copy(cp, lits)
	p.Steps = append(p.Steps, ProofStep{Kind: kind, Lits: cp})
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
	s.proof = &Proof{}
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

// checkerClause is a clause in the checker's database. Watches point at
// lits[0] and lits[1]; unit clauses are applied directly to the trail.
type checkerClause struct {
	lits    []Lit
	deleted bool
}

// Checker verifies a DRUP proof log by forward replay. It maintains its
// own assignment (the unit-propagation fixed point of the active
// database) and two-watched-literal scheme, fully independent of the
// solver that produced the log.
type Checker struct {
	proof   *Proof
	cursor  int // next unconsumed proof step
	clauses []*checkerClause
	// byKey groups active clauses by a cheap key for deletion lookup.
	byKey   map[string][]*checkerClause
	watches map[Lit][]*checkerClause
	assigns map[int]lbool
	trail   []Lit
	qhead   int
	// conflict is true once the active database propagates to a
	// contradiction at the root level: every clause is trivially RUP.
	conflict bool
	// Stats.
	checked int // learned clauses verified
}

// NewChecker returns a checker that will consume the given proof log.
func NewChecker(p *Proof) *Checker {
	return &Checker{
		proof:   p,
		byKey:   map[string][]*checkerClause{},
		watches: map[Lit][]*checkerClause{},
		assigns: map[int]lbool{},
	}
}

// Checked reports how many learned clauses have been RUP-verified.
func (c *Checker) Checked() int { return c.checked }

func clauseKey(lits []Lit) string {
	// Order-insensitive key: sorted literal dump. Clause widths are
	// small; an insertion sort avoids allocation churn.
	cp := make([]Lit, len(lits))
	copy(cp, lits)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	b := make([]byte, 0, len(cp)*3)
	for _, l := range cp {
		b = append(b, byte(l), byte(l>>8), byte(l>>16), byte(l>>24))
	}
	return string(b)
}

func (c *Checker) value(l Lit) lbool {
	a, ok := c.assigns[l.Var()]
	if !ok || a == lUndef {
		return lUndef
	}
	if l.Neg() {
		return a.neg()
	}
	return a
}

func (c *Checker) assign(l Lit) {
	if l.Neg() {
		c.assigns[l.Var()] = lFalse
	} else {
		c.assigns[l.Var()] = lTrue
	}
	c.trail = append(c.trail, l)
}

// propagate runs unit propagation to a fixed point. It returns false on
// conflict.
func (c *Checker) propagate() bool {
	for c.qhead < len(c.trail) {
		p := c.trail[c.qhead]
		c.qhead++
		ws := c.watches[p]
		kept := ws[:0]
		for i := 0; i < len(ws); i++ {
			cl := ws[i]
			if cl.deleted {
				continue
			}
			if cl.lits[0] == p.Not() {
				cl.lits[0], cl.lits[1] = cl.lits[1], cl.lits[0]
			}
			first := cl.lits[0]
			if c.value(first) == lTrue {
				kept = append(kept, cl)
				continue
			}
			found := false
			for k := 2; k < len(cl.lits); k++ {
				if c.value(cl.lits[k]) != lFalse {
					cl.lits[1], cl.lits[k] = cl.lits[k], cl.lits[1]
					c.watches[cl.lits[1].Not()] = append(c.watches[cl.lits[1].Not()], cl)
					found = true
					break
				}
			}
			if found {
				continue
			}
			kept = append(kept, cl)
			if c.value(first) == lFalse {
				kept = append(kept, ws[i+1:]...)
				c.watches[p] = kept
				c.qhead = len(c.trail)
				return false
			}
			c.assign(first)
		}
		c.watches[p] = kept
	}
	return true
}

// normClause removes duplicate literals and detects tautologies
// (returning ok=false for them). Axioms are logged verbatim, so they can
// carry duplicates; a duplicate would break the two-watched-literal
// scheme below (both watches landing on one literal suppresses unit
// propagation), and a tautology constrains nothing.
func normClause(lits []Lit) (norm []Lit, ok bool) {
	norm = make([]Lit, 0, len(lits))
	for _, l := range lits {
		dup := false
		for _, o := range norm {
			if o == l {
				dup = true
				break
			}
			if o == l.Not() {
				return nil, false
			}
		}
		if !dup {
			norm = append(norm, l)
		}
	}
	return norm, true
}

// addClause inserts a clause into the active database and propagates
// any immediate consequence. A root-level conflict flips c.conflict.
func (c *Checker) addClause(lits []Lit) {
	if c.conflict {
		return
	}
	lits, ok := normClause(lits)
	if !ok {
		return // tautology: vacuously true, adds no propagation power
	}
	cl := &checkerClause{lits: lits}
	key := clauseKey(lits)
	c.byKey[key] = append(c.byKey[key], cl)
	// Place two unassigned-or-true literals first for watching.
	j := 0
	for i, l := range cl.lits {
		if c.value(l) != lFalse {
			cl.lits[i], cl.lits[j] = cl.lits[j], cl.lits[i]
			j++
			if j == 2 {
				break
			}
		}
	}
	switch {
	case len(cl.lits) == 0 || j == 0:
		// Empty or fully falsified at root: contradiction.
		c.conflict = true
		return
	case len(cl.lits) == 1 || j == 1:
		// Unit (or effectively unit): assign and propagate.
		if c.value(cl.lits[0]) == lUndef {
			c.assign(cl.lits[0])
		}
		if len(cl.lits) >= 2 {
			c.watch(cl)
		}
		if !c.propagate() {
			c.conflict = true
		}
	default:
		c.watch(cl)
	}
}

func (c *Checker) watch(cl *checkerClause) {
	c.watches[cl.lits[0].Not()] = append(c.watches[cl.lits[0].Not()], cl)
	c.watches[cl.lits[1].Not()] = append(c.watches[cl.lits[1].Not()], cl)
}

func (c *Checker) deleteClause(lits []Lit) {
	lits, ok := normClause(lits)
	if !ok {
		return // tautologies were never added
	}
	key := clauseKey(lits)
	list := c.byKey[key]
	for i, cl := range list {
		if !cl.deleted {
			cl.deleted = true
			c.byKey[key] = append(list[:i], list[i+1:]...)
			return
		}
	}
	// Deleting an unknown clause is harmless for UNSAT soundness (it
	// only ever weakens the database); ignore.
}

// isRUP checks the reverse-unit-propagation property of a clause:
// asserting the negation of every literal on top of the current fixed
// point must propagate to a conflict. The trail is rewound afterwards.
func (c *Checker) isRUP(lits []Lit) bool {
	if c.conflict {
		return true
	}
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
	// Rewind.
	for i := len(c.trail) - 1; i >= mark; i-- {
		delete(c.assigns, c.trail[i].Var())
	}
	c.trail = c.trail[:mark]
	c.qhead = qmark
	return ok
}

// advance consumes all unconsumed proof steps, verifying each learned
// clause's RUP property before admitting it to the database.
func (c *Checker) advance() error {
	for ; c.cursor < len(c.proof.Steps); c.cursor++ {
		st := c.proof.Steps[c.cursor]
		switch st.Kind {
		case StepOrig:
			c.addClause(st.Lits)
		case StepLearn:
			if !c.isRUP(st.Lits) {
				return fmt.Errorf("sat: proof step %d: learned clause %v is not RUP", c.cursor, st.Lits)
			}
			c.checked++
			c.addClause(st.Lits)
		case StepDelete:
			c.deleteClause(st.Lits)
		}
	}
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
