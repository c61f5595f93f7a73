package sat

import "sync"

// Learned-clause exchange between solvers.
//
// An Exchange is a process-local pool of short learned clauses, grouped
// into namespaces ("rooms"). Solvers join a room with Join and then
// publish the short clauses they learn and import the ones published by
// other members. Two properties make this safe for the repair portfolio:
//
//   - Soundness never depends on the sender. Every imported clause is
//     re-verified by the receiver as a reverse-unit-propagation (RUP)
//     consequence of its own clause database before it is admitted, and
//     then logged as a learned step in the receiver's DRUP proof — so a
//     certified Unsat remains certified, imported clauses included, and a
//     buggy or mismatched sender can never corrupt a receiver (its
//     clauses are simply rejected).
//
//   - Determinism is a property of the namespace, not the scheduler. A
//     room shared only by solvers of one deterministic lineage (e.g. the
//     sequence of window solvers of a single portfolio attempt) has
//     schedule-independent content at each import point, because members
//     of a lineage run sequentially: whatever an earlier solver exported
//     is fully published before the next solver exists. Solvers also
//     import only at deterministic points of their own search (Solve
//     entry and restarts), never mid-propagation.
const (
	// MaxSharedLen caps the length of exported clauses. Because imports
	// are admitted by replaying the sender's derivation (importShared's
	// fixpoint), a cap that drops mid-derivation clauses breaks the
	// replay chain and collapses admission: on PHP(7,6), cap 8 admits 5
	// of 723 learned clauses, cap 32 admits all 723 and the receiver
	// finishes with zero conflicts. 32 keeps the chains intact on real
	// workloads while still excluding pathological mega-clauses.
	MaxSharedLen = 32
	// maxRoomClauses bounds a room's memory; once full, further exports
	// are counted as dropped rather than published.
	maxRoomClauses = 4096
)

// Exchange is a set of clause-sharing rooms keyed by namespace. The zero
// value is not usable; call NewExchange. All methods are safe for
// concurrent use.
type Exchange struct {
	mu    sync.Mutex
	rooms map[string]*shareRoom
}

type shareRoom struct {
	mu      sync.Mutex
	clauses []sharedClause // append-only; slices are immutable once stored
	members int
	dropped int64
}

type sharedClause struct {
	lits []Lit
	from int // member id of the publisher, to skip self-imports
}

// NewExchange returns an empty exchange.
func NewExchange() *Exchange {
	return &Exchange{rooms: map[string]*shareRoom{}}
}

// Join adds a member to the given namespace's room and returns its
// endpoint. Endpoints are not safe for concurrent use (each belongs to
// one solver), but distinct endpoints of one room may be used from
// different goroutines.
func (x *Exchange) Join(namespace string) *Endpoint {
	x.mu.Lock()
	r := x.rooms[namespace]
	if r == nil {
		r = &shareRoom{}
		x.rooms[namespace] = r
	}
	x.mu.Unlock()
	r.mu.Lock()
	id := r.members
	r.members++
	r.mu.Unlock()
	return &Endpoint{room: r, id: id}
}

// Dropped reports how many exports were discarded because a room was
// full, summed over all rooms.
func (x *Exchange) Dropped() int64 {
	x.mu.Lock()
	defer x.mu.Unlock()
	var n int64
	for _, r := range x.rooms {
		r.mu.Lock()
		n += r.dropped
		r.mu.Unlock()
	}
	return n
}

// Endpoint is one solver's membership in a room.
type Endpoint struct {
	room   *shareRoom
	id     int
	cursor int // index of the first pool entry not yet drained
}

// publish copies lits into the room. It reports whether the clause was
// stored (false once the room is full).
func (e *Endpoint) publish(lits []Lit) bool {
	cp := make([]Lit, len(lits))
	copy(cp, lits)
	r := e.room
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.clauses) >= maxRoomClauses {
		r.dropped++
		return false
	}
	r.clauses = append(r.clauses, sharedClause{lits: cp, from: e.id})
	return true
}

// pending reports whether drain would return anything, without advancing
// the cursor.
func (e *Endpoint) pending() bool {
	r := e.room
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := e.cursor; i < len(r.clauses); i++ {
		if r.clauses[i].from != e.id {
			return true
		}
	}
	return false
}

// drain returns every clause published since the last drain by members
// other than this one. The returned slices are shared and must not be
// mutated.
func (e *Endpoint) drain() [][]Lit {
	r := e.room
	r.mu.Lock()
	defer r.mu.Unlock()
	var out [][]Lit
	for ; e.cursor < len(r.clauses); e.cursor++ {
		sc := r.clauses[e.cursor]
		if sc.from == e.id {
			continue
		}
		out = append(out, sc.lits)
	}
	return out
}

// SetShare attaches the solver to a clause-sharing endpoint. Short
// learned clauses are exported to the room; foreign clauses are imported
// at Solve entry and at restarts, each one RUP-verified against this
// solver's own database (and logged in its proof) before admission. Must
// be set before Solve; pass nil to detach.
func (s *Solver) SetShare(e *Endpoint) { s.share = e }

type importVerdict int

const (
	importAdmitted importVerdict = iota
	importRejected               // unknown vars, redundant, tautology, or root-false
	importRetry                  // not (yet) a UP consequence; may become one
)

// importShared drains the room and tries to admit each foreign clause,
// iterating to a fixpoint: a clause that is not a unit-propagation
// consequence yet may become one once an earlier clause of the sender's
// derivation is admitted (each DRUP learn step is RUP given the steps
// before it, so replaying in publication order converges). Must be
// called at decision level 0. Stops early if an admitted unit reveals
// the formula unsat at the root.
func (s *Solver) importShared() {
	work := s.share.drain()
	for len(work) > 0 {
		var retry [][]Lit
		progress := false
		for _, lits := range work {
			switch s.importClause(lits) {
			case importAdmitted:
				s.sharedImported++
				progress = true
			case importRejected:
				s.sharedRejected++
			case importRetry:
				retry = append(retry, lits)
			}
			if !s.ok {
				return
			}
		}
		if !progress {
			s.sharedRejected += int64(len(retry))
			return
		}
		work = retry
	}
}

// importClause admits one foreign clause if (a) it only mentions
// variables this solver has allocated, (b) it is not already satisfied
// at the root, and (c) it passes a RUP check against this solver's
// database. Admitted clauses are logged as learned proof steps — the
// independent DRUP checker re-verifies exactly the same inference.
func (s *Solver) importClause(lits []Lit) importVerdict {
	for _, l := range lits {
		if v := l.Var(); v < 0 || v >= len(s.assigns) {
			return importRejected // foreign variable space
		}
	}
	// Normalize against the root assignment: drop false literals, skip
	// satisfied clauses and tautologies, dedup. The normalized clause is
	// what gets RUP-checked and logged; dropping root-false literals only
	// strengthens it, so RUP of the normalized form implies RUP of the
	// original.
	out := s.importBuf[:0]
	for _, l := range lits {
		switch s.value(l) {
		case lTrue:
			return importRejected // already satisfied at root: no value
		case lFalse:
			continue
		}
		dup := false
		for _, o := range out {
			if o == l.Not() {
				return importRejected // tautology
			}
			if o == l {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, l)
		}
	}
	s.importBuf = out
	if len(out) == 0 {
		// Every literal is false at the root: the clause cannot be a
		// consequence of a consistent database.
		return importRejected
	}
	// RUP check: assume the negation on a pseudo decision level and
	// propagate. All literals in out are unassigned here (level 0, false
	// and true ones handled above), so every enqueue succeeds.
	s.trailLim = append(s.trailLim, len(s.trail))
	for _, l := range out {
		s.enqueue(l.Not(), crefUndef)
	}
	rup := s.propagate() != crefUndef
	s.backtrackTo(0)
	if !rup {
		return importRetry
	}
	if s.proof != nil {
		s.proof.add(StepLearn, out)
	}
	if len(out) == 1 {
		if !s.enqueue(out[0], crefUndef) || s.propagate() != crefUndef {
			s.ok = false
		}
		return importAdmitted
	}
	c := s.alloc(out, true)
	s.learnts = append(s.learnts, c)
	s.attach(c)
	return importAdmitted
}
