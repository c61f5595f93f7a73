package sat

import (
	"testing"
)

// refChecker is the naive DRUP reference for Checker: a plain list of
// active clauses and unit propagation by full rescans until nothing
// changes. Like Checker it keeps root facts once derived, so a deletion
// never retracts one, and a root conflict makes every clause RUP.
type refChecker struct {
	clauses  [][]Lit      // active, duplicate-free, no tautologies
	root     map[int]bool // variable values at the root fixed point
	conflict bool
}

// refNorm drops duplicate literals; ok is false for a tautology.
func refNorm(lits []Lit) (norm []Lit, ok bool) {
	for _, l := range lits {
		if refHas(norm, l.Not()) {
			return nil, false
		}
		if !refHas(norm, l) {
			norm = append(norm, l)
		}
	}
	return norm, true
}

func refHas(lits []Lit, l Lit) bool {
	for _, o := range lits {
		if o == l {
			return true
		}
	}
	return false
}

// refPropagate extends val to the unit-propagation fixed point of
// clauses; it returns false on a conflict.
func refPropagate(clauses [][]Lit, val map[int]bool) bool {
	for changed := true; changed; {
		changed = false
		for _, cl := range clauses {
			free, sat, unit := 0, false, Lit(0)
			for _, l := range cl {
				if v, ok := val[l.Var()]; !ok {
					free, unit = free+1, l
				} else if v != l.Neg() {
					sat = true
				}
			}
			switch {
			case sat:
			case free == 0:
				return false
			case free == 1:
				val[unit.Var()], changed = !unit.Neg(), true
			}
		}
	}
	return true
}

func (r *refChecker) isRUP(lits []Lit) bool {
	if r.conflict {
		return true
	}
	val := map[int]bool{}
	for v, b := range r.root {
		val[v] = b
	}
	for _, l := range lits {
		if v, ok := val[l.Var()]; !ok {
			val[l.Var()] = l.Neg()
		} else if v != l.Neg() {
			return true
		}
	}
	return !refPropagate(r.clauses, val)
}

// step replays one proof step and reports false for a learned clause
// that is not RUP.
func (r *refChecker) step(kind StepKind, lits []Lit) bool {
	if kind == StepLearn && !r.isRUP(lits) {
		return false
	}
	norm, ok := refNorm(lits)
	switch {
	case !ok || r.conflict:
	case kind == StepDelete:
		for i, cl := range r.clauses {
			if len(cl) == len(norm) && refSubset(cl, norm) {
				r.clauses = append(r.clauses[:i:i], r.clauses[i+1:]...)
				break
			}
		}
	default:
		r.clauses = append(r.clauses, norm)
		r.conflict = !refPropagate(r.clauses, r.root)
	}
	return true
}

func refSubset(a, b []Lit) bool {
	for _, l := range a {
		if !refHas(b, l) {
			return false
		}
	}
	return true
}

const maxFuzzSteps = 64

// proofFromBytes decodes a small proof, at most maxFuzzSteps steps over
// at most six variables, and the assumptions of its final Unsat claim.
// data[0] picks the variable count and data[1] the assumption count;
// the assumptions follow, one byte per literal, then one step per
// header byte b:
//   - b%4 is the kind: 0 or 1 an axiom, 2 a learned clause, 3 a deletion;
//   - (b>>2)%4 is the clause size, one byte per literal;
//   - if bit 4 is set and an earlier clause exists, the next byte picks
//     it: a deletion takes its literals rotated by b>>5 and with the
//     first one doubled if bit 7 is set, a learned clause adds one
//     literal to it (a superset of a live clause is RUP).
func proofFromBytes(data []byte) (*Proof, []Lit) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	nv := int(next()%6) + 1
	lit := func() Lit { b := next(); return MkLit(int(b)%nv, b&0x10 != 0) }
	assumps := make([]Lit, next()%4)
	for i := range assumps {
		assumps[i] = lit()
	}
	p := &Proof{}
	var added [][]Lit
	for len(data) > 0 && p.Len() < maxFuzzSteps {
		b := next()
		kind := [4]StepKind{StepOrig, StepOrig, StepLearn, StepDelete}[b%4]
		var lits []Lit
		if b&0x10 != 0 && len(added) > 0 && kind != StepOrig {
			base := added[int(next())%len(added)]
			if kind == StepDelete && len(base) > 0 {
				r := int(b>>5) % len(base)
				lits = append(append(lits, base[r:]...), base[:r]...)
				if b&0x80 != 0 {
					lits = append(lits, lits[0])
				}
			} else {
				lits = append(append(lits, base...), lit())
			}
		} else {
			for k := int(b>>2) % 4; k > 0; k-- {
				lits = append(lits, lit())
			}
		}
		if kind != StepDelete {
			added = append(added, lits)
		}
		p.add(kind, lits)
	}
	return p, assumps
}

// checkMatchesReference replays the decoded proof on Checker and on
// refChecker: both must reject the same learned step, or both accept
// every step and give the same verdict on the final clause.
func checkMatchesReference(t *testing.T, data []byte) {
	p, assumps := proofFromBytes(data)
	ref := &refChecker{root: map[int]bool{}}
	refFail := -1
	for i := 0; i < p.Len() && refFail < 0; i++ {
		if !ref.step(p.Step(i)) {
			refFail = i
		}
	}
	c := NewChecker(p)
	if err := c.advance(); (err != nil) != (refFail >= 0) || err != nil && c.cursor != refFail {
		t.Fatalf("checker error %v at step %d, reference rejects step %d", err, c.cursor, refFail)
	}
	if refFail >= 0 {
		return
	}
	checkChecker(t, c)
	target := make([]Lit, len(assumps))
	for i, a := range assumps {
		target[i] = a.Not()
	}
	if err, want := c.CheckUnsat(assumps), ref.isRUP(target); (err == nil) != want {
		t.Fatalf("checker says %v on final clause %v, reference RUP = %v", err, target, want)
	}
}

// FuzzCheckerMatchesReference differentially tests Checker against
// refChecker on decoded proofs; the seed corpus is in testdata/fuzz.
func FuzzCheckerMatchesReference(f *testing.F) {
	f.Fuzz(checkMatchesReference)
}
