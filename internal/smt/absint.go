package smt

import (
	"rtlrepair/internal/bv"
)

// This file implements the abstract-interpretation framework over the
// hash-consed term DAG: the reduced product of known bits and unsigned
// intervals defined in domains.go, run to fixpoint on demand.
//
// Facts live in two layers:
//
//   - base facts depend only on a term's structure (no asserted
//     constraints). They are pure functions of hash-consed identity and
//     may be shared across solvers through a FactCache (factcache.go) —
//     this is what carries analysis work across incremental window
//     growth.
//   - refined facts additionally intersect the environment: facts
//     learned from asserted constraints (Learn/LearnAsserted). They are
//     valid only for one solver's assert stream and are kept per-Abs.
//
// Unlike the first-generation implementation, memoized refined facts do
// not lag behind later Learn calls: every Learn invalidates the memo
// entries of all recorded ancestors of the touched term, so the next
// query recomputes through the new environment — an on-demand fixpoint
// instead of a single bottom-up pass. The simplifier memo is invalidated
// along the same edges, since a rewrite is justified by the facts of its
// sub-DAG.
//
// The solver seeds the environment from asserted constraints and uses
// the results to rewrite terms before bit-blasting (simplify.go):
// fully-determined terms collapse to constants, decided muxes drop the
// dead branch, and determined shifts reduce to wiring. Every rewrite is
// guarded by a CNF cost comparison against the already-blasted term
// set, so simplification can only shrink an encoding, never inflate it.

// AbsStats counts analysis work for observability and bench reporting.
type AbsStats struct {
	Learned        int64 // environment facts recorded
	Invalidations  int64 // memo entries dropped by Learn
	Rewrites       int64 // simplifier rewrites applied
	GuardFallbacks int64 // rewrites rejected by the never-worse guard
}

// Add merges another solver's analysis counters into st.
func (st *AbsStats) Add(o AbsStats) {
	st.Learned += o.Learned
	st.Invalidations += o.Invalidations
	st.Rewrites += o.Rewrites
	st.GuardFallbacks += o.GuardFallbacks
}

type absEntry struct {
	fact    Fact
	tainted bool // some node of the sub-DAG carries env information
}

// Abs computes facts for terms on demand. Facts harvested from asserted
// constraints are seeded with Learn; computed results are memoized and
// invalidated when the environment tightens.
type Abs struct {
	cache *FactCache // optional shared base-fact layer (may be nil)

	env      map[*Term]Fact
	memo     map[*Term]absEntry
	baseMemo map[*Term]Fact // local base layer when cache == nil
	parents  map[*Term]map[*Term]struct{}

	simp      map[*Term]*Term  // simplifier memo (simplify.go)
	costMemo  map[*Term]int64  // per-assert CNF cost memo (simplify.go)
	free      func(*Term) bool // already-blasted predicate for the guard
	simpDepth int              // Simplify recursion depth (guard fires at 0)

	Stats AbsStats
}

// NewAbs returns an empty analysis state.
func NewAbs() *Abs {
	return &Abs{
		env:      map[*Term]Fact{},
		memo:     map[*Term]absEntry{},
		baseMemo: map[*Term]Fact{},
		parents:  map[*Term]map[*Term]struct{}{},
		simp:     map[*Term]*Term{},
	}
}

// SetCache attaches a shared base-fact cache (nil detaches it).
func (a *Abs) SetCache(fc *FactCache) { a.cache = fc }

// SetFree installs the already-blasted predicate used by the simplifier
// guard: terms for which free reports true cost nothing to re-use.
func (a *Abs) SetFree(free func(*Term) bool) { a.free = free }

// beginAssert resets the per-assert cost memo; the solver calls it once
// per Assert, before simplification (the blasted set is stable within
// one Assert, so costs may be memoized inside it but not across).
func (a *Abs) beginAssert() {
	if len(a.costMemo) != 0 || a.costMemo == nil {
		a.costMemo = map[*Term]int64{}
	}
}

// Learn records an externally-justified fact about t (from an asserted
// constraint). It intersects with anything already known and
// invalidates memoized facts of t's recorded ancestors.
func (a *Abs) Learn(t *Term, f Fact) {
	if prev, ok := a.env[t]; ok {
		f = prev.intersect(f)
		if f.Same(prev) {
			return
		}
	} else {
		f = f.normalize()
	}
	a.env[t] = f
	a.Stats.Learned++
	a.invalidate(t)
}

// invalidate drops the memoized facts and rewrites of t and every
// recorded ancestor of t, so later queries recompute through the
// tightened environment.
func (a *Abs) invalidate(t *Term) {
	work := []*Term{t}
	seen := map[*Term]struct{}{t: {}}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		if _, ok := a.memo[n]; ok {
			delete(a.memo, n)
			a.Stats.Invalidations++
		}
		delete(a.simp, n)
		for p := range a.parents[n] {
			if _, ok := seen[p]; !ok {
				seen[p] = struct{}{}
				work = append(work, p)
			}
		}
	}
}

func (a *Abs) recordParent(child, parent *Term) {
	m, ok := a.parents[child]
	if !ok {
		m = map[*Term]struct{}{}
		a.parents[child] = m
	}
	m[parent] = struct{}{}
}

// Fact returns a sound abstract value for t, valid under every
// environment fact learned so far.
func (a *Abs) Fact(t *Term) Fact {
	if e, ok := a.memo[t]; ok {
		return e.fact
	}
	f, tainted := a.computeRefined(t)
	a.memo[t] = absEntry{fact: f, tainted: tainted}
	return f
}

func (a *Abs) computeRefined(t *Term) (Fact, bool) {
	_, tainted := a.env[t]
	childFacts := make([]Fact, len(t.Args))
	for i, c := range t.Args {
		a.recordParent(c, t)
		childFacts[i] = a.Fact(c)
		if e, ok := a.memo[c]; ok && e.tainted {
			tainted = true
		}
	}
	base := a.baseFact(t)
	if !tainted {
		return base, false
	}
	f := a.transfer(t, func(i int) Fact { return childFacts[i] }).intersect(base)
	if e, ok := a.env[t]; ok {
		f = f.intersect(e)
	}
	return f, true
}

// baseFact computes the environment-free fact of t — a pure function of
// the term's structure, cacheable across solvers.
func (a *Abs) baseFact(t *Term) Fact {
	if a.cache != nil {
		if f, ok := a.cache.get(t); ok {
			return f
		}
	} else if f, ok := a.baseMemo[t]; ok {
		return f
	}
	f := a.transfer(t, func(i int) Fact { return a.baseFact(t.Args[i]) })
	if a.cache != nil {
		a.cache.put(t, f)
	} else {
		a.baseMemo[t] = f
	}
	return f
}

// transfer is the product transfer function for one operator: every
// domain's abstract semantics evaluated on the argument facts supplied
// by arg, then cross-tightened by normalize.
func (a *Abs) transfer(t *Term, arg func(int) Fact) Fact {
	w := t.Width
	switch t.Op {
	case OpConst:
		return constFact(t.Val)
	case OpVar:
		return topFact(w)
	case OpNot:
		x := arg(0)
		return Fact{
			Known: x.Known,
			Val:   x.Val.Not().And(x.Known),
			Lo:    x.Hi.Not(),
			Hi:    x.Lo.Not(),
		}.normalize()
	case OpAnd:
		x, y := arg(0), arg(1)
		known := x.Known.And(y.Known).
			Or(x.Known.And(x.Val.Not())).
			Or(y.Known.And(y.Val.Not()))
		f := topFact(w)
		f.Known, f.Val = known, x.Val.And(y.Val)
		f.Hi = umin(x.Hi, y.Hi)
		return f.normalize()
	case OpOr:
		x, y := arg(0), arg(1)
		known := x.Known.And(y.Known).
			Or(x.Known.And(x.Val)).
			Or(y.Known.And(y.Val))
		f := topFact(w)
		f.Known, f.Val = known, x.Val.Or(y.Val).And(known)
		f.Lo = umax(x.Lo, y.Lo)
		return f.normalize()
	case OpXor:
		x, y := arg(0), arg(1)
		f := topFact(w)
		f.Known = x.Known.And(y.Known)
		f.Val = x.Val.Xor(y.Val).And(f.Known)
		return f.normalize()
	case OpNeg:
		x := arg(0)
		f := topFact(w)
		if !(x.Lo.IsZero() && !x.Hi.IsZero()) { // range does not wrap at 0
			f.Lo, f.Hi = x.Hi.Neg(), x.Lo.Neg()
		}
		return f.normalize()
	case OpAdd:
		x, y := arg(0), arg(1)
		f := topFact(w)
		f.Known, f.Val = addKnown(x, y, false)
		if lo := x.Lo.Add(y.Lo); !lo.Ult(x.Lo) {
			if hi := x.Hi.Add(y.Hi); !hi.Ult(x.Hi) {
				f.Lo, f.Hi = lo, hi
			}
		}
		return f.normalize()
	case OpSub:
		x, y := arg(0), arg(1)
		f := topFact(w)
		ny := topFact(w)
		ny.Known, ny.Val = y.Known, y.Val.Not().And(y.Known)
		f.Known, f.Val = addKnown(x, ny, true)
		if !x.Lo.Ult(y.Hi) { // no borrow anywhere in the range
			f.Lo, f.Hi = x.Lo.Sub(y.Hi), x.Hi.Sub(y.Lo)
		}
		return f.normalize()
	case OpMul:
		x, y := arg(0), arg(1)
		f := topFact(w)
		// Overflow-checked bounds via a double-width product.
		hi := x.Hi.ZeroExt(2 * w).Mul(y.Hi.ZeroExt(2 * w))
		if hi.Lshr(w).IsZero() {
			f.Lo = x.Lo.Mul(y.Lo)
			f.Hi = hi.Extract(w-1, 0)
		}
		return f.normalize()
	case OpUdiv:
		x, y := arg(0), arg(1)
		f := topFact(w)
		switch {
		case y.Hi.IsZero(): // division by zero: all ones (SMT-LIB)
			return constFact(bv.Ones(w))
		case !y.Lo.IsZero():
			f.Lo = x.Lo.Udiv(y.Hi)
			f.Hi = x.Hi.Udiv(y.Lo)
		default: // divisor may be zero: result may be all ones
			f.Lo = x.Lo.Udiv(y.Hi)
		}
		return f.normalize()
	case OpUrem:
		x, y := arg(0), arg(1)
		f := topFact(w)
		if y.Hi.IsZero() { // remainder by zero: the dividend
			return x
		}
		f.Hi = x.Hi
		if !y.Lo.IsZero() {
			f.Hi = umin(f.Hi, y.Hi.Sub(bv.One(w)))
		}
		return f.normalize()
	case OpEq:
		x, y := arg(0), arg(1)
		if !x.Known.And(y.Known).And(x.Val.Xor(y.Val)).IsZero() {
			return boolFact(false) // a known bit differs
		}
		if x.Hi.Ult(y.Lo) || y.Hi.Ult(x.Lo) {
			return boolFact(false) // disjoint unsigned ranges
		}
		if x.IsConst() && y.IsConst() && x.Val.Eq(y.Val) {
			return boolFact(true)
		}
		return topFact(1)
	case OpUlt:
		x, y := arg(0), arg(1)
		if x.Hi.Ult(y.Lo) {
			return boolFact(true)
		}
		if !x.Lo.Ult(y.Hi) { // y.Hi ≤ x.Lo, so x ≥ y everywhere
			return boolFact(false)
		}
		return topFact(1)
	case OpSlt:
		x, y := arg(0), arg(1)
		sw := t.Args[0].Width
		if x.Known.Bit(sw-1) && y.Known.Bit(sw-1) {
			sx, sy := x.Val.Bit(sw-1), y.Val.Bit(sw-1)
			if sx != sy {
				return boolFact(sx) // negative < non-negative
			}
		}
		return topFact(1)
	case OpShl, OpLshr, OpAshr:
		x, y := arg(0), arg(1)
		f := topFact(w)
		if t.Op == OpLshr {
			f.Hi = x.Hi
		}
		if !y.IsConst() {
			return f.normalize()
		}
		amt := y.Val
		switch t.Op {
		case OpShl:
			f.Known = x.Known.ShlBV(amt).Or(lowKnown(w, amt))
			f.Val = x.Val.ShlBV(amt)
		case OpLshr:
			f.Known = x.Known.LshrBV(amt).Or(highKnown(w, amt))
			f.Val = x.Val.LshrBV(amt)
			if n, ok := shiftAmount(amt, w); ok {
				f.Lo, f.Hi = x.Lo.Lshr(n), x.Hi.Lshr(n)
			}
		case OpAshr:
			// Ashr on the mask replicates the sign bit's known-ness,
			// Ashr on the value replicates its (then known) value.
			f.Known = x.Known.AshrBV(amt)
			f.Val = x.Val.AshrBV(amt).And(f.Known)
		}
		return f.normalize()
	case OpConcat:
		x, y := arg(0), arg(1)
		f := topFact(w)
		f.Known = x.Known.Concat(y.Known)
		f.Val = x.Val.Concat(y.Val)
		f.Lo = x.Lo.Concat(y.Lo)
		f.Hi = x.Hi.Concat(y.Hi)
		return f.normalize()
	case OpExtract:
		x := arg(0)
		f := topFact(w)
		f.Known = x.Known.Extract(t.Hi, t.Lo)
		f.Val = x.Val.Extract(t.Hi, t.Lo)
		if t.Lo == 0 && x.Hi.Lshr(t.Hi+1).IsZero() {
			// The whole range fits in the kept bits: truncation is the
			// identity on it, so the interval carries over.
			f.Lo, f.Hi = x.Lo.Extract(t.Hi, 0), x.Hi.Extract(t.Hi, 0)
		}
		return f.normalize()
	case OpZeroExt:
		x := arg(0)
		ow := t.Args[0].Width
		ext := bv.Ones(w).Shl(ow) // high bits known zero
		f := topFact(w)
		f.Known = x.Known.ZeroExt(w).Or(ext)
		f.Val = x.Val.ZeroExt(w)
		f.Lo = x.Lo.ZeroExt(w)
		f.Hi = x.Hi.ZeroExt(w)
		return f.normalize()
	case OpSignExt:
		x := arg(0)
		f := topFact(w)
		// SignExt replicates the top bit: on the mask that propagates
		// whether the sign is known, on the value its replicated value.
		f.Known = x.Known.SignExt(w)
		f.Val = x.Val.SignExt(w).And(f.Known)
		return f.normalize()
	case OpIte:
		c := arg(0)
		if c.IsConst() {
			if !c.Val.IsZero() {
				return arg(1)
			}
			return arg(2)
		}
		x, y := arg(1), arg(2)
		return x.Join(y)
	case OpRedOr:
		x := arg(0)
		if !x.Lo.IsZero() || !x.Val.IsZero() {
			return boolFact(true) // some bit known one, or range excludes 0
		}
		if x.IsConst() {
			return boolFact(false)
		}
		return topFact(1)
	case OpRedAnd:
		x := arg(0)
		if !x.Known.And(x.Val.Not()).IsZero() {
			return boolFact(false) // some bit known zero
		}
		if x.IsConst() {
			return boolFact(true)
		}
		return topFact(1)
	case OpRedXor:
		x := arg(0)
		if x.IsConst() {
			return constFact(x.Val.ReduceXor())
		}
		return topFact(1)
	}
	return topFact(w)
}

// shiftAmount converts a constant shift amount to an int, reporting
// whether it is within [0, limit].
func shiftAmount(amt bv.BV, limit int) (int, bool) {
	for i := 64; i < amt.Width(); i++ {
		if amt.Bit(i) {
			return 0, false
		}
	}
	n := amt.Uint64()
	if n > uint64(limit) {
		return 0, false
	}
	return int(n), true
}

// LearnAsserted harvests facts from a width-1 term that is known to be
// true (asserted as a hard constraint). Beyond the direct shapes the
// synthesizer emits — Eq(x, const), Eq(And(x, mask), const), Ult bounds
// and their negations — it propagates pinned constants backwards
// through invertible structure (Not/Neg/Xor/Add with a constant,
// Concat, Zero/SignExt, Extract) and through muxes whose pinned result
// is only reachable on one branch, which also decides the branch
// condition.
func (a *Abs) LearnAsserted(t *Term) {
	a.learnTrue(t)
}

func (a *Abs) learnTrue(t *Term) {
	switch t.Op {
	case OpConst:
		return
	case OpAnd:
		if t.Width == 1 {
			a.learnTrue(t.Args[0])
			a.learnTrue(t.Args[1])
			return
		}
	case OpNot:
		a.learnFalse(t.Args[0])
		return
	case OpEq:
		x, y := t.Args[0], t.Args[1]
		if x.IsConst() {
			x, y = y, x
		}
		if y.IsConst() {
			a.learnEqConst(x, y.Val)
		}
	case OpUlt:
		x, y := t.Args[0], t.Args[1]
		if y.IsConst() && !y.Val.IsZero() {
			f := topFact(x.Width)
			f.Hi = y.Val.Sub(bv.One(x.Width))
			a.Learn(x, f)
		}
		if x.IsConst() && !x.Val.IsOnes() {
			f := topFact(y.Width)
			f.Lo = x.Val.Add(bv.One(y.Width))
			a.Learn(y, f)
		}
	case OpRedAnd:
		a.learnEqConst(t.Args[0], bv.Ones(t.Args[0].Width))
	case OpIte:
		// (c ? x : y) asserted true: a branch whose fact is already
		// false decides the condition and asserts the other branch.
		c, x, y := t.Args[0], t.Args[1], t.Args[2]
		if !a.Fact(y).Admits(bv.FromBool(true)) {
			a.learnTrue(c)
			a.learnTrue(x)
		} else if !a.Fact(x).Admits(bv.FromBool(true)) {
			a.learnFalse(c)
			a.learnTrue(y)
		}
	}
	if t.Width == 1 && !t.IsConst() {
		a.Learn(t, boolFact(true))
	}
}

func (a *Abs) learnFalse(t *Term) {
	switch t.Op {
	case OpConst:
		return
	case OpNot:
		a.learnTrue(t.Args[0])
		return
	case OpOr:
		if t.Width == 1 {
			a.learnFalse(t.Args[0])
			a.learnFalse(t.Args[1])
			return
		}
	case OpRedOr:
		a.learnEqConst(t.Args[0], bv.Zero(t.Args[0].Width))
	case OpUlt:
		// Not(Ult(x, y)) asserted means y ≤ x.
		x, y := t.Args[0], t.Args[1]
		if x.IsConst() {
			f := topFact(y.Width)
			f.Hi = x.Val
			a.Learn(y, f)
		}
		if y.IsConst() {
			f := topFact(x.Width)
			f.Lo = y.Val
			a.Learn(x, f)
		}
	case OpEq:
		// A refuted equality with a width-1 constant pins the other side.
		x, y := t.Args[0], t.Args[1]
		if x.IsConst() {
			x, y = y, x
		}
		if y.IsConst() && y.Width == 1 {
			a.learnEqConst(x, y.Val.Not())
		}
	}
	if t.Width == 1 && !t.IsConst() {
		a.Learn(t, boolFact(false))
	}
}

// learnEqConst records x = c and pushes the constant backwards through
// invertible or partially-invertible structure.
func (a *Abs) learnEqConst(x *Term, c bv.BV) {
	if x.IsConst() {
		return
	}
	a.Learn(x, constFact(c))
	w := x.Width
	switch x.Op {
	case OpNot:
		a.learnEqConst(x.Args[0], c.Not())
	case OpNeg:
		a.learnEqConst(x.Args[0], c.Neg())
	case OpXor:
		if x.Args[1].IsConst() {
			a.learnEqConst(x.Args[0], c.Xor(x.Args[1].Val))
		} else if x.Args[0].IsConst() {
			a.learnEqConst(x.Args[1], c.Xor(x.Args[0].Val))
		}
	case OpAdd:
		if x.Args[1].IsConst() {
			a.learnEqConst(x.Args[0], c.Sub(x.Args[1].Val))
		} else if x.Args[0].IsConst() {
			a.learnEqConst(x.Args[1], c.Sub(x.Args[0].Val))
		}
	case OpSub:
		if x.Args[1].IsConst() {
			a.learnEqConst(x.Args[0], c.Add(x.Args[1].Val))
		} else if x.Args[0].IsConst() {
			a.learnEqConst(x.Args[1], x.Args[0].Val.Sub(c))
		}
	case OpAnd:
		// x0 & mask = c pins the mask's one-bits of x0.
		if x.Args[1].IsConst() {
			mask := x.Args[1].Val
			f := topFact(w)
			f.Known, f.Val = mask, c.And(mask)
			a.Learn(x.Args[0], f)
		}
	case OpOr:
		// x0 | mask = c pins the mask's zero-bits of x0.
		if x.Args[1].IsConst() {
			inv := x.Args[1].Val.Not()
			f := topFact(w)
			f.Known, f.Val = inv, c.And(inv)
			a.Learn(x.Args[0], f)
		}
	case OpConcat:
		hiA, loA := x.Args[0], x.Args[1]
		a.learnEqConst(hiA, c.Extract(w-1, loA.Width))
		a.learnEqConst(loA, c.Extract(loA.Width-1, 0))
	case OpZeroExt:
		ow := x.Args[0].Width
		if c.Lshr(ow).IsZero() { // otherwise the constraint is unsat
			a.learnEqConst(x.Args[0], c.Extract(ow-1, 0))
		}
	case OpSignExt:
		ow := x.Args[0].Width
		tr := c.Extract(ow-1, 0)
		if tr.SignExt(w).Eq(c) {
			a.learnEqConst(x.Args[0], tr)
		}
	case OpExtract:
		// A pinned slice is a partial known-bits fact about the source.
		src := x.Args[0]
		f := topFact(src.Width)
		for i := x.Lo; i <= x.Hi; i++ {
			f.Known = f.Known.WithBit(i, true)
			f.Val = f.Val.WithBit(i, c.Bit(i-x.Lo))
		}
		a.Learn(src, f)
	case OpIte:
		// A mux pinned to a value only one branch can produce decides
		// the condition and pins that branch.
		cond, p, q := x.Args[0], x.Args[1], x.Args[2]
		pAdmits := a.Fact(p).Admits(c)
		qAdmits := a.Fact(q).Admits(c)
		switch {
		case !pAdmits && qAdmits:
			a.learnFalse(cond)
			a.learnEqConst(q, c)
		case pAdmits && !qAdmits:
			a.learnTrue(cond)
			a.learnEqConst(p, c)
		}
	case OpEq, OpUlt, OpSlt, OpRedOr, OpRedAnd:
		if w == 1 {
			if !c.IsZero() {
				a.learnTrue(x)
			} else {
				a.learnFalse(x)
			}
		}
	}
}
