package smt

import (
	"rtlrepair/internal/bv"
)

// This file implements the abstract-interpretation framework over the
// hash-consed term DAG: the reduced product of known bits and unsigned
// intervals defined in domains.go, evaluated bottom-up on demand.
//
// Facts live in two layers:
//
//   - base facts depend only on a term's structure;
//   - refined facts additionally intersect the environment: facts
//     learned about particular terms (Learn), such as the state
//     invariants of a reachability fixpoint (tsys.AbstractReach).
//
// The repair solvers do not use this analysis; the fact-driven lint
// rules do (see internal/analysis).

type absEntry struct {
	fact    Fact
	tainted bool // some node of the sub-DAG carries env information
}

// Abs computes facts for terms on demand. Environment facts are seeded
// with Learn, all before the first Fact query: computed results are
// memoized and are not revised by a later Learn.
type Abs struct {
	env      map[*Term]Fact
	memo     map[*Term]absEntry
	baseMemo map[*Term]Fact
}

// NewAbs returns an empty analysis state.
func NewAbs() *Abs {
	return &Abs{
		env:      map[*Term]Fact{},
		memo:     map[*Term]absEntry{},
		baseMemo: map[*Term]Fact{},
	}
}

// Learn records an externally-justified fact about t, intersected with
// anything already known about it. Call it before the first Fact query.
func (a *Abs) Learn(t *Term, f Fact) {
	if prev, ok := a.env[t]; ok {
		f = prev.intersect(f)
	} else {
		f = f.normalize()
	}
	a.env[t] = f
}

// Fact returns a sound abstract value for t, valid under every
// environment fact learned before the first query.
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
// the term's structure.
func (a *Abs) baseFact(t *Term) Fact {
	if f, ok := a.baseMemo[t]; ok {
		return f
	}
	f := a.transfer(t, func(i int) Fact { return a.baseFact(t.Args[i]) })
	a.baseMemo[t] = f
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
