package smt

import (
	"rtlrepair/internal/bv"
)

// Simplify rewrites t under the analysis state: fully-determined terms
// collapse to constants, muxes with a decided condition drop the dead
// branch, and shifts by a determined amount reduce to wiring. The
// result is equivalent to t in every model of the constraints the state
// was seeded from.
//
// Every top-level Simplify call passes the never-worse guard: the
// result's estimated CNF cost — an exact walk over the term DAG,
// counting already-blasted terms as free, since re-using them adds no
// clauses — must not exceed the original's, or the original is kept
// unchanged. Guarding once per root (per asserted formula) rather than
// per rewritten node keeps simplification linear in the DAG while
// still bounding every assert's encoding by its unsimplified cost —
// which is exactly the granularity the corpus-wide never-worse test
// measures. A rewrite set that would duplicate structure the solver
// has already encoded (for example, re-simplifying a shared sub-term
// into a fresh variant after new facts arrived) nets out costlier and
// is rejected wholesale.
//
// Results are memoized in the analysis state and invalidated together
// with the fact memo when the environment tightens (see Abs), so later
// asserts of a shared term benefit from newer facts instead of being
// pinned to the first rewrite.
func (c *Context) Simplify(t *Term, a *Abs) *Term {
	if r, ok := a.simp[t]; ok {
		// A memoized rewrite was guarded relative to the assert it was
		// made under; as a fresh root it must re-pass the guard against
		// the current blasted set.
		if a.simpDepth == 0 && r != t && a.cost(r) > a.cost(t) {
			a.Stats.GuardFallbacks++
			return t
		}
		return r
	}
	a.simpDepth++
	r := c.simplify1(t, a)
	a.simpDepth--
	if r != t {
		if r.Width != t.Width {
			panic("smt: simplify changed term width")
		}
		a.Stats.Rewrites++
	}
	if a.simpDepth == 0 && r != t && a.cost(r) > a.cost(t) {
		a.Stats.GuardFallbacks++
		r = t
	}
	a.simp[t] = r
	return r
}

func (c *Context) simplify1(t *Term, a *Abs) *Term {
	if t.Op == OpConst {
		return t
	}
	if f := a.Fact(t); f.IsConst() {
		return c.Const(f.Val)
	}
	if t.Op == OpVar {
		return t
	}
	// Decided mux conditions prune the dead branch before it is visited.
	if t.Op == OpIte {
		if cf := a.Fact(t.Args[0]); cf.IsConst() {
			var r *Term
			if !cf.Val.IsZero() {
				r = c.Simplify(t.Args[1], a)
			} else {
				r = c.Simplify(t.Args[2], a)
			}
			return r
		}
	}
	args := make([]*Term, len(t.Args))
	for i, x := range t.Args {
		args[i] = c.Simplify(x, a)
	}
	var r *Term
	if t.Op == OpExtract {
		r = c.Extract(args[0], t.Hi, t.Lo)
	} else {
		r = c.rebuild(t.Op, t.Width, args)
	}
	if r.IsConst() {
		return r
	}
	// Facts are keyed on the original node; its rebuilt form satisfies
	// the same constraints in every model.
	if f := a.Fact(t); f.IsConst() {
		return c.Const(f.Val)
	}
	// Shift strength reduction: a determined shift amount turns a
	// barrel shifter into wiring.
	if r.Op == OpShl || r.Op == OpLshr || r.Op == OpAshr {
		if af := a.Fact(r.Args[1]); af.IsConst() {
			if red := c.reduceShift(r, af.Val); red != nil {
				r = red
			}
		}
	}
	return r
}

// cost estimates the marginal CNF gate cost of blasting t: a sum of
// per-op costs over the sub-DAG with exact sharing (every node counted
// once), stopping at terms the solver already blasted — they re-use
// existing literals for free. It runs twice per guarded root, so the
// per-assert total stays linear in the DAG. Sub-DAG totals are
// memoized per Assert (beginAssert resets them: the blasted set grows
// between asserts); a memoized total was deduplicated against the
// nodes of its own walk, so folding it into an enclosing walk may
// double-count shared structure — acceptable, since both sides of a
// guard comparison fold the same memoized entries.
func (a *Abs) cost(t *Term) int64 {
	if a.costMemo == nil {
		a.costMemo = map[*Term]int64{}
	}
	if v, ok := a.costMemo[t]; ok {
		return v
	}
	var total int64
	seen := map[*Term]struct{}{}
	var walk func(n *Term)
	walk = func(n *Term) {
		if _, ok := seen[n]; ok {
			return
		}
		seen[n] = struct{}{}
		if v, ok := a.costMemo[n]; ok {
			total += v
			return
		}
		if a.free != nil && a.free(n) {
			return
		}
		total += opCost(n)
		for _, c := range n.Args {
			walk(c)
		}
	}
	walk(t)
	a.costMemo[t] = total
	return total
}

// opCost approximates the gates one node contributes when blasted.
// Wiring ops (extract/concat/extensions) and literal negation are free;
// arithmetic scales with width, multiplication and division
// quadratically, variable shifts as a log-depth barrel.
func opCost(t *Term) int64 {
	w := int64(t.Width)
	switch t.Op {
	case OpConst, OpVar, OpNot, OpExtract, OpConcat, OpZeroExt, OpSignExt:
		return 0
	case OpAnd, OpOr, OpXor:
		return w
	case OpAdd, OpSub, OpNeg:
		return 5 * w
	case OpMul:
		return 5 * w * w
	case OpUdiv, OpUrem:
		return 10 * w * w
	case OpShl, OpLshr, OpAshr:
		aw := int64(1)
		for (int64(1) << aw) < int64(t.Width) {
			aw++
		}
		return 3 * w * aw
	case OpEq, OpUlt, OpSlt:
		iw := int64(t.Args[0].Width)
		return 3 * iw
	case OpIte:
		return 3 * w
	case OpRedOr, OpRedAnd, OpRedXor:
		return int64(t.Args[0].Width)
	}
	return w
}

// reduceShift rewrites a shift by the constant amount amt as
// extract/concat wiring. Returns nil when no reduction applies.
func (c *Context) reduceShift(t *Term, amt bv.BV) *Term {
	w := t.Width
	x := t.Args[0]
	k, ok := shiftAmount(amt, w)
	if !ok {
		k = w // saturate: shifts ≥ width have a fixed result
	}
	switch {
	case k == 0:
		return x
	case k >= w:
		switch t.Op {
		case OpAshr:
			return c.SignExt(c.Extract(x, w-1, w-1), w)
		default:
			return c.Const(bv.Zero(w))
		}
	}
	switch t.Op {
	case OpShl:
		return c.Concat(c.Extract(x, w-1-k, 0), c.Const(bv.Zero(k)))
	case OpLshr:
		return c.ZeroExt(c.Extract(x, w-1, k), w)
	case OpAshr:
		return c.SignExt(c.Extract(x, w-1, k), w)
	}
	return nil
}
