package smt

import (
	"fmt"

	"rtlrepair/internal/bv"
)

// EvalX computes the 4-state value of t, propagating X (unknown) bits the
// way a two-state-accurate simulator must: logic operations are bit-precise
// (0 & X = 0), arithmetic and comparisons poison, and an ITE with an
// unknown condition merges both branches, keeping only bits on which the
// branches agree. This models the synthesized circuit's behaviour under
// unknown register power-on values, which is what the repair synthesizer
// and the OSDD analysis need (and is deliberately *different* from
// Verilog event-simulation X-optimism, implemented in internal/sim's
// event simulator).
//
// Evaluation is a demand-driven DFS: arguments left to right, and an ITE
// with a known condition visits only the taken branch. env is called
// once per variable occurrence that is not yet memoized, in that order.
func EvalX(t *Term, env func(*Term) bv.XBV) bv.XBV {
	memo := map[*Term]bv.XBV{}
	var rec func(*Term) bv.XBV
	rec = func(t *Term) bv.XBV {
		if v, ok := memo[t]; ok {
			return v
		}
		var v bv.XBV
		switch t.Op {
		case OpConst:
			v = bv.K(t.Val)
		case OpVar:
			v = env(t)
			if v.Width() != t.Width {
				panic(fmt.Sprintf("smt: envx value width %d for %q (want %d)", v.Width(), t.Name, t.Width))
			}
		case OpIte:
			cond := rec(t.Args[0])
			switch {
			case cond.IsFullyKnown() && cond.Val.Bit(0):
				v = rec(t.Args[1])
			case cond.IsFullyKnown():
				v = rec(t.Args[2])
			default:
				v = MergeX(rec(t.Args[1]), rec(t.Args[2]))
			}
		default:
			a := rec(t.Args[0])
			var b bv.XBV
			if len(t.Args) > 1 {
				b = rec(t.Args[1])
			}
			v = ApplyX(t, a, b)
		}
		memo[t] = v
		return v
	}
	return rec(t)
}

// ApplyX computes the 4-state value of an operator term from the values
// of its arguments: a is the first argument and b the second (ignored by
// unary operators). It is EvalX's transfer function for every operator
// except constants, variables and ITE, whose evaluation order EvalX
// controls itself.
func ApplyX(t *Term, a, b bv.XBV) bv.XBV {
	switch t.Op {
	case OpNot:
		return a.Not()
	case OpAnd:
		return a.And(b)
	case OpOr:
		return a.Or(b)
	case OpXor:
		return a.Xor(b)
	case OpNeg:
		if a.HasUnknown() {
			return bv.X(t.Width)
		}
		return bv.K(a.Val.Neg())
	case OpAdd:
		return a.Add(b)
	case OpSub:
		return a.Sub(b)
	case OpMul:
		return a.Mul(b)
	case OpUdiv:
		return a.Udiv(b)
	case OpUrem:
		return a.Urem(b)
	case OpEq:
		return a.EqX(b)
	case OpUlt:
		return a.UltX(b)
	case OpSlt:
		if a.HasUnknown() || b.HasUnknown() {
			return bv.X(1)
		}
		return bv.K(bv.FromBool(a.Val.Slt(b.Val)))
	case OpShl, OpLshr, OpAshr:
		if b.HasUnknown() || (t.Op == OpAshr && a.HasUnknown()) {
			return bv.X(t.Width)
		}
		switch t.Op {
		case OpShl:
			return bv.XBV{Val: a.Val.ShlBV(b.Val), Known: a.Known.ShlBV(b.Val).Or(lowKnown(t.Width, b.Val))}
		case OpLshr:
			return bv.XBV{Val: a.Val.LshrBV(b.Val), Known: a.Known.LshrBV(b.Val).Or(highKnown(t.Width, b.Val))}
		default:
			return bv.K(a.Val.AshrBV(b.Val))
		}
	case OpConcat:
		return a.Concat(b)
	case OpExtract:
		return a.Extract(t.Hi, t.Lo)
	case OpZeroExt:
		return a.ZeroExt(t.Width)
	case OpSignExt:
		ext := bv.X(t.Width - a.Width())
		if a.Known.Bit(a.Width() - 1) {
			if a.Val.Bit(a.Width() - 1) {
				ext = bv.K(bv.Ones(t.Width - a.Width()))
			} else {
				ext = bv.K(bv.Zero(t.Width - a.Width()))
			}
		}
		return ext.Concat(a)
	case OpRedOr:
		return a.ReduceOr()
	case OpRedAnd:
		if a.IsFullyKnown() {
			return bv.K(a.Val.ReduceAnd())
		}
		if !a.Val.Or(a.Known.Not()).Not().IsZero() {
			// some bit is a known zero
			return bv.KU(1, 0)
		}
		return bv.X(1)
	case OpRedXor:
		if a.IsFullyKnown() {
			return bv.K(a.Val.ReduceXor())
		}
		return bv.X(1)
	default:
		panic(fmt.Sprintf("smt: evalx of %v", t.Op))
	}
}

// MergeX is the value of an ITE with an unknown condition: it keeps the
// bits on which both branches agree and are known.
func MergeX(a, b bv.XBV) bv.XBV {
	agree := a.Val.Xor(b.Val).Not()
	known := a.Known.And(b.Known).And(agree)
	return bv.XBV{Val: a.Val.And(known), Known: known}
}

// ShiftFill returns how many bits a shift by amt fills with known
// zeros in a width-wide result: the low 64 bits of amt, capped at width.
// An amount whose low word is 2^63 or more is taken as negative and
// fills nothing.
func ShiftFill(width int, amt bv.BV) int {
	return max(min(int(amt.Uint64()), width), 0)
}

// lowKnown returns a mask of the low bits that a left shift by amt makes
// known (they are shifted-in zeros).
func lowKnown(width int, amt bv.BV) bv.BV {
	return bv.Mask(width, 0, ShiftFill(width, amt))
}

// highKnown returns a mask of the high bits a logical right shift makes
// known.
func highKnown(width int, amt bv.BV) bv.BV {
	return bv.Mask(width, width-ShiftFill(width, amt), width)
}
