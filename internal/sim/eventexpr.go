package sim

import (
	"fmt"

	"rtlrepair/internal/bv"
	"rtlrepair/internal/smt"
	"rtlrepair/internal/verilog"
)

// selfWidth mirrors the synthesizer's sizing rules over the event
// simulator's signal table.
func (s *EventSim) selfWidth(x verilog.Expr) (int, error) {
	switch x := x.(type) {
	case *verilog.Ident:
		if v, ok := s.info.Params[x.Name]; ok {
			return v.Width(), nil
		}
		if d, ok := s.info.Signals[x.Name]; ok {
			return d.Width, nil
		}
		return 0, fmt.Errorf("sim: unknown identifier %q", x.Name)
	case *verilog.Number:
		return x.Width, nil
	case *verilog.Unary:
		switch x.Op {
		case "!", "&", "|", "^", "~&", "~|", "~^":
			return 1, nil
		default:
			return s.selfWidth(x.X)
		}
	case *verilog.Binary:
		switch x.Op {
		case "==", "!=", "<", "<=", ">", ">=", "&&", "||":
			return 1, nil
		case "<<", ">>", "<<<", ">>>":
			return s.selfWidth(x.X)
		default:
			wx, err := s.selfWidth(x.X)
			if err != nil {
				return 0, err
			}
			wy, err := s.selfWidth(x.Y)
			if err != nil {
				return 0, err
			}
			if wx > wy {
				return wx, nil
			}
			return wy, nil
		}
	case *verilog.Ternary:
		wt, err := s.selfWidth(x.Then)
		if err != nil {
			return 0, err
		}
		we, err := s.selfWidth(x.Else)
		if err != nil {
			return 0, err
		}
		if wt > we {
			return wt, nil
		}
		return we, nil
	case *verilog.Concat:
		total := 0
		for _, p := range x.Parts {
			w, err := s.selfWidth(p)
			if err != nil {
				return 0, err
			}
			total += w
		}
		return total, nil
	case *verilog.Repeat:
		n, err := s.constInt(x.Count)
		if err != nil {
			return 0, err
		}
		total := 0
		for _, p := range x.Parts {
			w, err := s.selfWidth(p)
			if err != nil {
				return 0, err
			}
			total += w
		}
		return int(n) * total, nil
	case *verilog.Index:
		return 1, nil
	case *verilog.PartSelect:
		hi, err := s.constInt(x.MSB)
		if err != nil {
			return 0, err
		}
		lo, err := s.constInt(x.LSB)
		if err != nil {
			return 0, err
		}
		return int(hi - lo + 1), nil
	}
	return 0, fmt.Errorf("sim: cannot size %T", x)
}

func (s *EventSim) lhsWidth(lhs verilog.Expr) (int, error) {
	switch l := lhs.(type) {
	case *verilog.Ident:
		if d, ok := s.info.Signals[l.Name]; ok {
			return d.Width, nil
		}
		return 0, fmt.Errorf("sim: unknown lvalue %q", l.Name)
	case *verilog.Index:
		return 1, nil
	case *verilog.PartSelect:
		hi, err := s.constInt(l.MSB)
		if err != nil {
			return 0, err
		}
		lo, err := s.constInt(l.LSB)
		if err != nil {
			return 0, err
		}
		return int(hi - lo + 1), nil
	case *verilog.Concat:
		total := 0
		for _, p := range l.Parts {
			w, err := s.lhsWidth(p)
			if err != nil {
				return 0, err
			}
			total += w
		}
		return total, nil
	}
	return 0, fmt.Errorf("sim: unsupported lvalue %T", lhs)
}

// constInt evaluates a parameter/literal constant.
func (s *EventSim) constInt(x verilog.Expr) (int64, error) {
	v, err := s.eval(x, 0)
	if err != nil {
		return 0, err
	}
	if v.HasUnknown() {
		return 0, fmt.Errorf("sim: X in constant position")
	}
	return int64(v.Val.Resize(64).Uint64()), nil
}

func (s *EventSim) signedExpr(x verilog.Expr) bool {
	switch x := x.(type) {
	case *verilog.Ident:
		if d, ok := s.info.Signals[x.Name]; ok {
			return d.Signed
		}
		return false
	case *verilog.Number:
		return x.Signed
	case *verilog.Unary:
		if x.Op == "-" || x.Op == "~" {
			return s.signedExpr(x.X)
		}
	case *verilog.Binary:
		switch x.Op {
		case "+", "-", "*", "&", "|", "^", "~^":
			return s.signedExpr(x.X) && s.signedExpr(x.Y)
		case "<<<", ">>>":
			return s.signedExpr(x.X)
		}
	}
	return false
}

func (s *EventSim) extendX(v bv.XBV, w int, signed bool) bv.XBV {
	if v.Width() >= w {
		return v.Resize(w)
	}
	if signed && v.Width() > 0 {
		msbKnown := v.Known.Bit(v.Width() - 1)
		msbVal := v.Val.Bit(v.Width() - 1)
		var pad bv.XBV
		switch {
		case !msbKnown:
			pad = bv.X(w - v.Width())
		case msbVal:
			pad = bv.K(bv.Ones(w - v.Width()))
		default:
			pad = bv.K(bv.Zero(w - v.Width()))
		}
		return pad.Concat(v)
	}
	return v.ZeroExt(w)
}

// eval computes the 4-state value of an expression at context width
// ctxW (0 = self-determined), with Verilog event-simulation semantics.
func (s *EventSim) eval(x verilog.Expr, ctxW int) (bv.XBV, error) {
	sw, err := s.selfWidth(x)
	if err != nil {
		return bv.XBV{}, err
	}
	w := sw
	if ctxW > w {
		w = ctxW
	}
	switch x := x.(type) {
	case *verilog.Ident:
		if v, ok := s.info.Params[x.Name]; ok {
			return s.extendX(bv.K(v), w, x != nil && s.signedExpr(x)), nil
		}
		v, ok := s.vals[x.Name]
		if !ok {
			return bv.XBV{}, fmt.Errorf("sim: unknown identifier %q", x.Name)
		}
		return s.extendX(v, w, s.signedExpr(x)), nil
	case *verilog.Number:
		return s.extendX(x.Bits, w, x.Signed), nil
	case *verilog.Unary:
		switch x.Op {
		case "~":
			v, err := s.eval(x.X, w)
			if err != nil {
				return bv.XBV{}, err
			}
			return v.Not(), nil
		case "-":
			v, err := s.eval(x.X, w)
			if err != nil {
				return bv.XBV{}, err
			}
			if v.HasUnknown() {
				return bv.X(w), nil
			}
			return bv.K(v.Val.Neg()), nil
		case "!":
			v, err := s.eval(x.X, 0)
			if err != nil {
				return bv.XBV{}, err
			}
			r := v.ReduceOr()
			return s.extendX(r.Not(), w, false), nil
		case "&", "|", "^", "~&", "~|", "~^":
			v, err := s.eval(x.X, 0)
			if err != nil {
				return bv.XBV{}, err
			}
			var r bv.XBV
			switch x.Op {
			case "|", "~|":
				r = v.ReduceOr()
			case "&", "~&":
				if v.IsFullyKnown() {
					r = bv.K(v.Val.ReduceAnd())
				} else if !v.Val.Or(v.Known.Not()).IsOnes() {
					r = bv.KU(1, 0)
				} else {
					r = bv.X(1)
				}
			default:
				if v.IsFullyKnown() {
					r = bv.K(v.Val.ReduceXor())
				} else {
					r = bv.X(1)
				}
			}
			if x.Op == "~&" || x.Op == "~|" || x.Op == "~^" {
				r = r.Not()
			}
			return s.extendX(r, w, false), nil
		}
		return bv.XBV{}, fmt.Errorf("sim: unary %q", x.Op)
	case *verilog.Binary:
		return s.evalBinary(x, w)
	case *verilog.Ternary:
		cond, err := s.eval(x.Cond, 0)
		if err != nil {
			return bv.XBV{}, err
		}
		// Verilog ?: with unknown condition merges the branches.
		thenV, err := s.eval(x.Then, w)
		if err != nil {
			return bv.XBV{}, err
		}
		elseV, err := s.eval(x.Else, w)
		if err != nil {
			return bv.XBV{}, err
		}
		if cond.IsFullyKnown() {
			if cond.Truthy() {
				return thenV, nil
			}
			return elseV, nil
		}
		agree := thenV.Val.Xor(elseV.Val).Not()
		known := thenV.Known.And(elseV.Known).And(agree)
		return bv.XBV{Val: thenV.Val.And(known), Known: known}, nil
	case *verilog.Concat:
		var out *bv.XBV
		for _, p := range x.Parts {
			v, err := s.eval(p, 0)
			if err != nil {
				return bv.XBV{}, err
			}
			if out == nil {
				out = &v
			} else {
				nv := out.Concat(v)
				out = &nv
			}
		}
		return s.extendX(*out, w, false), nil
	case *verilog.Repeat:
		n, err := s.constInt(x.Count)
		if err != nil {
			return bv.XBV{}, err
		}
		var inner *bv.XBV
		for _, p := range x.Parts {
			v, err := s.eval(p, 0)
			if err != nil {
				return bv.XBV{}, err
			}
			if inner == nil {
				inner = &v
			} else {
				nv := inner.Concat(v)
				inner = &nv
			}
		}
		out := bv.X(0)
		for i := int64(0); i < n; i++ {
			out = out.Concat(*inner)
		}
		return s.extendX(out, w, false), nil
	case *verilog.Index:
		base, err := s.eval(x.X, 0)
		if err != nil {
			return bv.XBV{}, err
		}
		lo := 0
		if id, ok := x.X.(*verilog.Ident); ok {
			if d, ok := s.info.Signals[id.Name]; ok {
				lo = d.Lsb
			}
		}
		idx, err := s.eval(x.Idx, 0)
		if err != nil {
			return bv.XBV{}, err
		}
		if idx.HasUnknown() {
			return bv.X(w), nil
		}
		b := int(idx.Val.Resize(64).Uint64()) - lo
		if b < 0 || b >= base.Width() {
			return s.extendX(bv.X(1), w, false), nil // out of range reads x
		}
		return s.extendX(base.Extract(b, b), w, false), nil
	case *verilog.PartSelect:
		base, err := s.eval(x.X, 0)
		if err != nil {
			return bv.XBV{}, err
		}
		lo := 0
		if id, ok := x.X.(*verilog.Ident); ok {
			if d, ok := s.info.Signals[id.Name]; ok {
				lo = d.Lsb
			}
		}
		hi64, err := s.constInt(x.MSB)
		if err != nil {
			return bv.XBV{}, err
		}
		lo64, err := s.constInt(x.LSB)
		if err != nil {
			return bv.XBV{}, err
		}
		hb, lb := int(hi64)-lo, int(lo64)-lo
		if lb < 0 || hb >= base.Width() || hb < lb {
			return bv.X(w), nil
		}
		return s.extendX(base.Extract(hb, lb), w, false), nil
	}
	return bv.XBV{}, fmt.Errorf("sim: expression %T", x)
}

func (s *EventSim) evalBinary(x *verilog.Binary, w int) (bv.XBV, error) {
	switch x.Op {
	case "==", "!=", "<", "<=", ">", ">=":
		wx, err := s.selfWidth(x.X)
		if err != nil {
			return bv.XBV{}, err
		}
		wy, err := s.selfWidth(x.Y)
		if err != nil {
			return bv.XBV{}, err
		}
		cw := wx
		if wy > cw {
			cw = wy
		}
		a, err := s.eval(x.X, cw)
		if err != nil {
			return bv.XBV{}, err
		}
		b, err := s.eval(x.Y, cw)
		if err != nil {
			return bv.XBV{}, err
		}
		var r bv.XBV
		switch x.Op {
		case "==":
			r = a.EqX(b)
		case "!=":
			r = a.EqX(b).Not()
		default:
			if a.HasUnknown() || b.HasUnknown() {
				r = bv.X(1)
			} else {
				signed := s.signedExpr(x.X) && s.signedExpr(x.Y)
				var lt, eq bool
				if signed {
					lt = a.Val.Slt(b.Val)
				} else {
					lt = a.Val.Ult(b.Val)
				}
				eq = a.Val.Eq(b.Val)
				switch x.Op {
				case "<":
					r = bv.K(bv.FromBool(lt))
				case "<=":
					r = bv.K(bv.FromBool(lt || eq))
				case ">":
					r = bv.K(bv.FromBool(!lt && !eq))
				default:
					r = bv.K(bv.FromBool(!lt))
				}
			}
		}
		return s.extendX(r, w, false), nil
	case "&&", "||":
		a, err := s.eval(x.X, 0)
		if err != nil {
			return bv.XBV{}, err
		}
		b, err := s.eval(x.Y, 0)
		if err != nil {
			return bv.XBV{}, err
		}
		ra, rb := a.ReduceOr(), b.ReduceOr()
		var r bv.XBV
		if x.Op == "&&" {
			r = ra.And(rb)
		} else {
			r = ra.Or(rb)
		}
		return s.extendX(r, w, false), nil
	case "<<", ">>", "<<<", ">>>":
		a, err := s.eval(x.X, w)
		if err != nil {
			return bv.XBV{}, err
		}
		b, err := s.eval(x.Y, 0)
		if err != nil {
			return bv.XBV{}, err
		}
		if b.HasUnknown() {
			return bv.X(w), nil
		}
		amt := b.Val.Resize(w)
		switch x.Op {
		case "<<", "<<<":
			return bv.XBV{Val: a.Val.ShlBV(amt), Known: a.Known.ShlBV(amt).Or(lowMask(w, amt))}, nil
		case ">>":
			return bv.XBV{Val: a.Val.LshrBV(amt), Known: a.Known.LshrBV(amt).Or(highMask(w, amt))}, nil
		default:
			if s.signedExpr(x.X) {
				if a.HasUnknown() {
					return bv.X(w), nil
				}
				return bv.K(a.Val.AshrBV(amt)), nil
			}
			return bv.XBV{Val: a.Val.LshrBV(amt), Known: a.Known.LshrBV(amt).Or(highMask(w, amt))}, nil
		}
	default:
		a, err := s.eval(x.X, w)
		if err != nil {
			return bv.XBV{}, err
		}
		b, err := s.eval(x.Y, w)
		if err != nil {
			return bv.XBV{}, err
		}
		switch x.Op {
		case "+":
			return a.Add(b), nil
		case "-":
			return a.Sub(b), nil
		case "*":
			return a.Mul(b), nil
		case "/":
			return a.Udiv(b), nil
		case "%":
			return a.Urem(b), nil
		case "&":
			return a.And(b), nil
		case "|":
			return a.Or(b), nil
		case "^":
			return a.Xor(b), nil
		case "~^":
			return a.Xor(b).Not(), nil
		}
		return bv.XBV{}, fmt.Errorf("sim: binary %q", x.Op)
	}
}

func lowMask(w int, amt bv.BV) bv.BV { return bv.Mask(w, 0, smt.ShiftFill(w, amt)) }

func highMask(w int, amt bv.BV) bv.BV { return bv.Mask(w, w-smt.ShiftFill(w, amt), w) }
