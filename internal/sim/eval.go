package sim

import (
	"fmt"
	"math/bits"

	"rtlrepair/internal/bv"
	"rtlrepair/internal/smt"
)

// eval computes slot i for the current cycle. It reproduces smt.EvalX
// bit for bit, including the order in which variables are first read:
// arguments left to right, and an ITE with a known condition visits only
// the taken branch. Values of at most 64 bits are word pairs; a node
// that is, or reads, a wider value goes through evalSlow on bv.XBV.
func (s *CycleSim) eval(i int32) {
	n := &s.p.nodes[i]
	if n.slow {
		s.evalSlow(i, n)
		return
	}
	m := n.mask
	var v, k uint64
	switch n.op {
	case smt.OpConst:
		v, k = n.val, m
	case smt.OpVar:
		if n.ref >= 0 {
			w := s.reg[n.ref]
			v, k = w.v, w.k
		} else {
			v, k = s.freeWord(n)
		}
	case smt.OpIte:
		c := n.args[0]
		cv, ck := s.get(c)
		switch {
		case ck == s.p.nodes[c].mask && cv&1 == 1:
			v, k = s.get(n.args[1])
		case ck == s.p.nodes[c].mask:
			v, k = s.get(n.args[2])
		default:
			tv, tk := s.get(n.args[1])
			ev, ek := s.get(n.args[2])
			k = tk & ek &^ (tv ^ ev)
			v = tv & k
		}
	default:
		a, b := n.args[0], n.args[1]
		av, ak := s.get(a)
		var bv_, bk uint64
		if b >= 0 {
			bv_, bk = s.get(b)
		}
		ma := s.p.nodes[a].mask
		known := ak == ma && (b < 0 || bk == s.p.nodes[b].mask) // every operand fully known
		switch n.op {
		case smt.OpNot:
			v, k = ^av&ak, ak
		case smt.OpAnd:
			k = ak&bk | ak&^av | bk&^bv_
			v = av & bv_ & k
		case smt.OpOr:
			k = ak&bk | ak&av | bk&bv_
			v = (av | bv_) & k
		case smt.OpXor:
			k = ak & bk
			v = (av ^ bv_) & k
		case smt.OpNeg:
			if known {
				v, k = -av&m, m
			}
		case smt.OpAdd:
			if known {
				v, k = (av+bv_)&m, m
			}
		case smt.OpSub:
			if known {
				v, k = (av-bv_)&m, m
			}
		case smt.OpMul:
			if known {
				v, k = (av*bv_)&m, m
			}
		case smt.OpUdiv:
			if known {
				v, k = m, m
				if bv_ != 0 {
					v = av / bv_
				}
			}
		case smt.OpUrem:
			if known {
				v, k = av, m
				if bv_ != 0 {
					v = av % bv_
				}
			}
		case smt.OpEq:
			both := ak & bk
			switch {
			case av&both != bv_&both:
				v, k = 0, 1
			case known:
				v, k = 1, 1
			}
		case smt.OpUlt:
			if known {
				v, k = b2u(av < bv_), 1
			}
		case smt.OpSlt:
			if known {
				w := s.p.nodes[a].width
				v, k = b2u(signed(av, w) < signed(bv_, w)), 1
			}
		case smt.OpShl, smt.OpLshr:
			if bk != s.p.nodes[b].mask {
				break
			}
			w := n.width
			if bv_ < uint64(w) {
				if n.op == smt.OpShl {
					v, k = av<<bv_&m, ak<<bv_&m
				} else {
					v, k = av>>bv_, ak>>bv_
				}
			}
			fill := max(min(int(bv_), w), 0) // smt.ShiftFill
			if n.op == smt.OpShl {
				k |= lowBits(fill)
			} else {
				k |= m &^ lowBits(w-fill)
			}
		case smt.OpAshr:
			if known {
				w := n.width
				if bv_ >= uint64(w) {
					v = m & -(av >> uint(w-1) & 1)
				} else {
					v = uint64(signed(av, w)>>bv_) & m
				}
				k = m
			}
		case smt.OpConcat:
			bw := s.p.nodes[b].width
			v, k = av<<bw|bv_, ak<<bw|bk
		case smt.OpExtract:
			lo := n.term.Lo
			v, k = av>>lo&m, ak>>lo&m
		case smt.OpZeroExt:
			v, k = av, ak|m&^ma
		case smt.OpSignExt:
			v, k = av, ak
			if sb := uint(s.p.nodes[a].width - 1); ak>>sb&1 == 1 {
				k |= m &^ ma
				if av>>sb&1 == 1 {
					v |= m &^ ma
				}
			}
		case smt.OpRedOr:
			switch {
			case av&ak != 0:
				v, k = 1, 1
			case known:
				v, k = 0, 1
			}
		case smt.OpRedAnd:
			switch {
			case known:
				v, k = b2u(s.p.nodes[a].width > 0 && av == ma), 1
			case ak&^av != 0: // some bit is a known zero
				v, k = 0, 1
			}
		case smt.OpRedXor:
			if known {
				v, k = uint64(bits.OnesCount64(av)&1), 1
			}
		default:
			panic(fmt.Sprintf("sim: cannot simulate %v", n.op))
		}
	}
	s.memo[i] = word{v, k}
	s.stamp[i] = s.epoch
}

// freeWord reads a narrow non-register variable: its synthesis constant
// if set, else the input cell (X when absent), with unknown bits
// concretized per policy.
func (s *CycleSim) freeWord(n *node) (v, k uint64) {
	f := -1 - n.ref
	if s.set[f] {
		p := s.par[f]
		checkWidth(n, p.Width())
		return p.Uint64(), n.mask
	}
	if in, ok := s.input(f, n); ok {
		checkWidth(n, in.Width())
		v, k = in.Val.Uint64(), in.Known.Uint64()
	}
	if k != n.mask && s.policy != KeepX {
		fill := s.fill()
		v = v&k | fill[0]&n.mask&^k
		k = n.mask
	}
	return v, k
}

// freeX is freeWord for a variable wider than 64 bits.
func (s *CycleSim) freeX(n *node) bv.XBV {
	f := -1 - n.ref
	if s.set[f] {
		return bv.K(s.par[f])
	}
	in, ok := s.input(f, n)
	if !ok {
		in = bv.X(n.width)
	}
	if in.HasUnknown() && s.policy != KeepX {
		fill := s.unknown(n.width)
		in = bv.XBV{Val: in.Resolve(fill.Val), Known: bv.Ones(n.width)}
	}
	return in
}

func (s *CycleSim) input(f int32, n *node) (bv.XBV, bool) {
	if s.byName {
		in, ok := s.inMap[n.term.Name]
		return in, ok
	}
	if c := s.cols[f]; c >= 0 {
		return s.inRow[c], true
	}
	return bv.XBV{}, false
}

func checkWidth(n *node, w int) {
	if w != n.width {
		panic(fmt.Sprintf("smt: envx value width %d for %q (want %d)", w, n.term.Name, n.width))
	}
}

// evalSlow computes a node that is, or reads, a value wider than 64
// bits with smt.EvalX's own transfer functions.
func (s *CycleSim) evalSlow(i int32, n *node) {
	var x bv.XBV
	switch n.op {
	case smt.OpConst:
		x = bv.K(n.term.Val)
	case smt.OpVar:
		if n.ref >= 0 {
			x = s.regX[n.ref]
		} else {
			x = s.freeX(n)
		}
		checkWidth(n, x.Width())
	case smt.OpIte:
		cond := s.x(n.args[0])
		switch {
		case cond.IsFullyKnown() && cond.Val.Bit(0):
			x = s.x(n.args[1])
		case cond.IsFullyKnown():
			x = s.x(n.args[2])
		default:
			x = smt.MergeX(s.x(n.args[1]), s.x(n.args[2]))
		}
	default:
		a := s.x(n.args[0])
		var b bv.XBV
		if n.args[1] >= 0 {
			b = s.x(n.args[1])
		}
		x = smt.ApplyX(n.term, a, b)
	}
	if n.wide >= 0 {
		s.memoX[n.wide] = x
	} else {
		s.memo[i] = word{x.Val.Uint64(), x.Known.Uint64()}
	}
	s.stamp[i] = s.epoch
}

// lowBits returns a word with the low n bits set (0 ≤ n ≤ 64).
func lowBits(n int) uint64 { return ^uint64(0) >> (64 - uint(n)) }

// signed sign-extends the low w bits of x.
func signed(x uint64, w int) int64 {
	sh := uint(64 - w)
	return int64(x<<sh) >> sh
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
