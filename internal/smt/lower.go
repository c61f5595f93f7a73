package smt

import (
	"fmt"
	"math"

	"rtlrepair/internal/bv"
	"rtlrepair/internal/sat"
)

// Gates is the gate library a Lowering builds into. And and Xor receive
// two literals that are not constant, not equal and not complementary:
// the Lowering folds those cases itself. Input returns a fresh bit for a
// variable the Lowering has no binding for.
type Gates interface {
	And(a, b sat.Lit) sat.Lit
	Xor(a, b sat.Lit) sat.Lit
	Input() sat.Lit
}

// Lowering bit-blasts terms into a gate library, operator by operator:
// ripple-carry adders, shift-and-add multipliers, restoring division,
// barrel shifters and AND/XOR trees. The SAT solver's Tseitin encoding
// and the gate-level netlist are both built by it.
type Lowering struct {
	gates Gates
	t, f  sat.Lit
	// bits maps a lowered term to the offset of its Width literals (LSB
	// first) in lits; free lists the variables that got fresh inputs.
	bits map[*Term]uint32
	lits []sat.Lit
	free []*Term
}

// NewLowering returns a lowering into g whose constant-true literal is t.
func NewLowering(g Gates, t sat.Lit) *Lowering {
	return &Lowering{gates: g, t: t, f: t.Not(), bits: map[*Term]uint32{}}
}

// reset forgets every lowered term and bound variable, keeping the
// buffers, and takes t as the new constant-true literal.
func (l *Lowering) reset(t sat.Lit) {
	clear(l.bits)
	clear(l.free)
	l.lits, l.free = l.lits[:0], l.free[:0]
	l.t, l.f = t, t.Not()
}

// Bind makes lits (LSB first) the bits of variable v, in place of fresh
// inputs. It must precede any Lower that reaches v.
func (l *Lowering) Bind(v *Term, lits []sat.Lit) {
	if v.Op != OpVar || len(lits) != v.Width {
		panic(fmt.Sprintf("smt: bind of %v with %d bits", v, len(lits)))
	}
	l.bits[v] = uint32(len(l.lits))
	l.lits = append(l.lits, lits...)
}

// Vars lists the variables Lower gave fresh inputs, in order.
func (l *Lowering) Vars() []*Term { return l.free }

// Terms reports how many terms have been lowered or bound.
func (l *Lowering) Terms() int { return len(l.bits) }

func (l *Lowering) and(a, b sat.Lit) sat.Lit {
	if a == l.f || b == l.f {
		return l.f
	}
	if a == l.t {
		return b
	}
	if b == l.t {
		return a
	}
	if a == b {
		return a
	}
	if a == b.Not() {
		return l.f
	}
	return l.gates.And(a, b)
}

func (l *Lowering) or(a, b sat.Lit) sat.Lit {
	return l.and(a.Not(), b.Not()).Not()
}

func (l *Lowering) xor(a, b sat.Lit) sat.Lit {
	if a == l.f {
		return b
	}
	if a == l.t {
		return b.Not()
	}
	if b == l.f {
		return a
	}
	if b == l.t {
		return a.Not()
	}
	if a == b {
		return l.f
	}
	if a == b.Not() {
		return l.t
	}
	return l.gates.Xor(a, b)
}

func (l *Lowering) iff(a, b sat.Lit) sat.Lit { return l.xor(a, b).Not() }

// mux returns c ? a : b.
func (l *Lowering) mux(c, a, b sat.Lit) sat.Lit {
	if c == l.t {
		return a
	}
	if c == l.f {
		return b
	}
	if a == b {
		return a
	}
	return l.or(l.and(c, a), l.and(c.Not(), b))
}

// add computes a + b + cin, returning sum bits.
func (l *Lowering) add(a, b []sat.Lit, cin sat.Lit) []sat.Lit {
	n := len(a)
	sum := make([]sat.Lit, n)
	c := cin
	for i := 0; i < n; i++ {
		axb := l.xor(a[i], b[i])
		sum[i] = l.xor(axb, c)
		c = l.or(l.and(a[i], b[i]), l.and(axb, c))
	}
	return sum
}

// ult returns the literal for unsigned a < b.
func (l *Lowering) ult(a, b []sat.Lit) sat.Lit {
	lt := l.f
	for i := 0; i < len(a); i++ {
		bitLt := l.and(a[i].Not(), b[i])
		eq := l.iff(a[i], b[i])
		lt = l.or(bitLt, l.and(eq, lt))
	}
	return lt
}

// appendConst appends v's bits as constant literals to out.
func (l *Lowering) appendConst(out []sat.Lit, v bv.BV) []sat.Lit {
	for i := range v.Width() {
		b := l.f
		if v.Bit(i) {
			b = l.t
		}
		out = append(out, b)
	}
	return out
}

// Lower returns the literals (LSB first) representing t. They alias the
// lowering's pool and must not be modified.
func (l *Lowering) Lower(t *Term) []sat.Lit {
	if off, ok := l.bits[t]; ok {
		end := off + uint32(t.Width)
		return l.lits[off:end:end]
	}
	// Every operator's encoding lowers its arguments first, in order, so
	// t's literals are the ones appended after theirs.
	var args [3][]sat.Lit
	for i, arg := range t.Args {
		args[i] = l.Lower(arg)
	}
	a, b := args[0], args[1]
	start := len(l.lits)
	switch t.Op {
	case OpConst:
		l.lits = l.appendConst(l.lits, t.Val)
	case OpVar:
		for range t.Width {
			l.lits = append(l.lits, l.gates.Input())
		}
		l.free = append(l.free, t)
	case OpNot:
		for _, x := range a {
			l.lits = append(l.lits, x.Not())
		}
	case OpAnd, OpOr, OpXor:
		for i := range a {
			var x sat.Lit
			switch t.Op {
			case OpAnd:
				x = l.and(a[i], b[i])
			case OpOr:
				x = l.or(a[i], b[i])
			default:
				x = l.xor(a[i], b[i])
			}
			l.lits = append(l.lits, x)
		}
	case OpNeg:
		na := make([]sat.Lit, len(a))
		for i := range a {
			na[i] = a[i].Not()
		}
		l.lits = append(l.lits, l.add(na, l.appendConst(nil, bv.Zero(t.Width)), l.t)...)
	case OpAdd:
		l.lits = append(l.lits, l.add(a, b, l.f)...)
	case OpSub:
		nb := make([]sat.Lit, len(b))
		for i := range b {
			nb[i] = b[i].Not()
		}
		l.lits = append(l.lits, l.add(a, nb, l.t)...)
	case OpMul:
		acc := l.appendConst(nil, bv.Zero(t.Width))
		for i := 0; i < t.Width; i++ {
			// addend = (a << i) masked by b[i]
			addend := make([]sat.Lit, t.Width)
			for j := 0; j < t.Width; j++ {
				if j < i {
					addend[j] = l.f
				} else {
					addend[j] = l.and(a[j-i], b[i])
				}
			}
			acc = l.add(acc, addend, l.f)
		}
		l.lits = append(l.lits, acc...)
	case OpUdiv, OpUrem:
		q, r := l.divRem(a, b)
		if t.Op == OpUdiv {
			l.lits = append(l.lits, q...)
		} else {
			l.lits = append(l.lits, r...)
		}
	case OpEq:
		eq := l.t
		for i := range a {
			eq = l.and(eq, l.iff(a[i], b[i]))
		}
		l.lits = append(l.lits, eq)
	case OpUlt:
		l.lits = append(l.lits, l.ult(a, b))
	case OpSlt:
		fa := append([]sat.Lit(nil), a...)
		fb := append([]sat.Lit(nil), b...)
		fa[len(fa)-1] = fa[len(fa)-1].Not()
		fb[len(fb)-1] = fb[len(fb)-1].Not()
		l.lits = append(l.lits, l.ult(fa, fb))
	case OpShl, OpLshr, OpAshr:
		l.lits = append(l.lits, l.shift(t.Op, a, b)...)
	case OpConcat:
		l.lits = append(append(l.lits, b...), a...) // a is the high part
	case OpExtract:
		l.lits = append(l.lits, a[t.Lo:t.Hi+1]...)
	case OpZeroExt:
		l.lits = append(l.lits, a...)
		for range t.Width - len(a) {
			l.lits = append(l.lits, l.f)
		}
	case OpSignExt:
		l.lits = append(l.lits, a...)
		for range t.Width - len(a) {
			l.lits = append(l.lits, a[len(a)-1])
		}
	case OpIte:
		c := a[0]
		for i := range b {
			l.lits = append(l.lits, l.mux(c, b[i], args[2][i]))
		}
	case OpRedOr:
		r := l.f
		for _, x := range a {
			r = l.or(r, x)
		}
		l.lits = append(l.lits, r)
	case OpRedAnd:
		r := l.t
		for _, x := range a {
			r = l.and(r, x)
		}
		l.lits = append(l.lits, r)
	case OpRedXor:
		r := l.f
		for _, x := range a {
			r = l.xor(r, x)
		}
		l.lits = append(l.lits, r)
	default:
		panic(fmt.Sprintf("smt: lowering of %v", t.Op))
	}
	if n := len(l.lits) - start; n != t.Width {
		panic(fmt.Sprintf("smt: lowering width mismatch for %v: got %d want %d", t.Op, n, t.Width))
	}
	if len(l.lits) > math.MaxUint32 {
		panic("smt: more than 2^32 lowered literals")
	}
	l.bits[t] = uint32(start)
	return l.lits[start:len(l.lits):len(l.lits)]
}

// divRem implements restoring long division. For a zero divisor the
// quotient is all ones and the remainder equals the dividend, matching
// SMT-LIB.
func (l *Lowering) divRem(a, b []sat.Lit) (q, r []sat.Lit) {
	w := len(a)
	// Work with a w+1-bit remainder so (r<<1)|bit never overflows.
	rw := make([]sat.Lit, w+1)
	for i := range rw {
		rw[i] = l.f
	}
	bw := append(append([]sat.Lit{}, b...), l.f)
	q = make([]sat.Lit, w)
	for i := w - 1; i >= 0; i-- {
		// r = (r << 1) | a[i]
		shifted := make([]sat.Lit, w+1)
		shifted[0] = a[i]
		copy(shifted[1:], rw[:w])
		// ge = shifted >= b
		ge := l.ult(shifted, bw).Not()
		q[i] = ge
		// r = ge ? shifted - b : shifted
		nb := make([]sat.Lit, w+1)
		for j := range bw {
			nb[j] = bw[j].Not()
		}
		diff := l.add(shifted, nb, l.t)
		rw = make([]sat.Lit, w+1)
		for j := range rw {
			rw[j] = l.mux(ge, diff[j], shifted[j])
		}
	}
	return q, rw[:w]
}

// shift builds a barrel shifter that shifts a by amt.
func (l *Lowering) shift(op Op, a, amt []sat.Lit) []sat.Lit {
	w := len(a)
	cur := a
	fill := l.f
	if op == OpAshr {
		fill = a[w-1]
	}
	// Stages for amount bits that can produce in-range shifts.
	for stage := 0; stage < len(amt) && (1<<stage) < w; stage++ {
		d := 1 << stage
		next := make([]sat.Lit, w)
		for i := 0; i < w; i++ {
			var shifted sat.Lit
			switch op {
			case OpShl:
				if i-d >= 0 {
					shifted = cur[i-d]
				} else {
					shifted = l.f
				}
			default: // right shifts
				if i+d < w {
					shifted = cur[i+d]
				} else {
					shifted = fill
				}
			}
			next[i] = l.mux(amt[stage], shifted, cur[i])
		}
		cur = next
	}
	// If any amount bit >= log2 range is set, the result saturates.
	over := l.f
	for stage := 0; stage < len(amt); stage++ {
		if 1<<stage >= w || stage >= 31 {
			over = l.or(over, amt[stage])
		}
	}
	if over != l.f {
		out := make([]sat.Lit, w)
		for i := 0; i < w; i++ {
			out[i] = l.mux(over, fill, cur[i])
		}
		return out
	}
	return cur
}
