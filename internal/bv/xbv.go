package bv

import (
	"fmt"
	"strings"
)

// XBV is a 4-state bit-vector as used by Verilog simulation: each bit is
// 0, 1 or X (unknown). Z is folded into X — the tool, like the paper's,
// does not support tri-state buses. A bit is known iff the corresponding
// bit in Known is 1; unknown bits always carry a zero Val bit so that XBV
// values compare structurally.
type XBV struct {
	Val   BV
	Known BV
}

// XWord builds a 4-state value of at most 64 bits from its value and
// known words, with one allocation shared by both halves. Bits at and
// above width are cleared.
func XWord(width int, val, known uint64) XBV {
	if width > wordBits {
		panic(fmt.Sprintf("bv: XWord width %d exceeds one word", width))
	}
	if width == 0 {
		return X(0)
	}
	m := ^uint64(0) >> (wordBits - width)
	w := []uint64{val & m, known & m}
	return XBV{Val: BV{width: width, words: w[0:1:1]}, Known: BV{width: width, words: w[1:2:2]}}
}

// X returns an all-unknown value of the given width.
func X(width int) XBV { return XBV{Val: Zero(width), Known: Zero(width)} }

// K wraps a fully-known two-state value.
func K(v BV) XBV { return XBV{Val: v, Known: Ones(v.Width())} }

// KU is shorthand for a fully-known value built from a uint64.
func KU(width int, v uint64) XBV { return K(New(width, v)) }

// Width reports the width in bits.
func (x XBV) Width() int { return x.Val.Width() }

// IsFullyKnown reports whether no bit is X.
func (x XBV) IsFullyKnown() bool { return x.Known.IsOnes() || x.Width() == 0 }

// HasUnknown reports whether any bit is X.
func (x XBV) HasUnknown() bool { return !x.IsFullyKnown() }

// normalize zeroes value bits that are unknown so equal abstract values
// are structurally equal.
func (x XBV) normalize() XBV {
	x.Val = x.Val.And(x.Known)
	return x
}

// SameAs reports structural equality (same knowns, same known bits).
func (x XBV) SameAs(o XBV) bool {
	x = x.normalize()
	o = o.normalize()
	return x.Val.Eq(o.Val) && x.Known.Eq(o.Known)
}

// Resolve returns the two-state value with unknown bits replaced by the
// bits of fill.
func (x XBV) Resolve(fill BV) BV {
	return x.Val.And(x.Known).Or(fill.And(x.Known.Not()))
}

// MatchesKnown reports whether the known bits of the expectation exp agree
// with the (fully known) actual value. Unknown bits in exp are don't-cares.
func MatchesKnown(exp XBV, actual BV) bool {
	return exp.Val.And(exp.Known).Eq(actual.And(exp.Known))
}

// MatchesX reports whether got is known and equal to exp on every bit
// exp knows. Both must have the same width. It does not allocate.
func MatchesX(exp, got XBV) bool {
	exp.Known.checkSameWidth(got.Known, "matchesx")
	for i, c := range exp.Known.words {
		if got.Known.words[i]&c != c || (exp.Val.words[i]^got.Val.words[i])&c != 0 {
			return false
		}
	}
	return true
}

// Not returns the 4-state complement: known bits invert, X stays X.
func (x XBV) Not() XBV {
	return XBV{Val: x.Val.Not().And(x.Known), Known: x.Known}
}

// And implements 4-state AND: 0 & anything = 0, X otherwise when unknown.
func (x XBV) And(o XBV) XBV {
	// A result bit is known if both inputs are known, or either input is a known 0.
	zeroX := x.Known.And(x.Val.Not())
	zeroO := o.Known.And(o.Val.Not())
	known := x.Known.And(o.Known).Or(zeroX).Or(zeroO)
	val := x.Val.And(o.Val)
	return XBV{Val: val.And(known), Known: known}
}

// Or implements 4-state OR: 1 | anything = 1.
func (x XBV) Or(o XBV) XBV {
	oneX := x.Known.And(x.Val)
	oneO := o.Known.And(o.Val)
	known := x.Known.And(o.Known).Or(oneX).Or(oneO)
	val := x.Val.Or(o.Val)
	return XBV{Val: val.And(known), Known: known}
}

// Xor implements 4-state XOR: any X input makes the bit X.
func (x XBV) Xor(o XBV) XBV {
	known := x.Known.And(o.Known)
	return XBV{Val: x.Val.Xor(o.Val).And(known), Known: known}
}

// lift2 applies a two-state operation, producing all-X when either operand
// has an unknown bit (conservative arithmetic X-propagation, as in most
// simulators).
func lift2(a, b XBV, width int, f func(BV, BV) BV) XBV {
	if a.HasUnknown() || b.HasUnknown() {
		return X(width)
	}
	return K(f(a.Val, b.Val))
}

// Add returns the 4-state sum (X-poisoning).
func (x XBV) Add(o XBV) XBV { return lift2(x, o, x.Width(), BV.Add) }

// Sub returns the 4-state difference (X-poisoning).
func (x XBV) Sub(o XBV) XBV { return lift2(x, o, x.Width(), BV.Sub) }

// Mul returns the 4-state product (X-poisoning).
func (x XBV) Mul(o XBV) XBV { return lift2(x, o, x.Width(), BV.Mul) }

// Udiv returns the 4-state quotient (X-poisoning).
func (x XBV) Udiv(o XBV) XBV { return lift2(x, o, x.Width(), BV.Udiv) }

// Urem returns the 4-state remainder (X-poisoning).
func (x XBV) Urem(o XBV) XBV { return lift2(x, o, x.Width(), BV.Urem) }

// EqX returns the 1-bit 4-state equality: X if the comparison cannot be
// decided from the known bits, as in Verilog's == operator.
func (x XBV) EqX(o XBV) XBV {
	// If any known bit pair differs, the result is a known 0.
	both := x.Known.And(o.Known)
	if !x.Val.And(both).Eq(o.Val.And(both)) {
		return KU(1, 0)
	}
	if x.IsFullyKnown() && o.IsFullyKnown() {
		return KU(1, 1)
	}
	return X(1)
}

// UltX returns the 1-bit 4-state unsigned less-than (X-poisoning).
func (x XBV) UltX(o XBV) XBV {
	if x.HasUnknown() || o.HasUnknown() {
		return X(1)
	}
	return K(FromBool(x.Val.Ult(o.Val)))
}

// Concat returns {x, o} with per-bit known tracking.
func (x XBV) Concat(o XBV) XBV {
	return XBV{Val: x.Val.Concat(o.Val), Known: x.Known.Concat(o.Known)}
}

// Extract returns bits [hi:lo] with per-bit known tracking.
func (x XBV) Extract(hi, lo int) XBV {
	return XBV{Val: x.Val.Extract(hi, lo), Known: x.Known.Extract(hi, lo)}
}

// ZeroExt widens with known zero bits.
func (x XBV) ZeroExt(width int) XBV {
	return XBV{Val: x.Val.ZeroExt(width), Known: x.Known.ZeroExt(width).Or(highMask(width, x.Width()))}
}

// Resize truncates or zero-extends.
func (x XBV) Resize(width int) XBV {
	if width <= x.Width() {
		if width == x.Width() {
			return x
		}
		return x.Extract(width-1, 0)
	}
	return x.ZeroExt(width)
}

// highMask returns a width-wide mask with ones above bit from.
func highMask(width, from int) BV { return Mask(width, from, width) }

// ReduceOr returns 1 if any known 1 bit, 0 if all bits known 0, else X.
func (x XBV) ReduceOr() XBV {
	if !x.Val.And(x.Known).IsZero() {
		return KU(1, 1)
	}
	if x.IsFullyKnown() {
		return KU(1, 0)
	}
	return X(1)
}

// Truthy reports Verilog condition semantics: an X/0 condition selects the
// else branch, only a known non-zero value is true.
func (x XBV) Truthy() bool { return !x.Val.And(x.Known).IsZero() }

// String renders bits MSB-first with 'x' for unknown bits.
func (x XBV) String() string {
	if x.Width() == 0 {
		return "0'b"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d'b", x.Width())
	for i := x.Width() - 1; i >= 0; i-- {
		switch {
		case !x.Known.Bit(i):
			sb.WriteByte('x')
		case x.Val.Bit(i):
			sb.WriteByte('1')
		default:
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// ParseX parses a MSB-first string of 0/1/x/X/_ runes into an XBV whose
// width is the number of digits.
func ParseX(s string) (XBV, error) {
	s = strings.ReplaceAll(s, "_", "")
	w := len(s)
	x := X(w)
	for i, r := range s {
		bit := w - 1 - i
		switch r {
		case '0':
			x.Known = x.Known.WithBit(bit, true)
		case '1':
			x.Known = x.Known.WithBit(bit, true)
			x.Val = x.Val.WithBit(bit, true)
		case 'x', 'X', 'z', 'Z', '?':
		default:
			return XBV{}, fmt.Errorf("bv: invalid 4-state digit %q", r)
		}
	}
	return x, nil
}
