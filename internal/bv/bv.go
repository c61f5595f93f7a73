// Package bv implements arbitrary-width two-state bit-vector values with
// the operations needed by the SMT layer, the simulators and the Verilog
// frontend. Widths are fixed per value; all operations follow SMT-LIB
// QF_BV semantics (modular arithmetic, unsigned by default).
package bv

import (
	"fmt"
	"strings"
)

// BV is an immutable bit-vector value of a fixed width. The zero value is
// the zero-width empty vector. Bits beyond Width are always kept zero
// (values are normalized on construction).
type BV struct {
	width int
	words []uint64
}

const wordBits = 64

func wordsFor(width int) int { return (width + wordBits - 1) / wordBits }

// New returns a bit-vector of the given width holding val truncated to width.
func New(width int, val uint64) BV {
	if width < 0 {
		panic("bv: negative width")
	}
	b := BV{width: width, words: make([]uint64, wordsFor(width))}
	if len(b.words) > 0 {
		b.words[0] = val
	}
	b.norm()
	return b
}

// Zero returns the all-zeros vector of the given width.
func Zero(width int) BV { return New(width, 0) }

// Ones returns the all-ones vector of the given width.
func Ones(width int) BV {
	b := New(width, 0)
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.norm()
	return b
}

// Mask returns the width-wide vector with ones in bits [lo, hi), built a
// word at a time. The range is clamped to [0, width]; an empty range
// gives zero.
func Mask(width, lo, hi int) BV {
	lo, hi = max(lo, 0), min(hi, width)
	b := Zero(width)
	for i := lo; i < hi; {
		n := min(hi-i, wordBits-i%wordBits) // bits left in this word
		b.words[i/wordBits] |= (^uint64(0) >> (wordBits - n)) << (uint(i) % wordBits)
		i += n
	}
	return b
}

// One returns the vector of the given width holding the value 1.
func One(width int) BV { return New(width, 1) }

// FromWords builds a bit-vector from little-endian 64-bit words.
func FromWords(width int, words []uint64) BV {
	b := BV{width: width, words: make([]uint64, wordsFor(width))}
	copy(b.words, words)
	b.norm()
	return b
}

// FromBool returns a 1-bit vector: 1 for true, 0 for false.
func FromBool(v bool) BV {
	if v {
		return New(1, 1)
	}
	return New(1, 0)
}

// FromBinary parses a string of '0'/'1' runes, most-significant bit first,
// into a bit-vector whose width equals the string length. Underscores are
// ignored.
func FromBinary(s string) (BV, error) {
	s = strings.ReplaceAll(s, "_", "")
	b := Zero(len(s))
	for i, r := range s {
		switch r {
		case '0':
		case '1':
			b = b.WithBit(len(s)-1-i, true)
		default:
			return BV{}, fmt.Errorf("bv: invalid binary digit %q", r)
		}
	}
	return b, nil
}

// norm clears bits above width in the top word.
func (b *BV) norm() {
	if b.width == 0 {
		b.words = nil
		return
	}
	rem := b.width % wordBits
	if rem != 0 {
		b.words[len(b.words)-1] &= (uint64(1) << rem) - 1
	}
}

// Width reports the width in bits.
func (b BV) Width() int { return b.width }

// Uint64 returns the low 64 bits of the value.
func (b BV) Uint64() uint64 {
	if len(b.words) == 0 {
		return 0
	}
	return b.words[0]
}

// IsZero reports whether every bit is zero.
func (b BV) IsZero() bool {
	for _, w := range b.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// IsOnes reports whether every bit is one.
func (b BV) IsOnes() bool { return b.Eq(Ones(b.width)) }

// Bit reports bit i (0 = least significant).
func (b BV) Bit(i int) bool {
	if i < 0 || i >= b.width {
		panic(fmt.Sprintf("bv: bit index %d out of range for width %d", i, b.width))
	}
	return b.words[i/wordBits]>>(uint(i)%wordBits)&1 == 1
}

// WithBit returns a copy of b with bit i set to v.
func (b BV) WithBit(i int, v bool) BV {
	if i < 0 || i >= b.width {
		panic(fmt.Sprintf("bv: bit index %d out of range for width %d", i, b.width))
	}
	out := b.clone()
	if v {
		out.words[i/wordBits] |= uint64(1) << (uint(i) % wordBits)
	} else {
		out.words[i/wordBits] &^= uint64(1) << (uint(i) % wordBits)
	}
	return out
}

func (b BV) clone() BV {
	out := BV{width: b.width, words: make([]uint64, len(b.words))}
	copy(out.words, b.words)
	return out
}

func (b BV) checkSameWidth(o BV, op string) {
	if b.width != o.width {
		panic(fmt.Sprintf("bv: %s width mismatch %d vs %d", op, b.width, o.width))
	}
}

// Eq reports value equality (requires equal widths).
func (b BV) Eq(o BV) bool {
	b.checkSameWidth(o, "eq")
	for i := range b.words {
		if b.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// Ult reports unsigned b < o.
func (b BV) Ult(o BV) bool {
	b.checkSameWidth(o, "ult")
	for i := len(b.words) - 1; i >= 0; i-- {
		if b.words[i] != o.words[i] {
			return b.words[i] < o.words[i]
		}
	}
	return false
}

// Slt reports signed b < o (two's complement).
func (b BV) Slt(o BV) bool {
	b.checkSameWidth(o, "slt")
	if b.width == 0 {
		return false
	}
	sb, so := b.Bit(b.width-1), o.Bit(o.width-1)
	if sb != so {
		return sb
	}
	return b.Ult(o)
}

// Not returns the bitwise complement.
func (b BV) Not() BV {
	out := b.clone()
	for i := range out.words {
		out.words[i] = ^out.words[i]
	}
	out.norm()
	return out
}

// And returns the bitwise AND.
func (b BV) And(o BV) BV {
	b.checkSameWidth(o, "and")
	out := b.clone()
	for i := range out.words {
		out.words[i] &= o.words[i]
	}
	return out
}

// Or returns the bitwise OR.
func (b BV) Or(o BV) BV {
	b.checkSameWidth(o, "or")
	out := b.clone()
	for i := range out.words {
		out.words[i] |= o.words[i]
	}
	return out
}

// Xor returns the bitwise XOR.
func (b BV) Xor(o BV) BV {
	b.checkSameWidth(o, "xor")
	out := b.clone()
	for i := range out.words {
		out.words[i] ^= o.words[i]
	}
	return out
}

// Add returns (b + o) mod 2^width.
func (b BV) Add(o BV) BV {
	b.checkSameWidth(o, "add")
	out := b.clone()
	var carry uint64
	for i := range out.words {
		s1 := out.words[i] + o.words[i]
		c1 := boolToU64(s1 < out.words[i])
		s2 := s1 + carry
		c2 := boolToU64(s2 < s1)
		out.words[i] = s2
		carry = c1 | c2
	}
	out.norm()
	return out
}

// Sub returns (b - o) mod 2^width.
func (b BV) Sub(o BV) BV { return b.Add(o.Neg()) }

// Neg returns the two's complement negation.
func (b BV) Neg() BV { return b.Not().Add(One(b.width)) }

// Mul returns (b * o) mod 2^width.
func (b BV) Mul(o BV) BV {
	b.checkSameWidth(o, "mul")
	out := Zero(b.width)
	acc := b
	for i := 0; i < o.width; i++ {
		if o.Bit(i) {
			out = out.Add(acc)
		}
		acc = acc.Shl(1)
	}
	return out
}

// Udiv returns unsigned division; division by zero yields all ones
// (SMT-LIB semantics).
func (b BV) Udiv(o BV) BV {
	q, _ := b.udivRem(o)
	return q
}

// Urem returns the unsigned remainder; remainder by zero yields b.
func (b BV) Urem(o BV) BV {
	_, r := b.udivRem(o)
	return r
}

func (b BV) udivRem(o BV) (q, r BV) {
	b.checkSameWidth(o, "udiv")
	if o.IsZero() {
		return Ones(b.width), b
	}
	q = Zero(b.width)
	r = Zero(b.width)
	for i := b.width - 1; i >= 0; i-- {
		r = r.Shl(1)
		if b.Bit(i) {
			r = r.WithBit(0, true)
		}
		if !r.Ult(o) {
			r = r.Sub(o)
			q = q.WithBit(i, true)
		}
	}
	return q, r
}

// Shl returns b shifted left by n bits (zeros shifted in).
func (b BV) Shl(n int) BV {
	if n < 0 {
		panic("bv: negative shift")
	}
	if n >= b.width {
		return Zero(b.width)
	}
	out := Zero(b.width)
	wordShift, bitShift := n/wordBits, uint(n%wordBits)
	for i := len(out.words) - 1; i >= wordShift; i-- {
		w := b.words[i-wordShift] << bitShift
		if bitShift > 0 && i-wordShift-1 >= 0 {
			w |= b.words[i-wordShift-1] >> (wordBits - bitShift)
		}
		out.words[i] = w
	}
	out.norm()
	return out
}

// Lshr returns b logically shifted right by n bits.
func (b BV) Lshr(n int) BV {
	if n < 0 {
		panic("bv: negative shift")
	}
	if n >= b.width {
		return Zero(b.width)
	}
	out := Zero(b.width)
	wordShift, bitShift := n/wordBits, uint(n%wordBits)
	for i := 0; i+wordShift < len(b.words); i++ {
		w := b.words[i+wordShift] >> bitShift
		if bitShift > 0 && i+wordShift+1 < len(b.words) {
			w |= b.words[i+wordShift+1] << (wordBits - bitShift)
		}
		out.words[i] = w
	}
	out.norm()
	return out
}

// Ashr returns b arithmetically shifted right by n bits.
func (b BV) Ashr(n int) BV {
	if b.width == 0 || !b.Bit(b.width-1) {
		return b.Lshr(n)
	}
	if n >= b.width {
		return Ones(b.width)
	}
	out := b.Lshr(n)
	for i := b.width - n; i < b.width; i++ {
		out = out.WithBit(i, true)
	}
	return out
}

// ShlBV shifts left by an amount given as a bit-vector (Verilog semantics:
// amounts >= width yield zero).
func (b BV) ShlBV(amt BV) BV {
	n, ok := amt.toShift(b.width)
	if !ok {
		return Zero(b.width)
	}
	return b.Shl(n)
}

// LshrBV shifts logically right by a bit-vector amount.
func (b BV) LshrBV(amt BV) BV {
	n, ok := amt.toShift(b.width)
	if !ok {
		return Zero(b.width)
	}
	return b.Lshr(n)
}

// AshrBV shifts arithmetically right by a bit-vector amount.
func (b BV) AshrBV(amt BV) BV {
	n, ok := amt.toShift(b.width)
	if !ok {
		if b.width > 0 && b.Bit(b.width-1) {
			return Ones(b.width)
		}
		return Zero(b.width)
	}
	return b.Ashr(n)
}

// toShift converts amt to a shift count; ok is false when amt >= limit.
func (amt BV) toShift(limit int) (int, bool) {
	for i := 1; i < len(amt.words); i++ {
		if amt.words[i] != 0 {
			return 0, false
		}
	}
	v := amt.Uint64()
	if v >= uint64(limit) {
		return 0, false
	}
	return int(v), true
}

// Concat returns {b, o}: b occupies the most-significant bits.
func (b BV) Concat(o BV) BV {
	out := Zero(b.width + o.width)
	for i := 0; i < o.width; i++ {
		if o.Bit(i) {
			out = out.WithBit(i, true)
		}
	}
	for i := 0; i < b.width; i++ {
		if b.Bit(i) {
			out = out.WithBit(o.width+i, true)
		}
	}
	return out
}

// Extract returns bits [hi:lo] inclusive as a new vector of width hi-lo+1.
func (b BV) Extract(hi, lo int) BV {
	if lo < 0 || hi < lo || hi >= b.width {
		panic(fmt.Sprintf("bv: extract [%d:%d] out of range for width %d", hi, lo, b.width))
	}
	out := Zero(hi - lo + 1)
	for i := lo; i <= hi; i++ {
		if b.Bit(i) {
			out = out.WithBit(i-lo, true)
		}
	}
	return out
}

// ZeroExt returns b zero-extended to the given width (>= current width).
func (b BV) ZeroExt(width int) BV {
	if width < b.width {
		panic("bv: zero-extension narrower than value")
	}
	out := Zero(width)
	copy(out.words, b.words)
	out.norm()
	return out
}

// SignExt returns b sign-extended to the given width.
func (b BV) SignExt(width int) BV {
	out := b.ZeroExt(width)
	if b.width > 0 && b.Bit(b.width-1) {
		for i := b.width; i < width; i++ {
			out = out.WithBit(i, true)
		}
	}
	return out
}

// Resize truncates or zero-extends to the given width.
func (b BV) Resize(width int) BV {
	if width == b.width {
		return b
	}
	if width > b.width {
		return b.ZeroExt(width)
	}
	return b.Extract(width-1, 0)
}

// ReduceOr returns the 1-bit OR of all bits.
func (b BV) ReduceOr() BV { return FromBool(!b.IsZero()) }

// ReduceAnd returns the 1-bit AND of all bits.
func (b BV) ReduceAnd() BV { return FromBool(b.width > 0 && b.IsOnes()) }

// ReduceXor returns the 1-bit XOR (parity) of all bits.
func (b BV) ReduceXor() BV {
	var p uint64
	for _, w := range b.words {
		p ^= w
	}
	p ^= p >> 32
	p ^= p >> 16
	p ^= p >> 8
	p ^= p >> 4
	p ^= p >> 2
	p ^= p >> 1
	return FromBool(p&1 == 1)
}

// PopCount returns the number of set bits.
func (b BV) PopCount() int {
	n := 0
	for i := 0; i < b.width; i++ {
		if b.Bit(i) {
			n++
		}
	}
	return n
}

// String formats the value as width'bBITS for narrow values and width'hHEX
// for wide ones.
func (b BV) String() string {
	if b.width <= 16 {
		return fmt.Sprintf("%d'b%s", b.width, b.BinaryString())
	}
	return fmt.Sprintf("%d'h%s", b.width, b.HexString())
}

// BinaryString returns the bits most-significant first.
func (b BV) BinaryString() string {
	if b.width == 0 {
		return ""
	}
	var sb strings.Builder
	for i := b.width - 1; i >= 0; i-- {
		if b.Bit(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// HexString returns a hex rendering, most significant digit first.
func (b BV) HexString() string {
	digits := (b.width + 3) / 4
	if digits == 0 {
		return "0"
	}
	var sb strings.Builder
	for i := digits - 1; i >= 0; i-- {
		var d uint64
		for j := 3; j >= 0; j-- {
			bit := i*4 + j
			d <<= 1
			if bit < b.width && b.Bit(bit) {
				d |= 1
			}
		}
		fmt.Fprintf(&sb, "%x", d)
	}
	return sb.String()
}

func boolToU64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
