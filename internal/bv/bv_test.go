package bv

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewTruncates(t *testing.T) {
	b := New(4, 0x1f)
	if got := b.Uint64(); got != 0xf {
		t.Fatalf("New(4,0x1f) = %#x, want 0xf", got)
	}
}

func TestBitAndWithBit(t *testing.T) {
	b := Zero(130)
	b = b.WithBit(0, true).WithBit(64, true).WithBit(129, true)
	for i := 0; i < 130; i++ {
		want := i == 0 || i == 64 || i == 129
		if b.Bit(i) != want {
			t.Fatalf("bit %d = %v, want %v", i, b.Bit(i), want)
		}
	}
	b = b.WithBit(64, false)
	if b.Bit(64) {
		t.Fatal("bit 64 should be cleared")
	}
}

func TestAddCarriesAcrossWords(t *testing.T) {
	a := Ones(128)
	b := One(128)
	sum := a.Add(b)
	if !sum.IsZero() {
		t.Fatalf("all-ones + 1 = %v, want 0", sum)
	}
}

func TestArith8BitExhaustiveAgainstUint(t *testing.T) {
	for a := 0; a < 256; a += 7 {
		for b := 0; b < 256; b += 5 {
			av, bvv := New(8, uint64(a)), New(8, uint64(b))
			if got, want := av.Add(bvv).Uint64(), uint64((a+b)&0xff); got != want {
				t.Fatalf("%d+%d = %d, want %d", a, b, got, want)
			}
			if got, want := av.Sub(bvv).Uint64(), uint64((a-b)&0xff); got != want {
				t.Fatalf("%d-%d = %d, want %d", a, b, got, want)
			}
			if got, want := av.Mul(bvv).Uint64(), uint64((a*b)&0xff); got != want {
				t.Fatalf("%d*%d = %d, want %d", a, b, got, want)
			}
			if b != 0 {
				if got, want := av.Udiv(bvv).Uint64(), uint64(a/b); got != want {
					t.Fatalf("%d/%d = %d, want %d", a, b, got, want)
				}
				if got, want := av.Urem(bvv).Uint64(), uint64(a%b); got != want {
					t.Fatalf("%d%%%d = %d, want %d", a, b, got, want)
				}
			}
			if got, want := av.Ult(bvv), a < b; got != want {
				t.Fatalf("%d<%d = %v, want %v", a, b, got, want)
			}
			if got, want := av.Slt(bvv), int8(a) < int8(b); got != want {
				t.Fatalf("slt(%d,%d) = %v, want %v", a, b, got, want)
			}
		}
	}
}

func TestDivByZeroSMTSemantics(t *testing.T) {
	a := New(8, 42)
	if got := a.Udiv(Zero(8)); !got.IsOnes() {
		t.Fatalf("42/0 = %v, want all-ones", got)
	}
	if got := a.Urem(Zero(8)); got.Uint64() != 42 {
		t.Fatalf("42%%0 = %v, want 42", got)
	}
}

func TestShifts(t *testing.T) {
	b := New(16, 0x00f1)
	if got := b.Shl(4).Uint64(); got != 0x0f10 {
		t.Fatalf("shl = %#x", got)
	}
	if got := b.Lshr(4).Uint64(); got != 0x000f {
		t.Fatalf("lshr = %#x", got)
	}
	neg := New(8, 0x80)
	if got := neg.Ashr(3).Uint64(); got != 0xf0 {
		t.Fatalf("ashr = %#x", got)
	}
	if got := b.Shl(16); !got.IsZero() {
		t.Fatalf("overshift shl = %v, want 0", got)
	}
	if got := neg.AshrBV(New(8, 200)); !got.IsOnes() {
		t.Fatalf("negative overshift ashr = %v, want ones", got)
	}
}

func TestShiftAcrossWordBoundary(t *testing.T) {
	b := One(128)
	s := b.Shl(100)
	if !s.Bit(100) || s.PopCount() != 1 {
		t.Fatalf("shl 100 wrong: %v", s)
	}
	back := s.Lshr(100)
	if !back.Eq(One(128)) {
		t.Fatalf("lshr roundtrip wrong: %v", back)
	}
}

func TestConcatExtract(t *testing.T) {
	hi := New(4, 0xa)
	lo := New(4, 0x5)
	c := hi.Concat(lo)
	if c.Width() != 8 || c.Uint64() != 0xa5 {
		t.Fatalf("concat = %v", c)
	}
	if got := c.Extract(7, 4).Uint64(); got != 0xa {
		t.Fatalf("extract hi = %#x", got)
	}
	if got := c.Extract(3, 0).Uint64(); got != 0x5 {
		t.Fatalf("extract lo = %#x", got)
	}
}

func TestExtensions(t *testing.T) {
	b := New(4, 0x9) // 1001
	if got := b.ZeroExt(8).Uint64(); got != 0x09 {
		t.Fatalf("zext = %#x", got)
	}
	if got := b.SignExt(8).Uint64(); got != 0xf9 {
		t.Fatalf("sext = %#x", got)
	}
	if got := New(4, 0x7).SignExt(8).Uint64(); got != 0x07 {
		t.Fatalf("positive sext = %#x", got)
	}
}

func TestReductions(t *testing.T) {
	if got := New(4, 0).ReduceOr(); got.Uint64() != 0 {
		t.Fatalf("reduceOr(0) = %v", got)
	}
	if got := New(4, 2).ReduceOr(); got.Uint64() != 1 {
		t.Fatalf("reduceOr(2) = %v", got)
	}
	if got := Ones(4).ReduceAnd(); got.Uint64() != 1 {
		t.Fatalf("reduceAnd(ones) = %v", got)
	}
	if got := New(4, 7).ReduceXor(); got.Uint64() != 1 {
		t.Fatalf("reduceXor(7) = %v", got)
	}
	if got := New(4, 5).ReduceXor(); got.Uint64() != 0 {
		t.Fatalf("reduceXor(5) = %v", got)
	}
}

func TestStrings(t *testing.T) {
	b := New(4, 0xa)
	if got := b.BinaryString(); got != "1010" {
		t.Fatalf("binary = %q", got)
	}
	if got := New(20, 0xabcde).HexString(); got != "abcde" {
		t.Fatalf("hex = %q", got)
	}
	p, err := FromBinary("1010_0101")
	if err != nil || p.Uint64() != 0xa5 || p.Width() != 8 {
		t.Fatalf("FromBinary = %v, %v", p, err)
	}
}

func TestPropertyAddCommutes(t *testing.T) {
	f := func(a, b uint64) bool {
		x, y := New(64, a), New(64, b)
		return x.Add(y).Eq(y.Add(x)) && x.Add(y).Uint64() == a+b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyNegIsSubFromZero(t *testing.T) {
	f := func(a uint64) bool {
		x := New(37, a)
		return x.Neg().Eq(Zero(37).Sub(x))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyConcatExtractRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		wHi := 1 + rng.Intn(70)
		wLo := 1 + rng.Intn(70)
		hi := FromWords(wHi, []uint64{rng.Uint64(), rng.Uint64()})
		lo := FromWords(wLo, []uint64{rng.Uint64(), rng.Uint64()})
		c := hi.Concat(lo)
		if !c.Extract(wHi+wLo-1, wLo).Eq(hi) || !c.Extract(wLo-1, 0).Eq(lo) {
			t.Fatalf("roundtrip failed wHi=%d wLo=%d", wHi, wLo)
		}
	}
}

func TestPropertyDivRemIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		a := New(32, uint64(rng.Uint32()))
		b := New(32, uint64(rng.Uint32()%1000+1))
		q, r := a.Udiv(b), a.Urem(b)
		if !q.Mul(b).Add(r).Eq(a) {
			t.Fatalf("q*b+r != a for %v / %v", a, b)
		}
		if !r.Ult(b) {
			t.Fatalf("r >= b for %v %% %v", a, b)
		}
	}
}

func TestXBVLogicPrecision(t *testing.T) {
	x := X(1)
	zero, one := KU(1, 0), KU(1, 1)
	if got := x.And(zero); !got.SameAs(zero) {
		t.Fatalf("X & 0 = %v, want 0", got)
	}
	if got := x.And(one); !got.HasUnknown() {
		t.Fatalf("X & 1 = %v, want X", got)
	}
	if got := x.Or(one); !got.SameAs(one) {
		t.Fatalf("X | 1 = %v, want 1", got)
	}
	if got := x.Or(zero); !got.HasUnknown() {
		t.Fatalf("X | 0 = %v, want X", got)
	}
	if got := x.Xor(one); !got.HasUnknown() {
		t.Fatalf("X ^ 1 = %v, want X", got)
	}
	if got := x.Not(); !got.HasUnknown() {
		t.Fatalf("~X = %v, want X", got)
	}
}

func TestXBVArithPoisons(t *testing.T) {
	a := XBV{Val: New(4, 3), Known: New(4, 0x7)} // top bit unknown
	b := KU(4, 1)
	if got := a.Add(b); got.IsFullyKnown() {
		t.Fatalf("X-poisoned add should be unknown, got %v", got)
	}
}

func TestXBVEq(t *testing.T) {
	a := XBV{Val: New(4, 0x0), Known: New(4, 0x3)} // 4'bxx00
	b := KU(4, 0x5)                                // 4'b0101
	if got := a.EqX(b); got.HasUnknown() || got.Val.Uint64() != 0 {
		t.Fatalf("xx00 == 0101 should be known 0, got %v", got)
	}
	if got := a.EqX(KU(4, 0x4)); !got.HasUnknown() {
		t.Fatalf("xx00 == 0100 should be X, got %v", got)
	}
	c := KU(4, 0x0)
	if got := a.EqX(c); !got.HasUnknown() {
		t.Fatalf("xx00 == 0000 should be X, got %v", got)
	}
	if got := b.EqX(b); got.Val.Uint64() != 1 {
		t.Fatalf("b == b should be 1, got %v", got)
	}
}

func TestXBVParseAndString(t *testing.T) {
	x, err := ParseX("1x0")
	if err != nil {
		t.Fatal(err)
	}
	if got := x.String(); got != "3'b1x0" {
		t.Fatalf("String = %q", got)
	}
	if x.Truthy() != true {
		t.Fatal("1x0 should be truthy (has a known 1)")
	}
	y, _ := ParseX("xx")
	if y.Truthy() {
		t.Fatal("xx should not be truthy")
	}
}

func TestXBVResolve(t *testing.T) {
	x, _ := ParseX("1x0x")
	fill := New(4, 0xf)
	if got := x.Resolve(fill); got.Uint64() != 0xd {
		t.Fatalf("resolve = %#x, want 0xd", got.Uint64())
	}
}

func TestMatchesKnown(t *testing.T) {
	exp, _ := ParseX("1x") // expect MSB=1, LSB don't care
	if !MatchesKnown(exp, New(2, 0b10)) || !MatchesKnown(exp, New(2, 0b11)) {
		t.Fatal("should match both completions")
	}
	if MatchesKnown(exp, New(2, 0b01)) {
		t.Fatal("should not match 01")
	}
}

func TestXBVConcatExtract(t *testing.T) {
	a, _ := ParseX("1x")
	b, _ := ParseX("0x1")
	c := a.Concat(b)
	if got := c.String(); got != "5'b1x0x1" {
		t.Fatalf("concat = %q", got)
	}
	if got := c.Extract(2, 0).String(); got != "3'b0x1" {
		t.Fatalf("extract = %q", got)
	}
}

// bitMask is the bit-loop definition of Mask.
func bitMask(width, lo, hi int) BV {
	m := Zero(width)
	for i := max(lo, 0); i < min(hi, width); i++ {
		m = m.WithBit(i, true)
	}
	return m
}

func TestMaskMatchesBitLoop(t *testing.T) {
	for w := 0; w <= 300; w++ {
		for from := 0; from <= w+1; from++ {
			if got, want := highMask(w, from), bitMask(w, from, w); !got.Eq(want) {
				t.Fatalf("highMask(%d, %d) = %v, want %v", w, from, got, want)
			}
			if got, want := Mask(w, 0, from), bitMask(w, 0, from); !got.Eq(want) {
				t.Fatalf("Mask(%d, 0, %d) = %v, want %v", w, from, got, want)
			}
		}
	}
	if !Mask(70, 40, 10).IsZero() || !Mask(70, -5, 0).IsZero() {
		t.Fatal("empty range must give zero")
	}
}

func TestXWordAndMatchesX(t *testing.T) {
	x := XWord(4, 0xff, 0x0c)
	if x.Width() != 4 || x.Val.Uint64() != 0xf || x.Known.Uint64() != 0xc {
		t.Fatalf("XWord = %v / %v", x.Val, x.Known)
	}
	if XWord(0, 1, 1).Width() != 0 {
		t.Fatal("XWord(0) width")
	}
	exp, _ := ParseX("1x0x")
	for _, tc := range []struct {
		got  string
		want bool
	}{{"1x0x", true}, {"1101", true}, {"x10x", false}, {"0x0x", false}, {"1x1x", false}} {
		got, _ := ParseX(tc.got)
		if MatchesX(exp, got) != tc.want {
			t.Errorf("MatchesX(%v, %v) = %v", exp, got, !tc.want)
		}
	}
}
