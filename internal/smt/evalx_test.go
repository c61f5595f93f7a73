package smt

import (
	"math/rand"
	"testing"

	"rtlrepair/internal/bv"
)

// TestEvalXMatchesEvalOnKnownInputs: with fully-known variable values the
// 4-state evaluator must agree exactly with the 2-state evaluator on
// random terms.
func TestEvalXMatchesEvalOnKnownInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 300; iter++ {
		c := NewContext()
		w := 1 + rng.Intn(10)
		vars := []*Term{c.Var("a", w), c.Var("b", w), c.Var("d", w)}
		term := randTerm(c, rng, vars, 4)
		env := map[*Term]bv.BV{}
		for _, v := range vars {
			env[v] = bv.New(w, rng.Uint64())
		}
		want := Eval(term, func(v *Term) bv.BV { return env[v] })
		got := EvalX(term, func(v *Term) bv.XBV { return bv.K(env[v]) })
		if !got.IsFullyKnown() {
			t.Fatalf("iter %d: fully-known inputs produced X: %v for %v", iter, got, term)
		}
		if !got.Val.Eq(want) {
			t.Fatalf("iter %d: EvalX %v != Eval %v for %v", iter, got.Val, want, term)
		}
	}
}

// TestEvalXSoundness: every completion of the unknown bits must be
// consistent with the 4-state result (bits EvalX claims known must have
// that value for all completions of the inputs).
func TestEvalXSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for iter := 0; iter < 200; iter++ {
		c := NewContext()
		w := 1 + rng.Intn(5) // small width: exhaustive completions
		vars := []*Term{c.Var("a", w), c.Var("b", w)}
		term := randTerm(c, rng, vars, 3)

		// Random partially-known inputs.
		envX := map[*Term]bv.XBV{}
		for _, v := range vars {
			envX[v] = bv.XBV{
				Val:   bv.New(w, rng.Uint64()),
				Known: bv.New(w, rng.Uint64()),
			}.Resize(w)
			// normalize val to known bits
			x := envX[v]
			envX[v] = bv.XBV{Val: x.Val.And(x.Known), Known: x.Known}
		}
		approx := EvalX(term, func(v *Term) bv.XBV { return envX[v] })

		// Enumerate a sample of completions and check consistency.
		for trial := 0; trial < 16; trial++ {
			env := map[*Term]bv.BV{}
			for _, v := range vars {
				fill := bv.New(w, rng.Uint64())
				env[v] = envX[v].Resolve(fill)
			}
			exact := Eval(term, func(v *Term) bv.BV { return env[v] })
			// Every bit approx claims to know must match.
			mask := approx.Known
			if !exact.And(mask).Eq(approx.Val.And(mask)) {
				t.Fatalf("iter %d: EvalX unsound: claims %v (known %v), completion gives %v for %v",
					iter, approx.Val, approx.Known, exact, term)
			}
		}
	}
}

// TestEvalXLogicPrecision: X-propagation through logic gates keeps
// controlled bits known.
func TestEvalXLogicPrecision(t *testing.T) {
	c := NewContext()
	a := c.Var("a", 4)
	b := c.Var("b", 4)
	envX := func(v *Term) bv.XBV {
		if v == a {
			return bv.KU(4, 0b0011)
		}
		return bv.X(4)
	}
	// a & b: bits where a=0 are known 0.
	got := EvalX(c.And(a, b), envX)
	if !got.Known.Eq(bv.New(4, 0b1100)) || !got.Val.IsZero() {
		t.Fatalf("a&b = %v, want xx00 with high bits known 0", got)
	}
	// a | b: bits where a=1 are known 1.
	got = EvalX(c.Or(a, b), envX)
	if !got.Known.Eq(bv.New(4, 0b0011)) || !got.Val.Eq(bv.New(4, 0b0011)) {
		t.Fatalf("a|b = %v", got)
	}
	// ITE with unknown condition merges branches.
	got = EvalX(c.Ite(c.Extract(b, 0, 0), a, a), envX)
	if !got.IsFullyKnown() {
		t.Fatalf("ite(x, a, a) should be a: %v", got)
	}
}

// TestEvalXIteMerge: an unknown condition keeps agreeing bits.
func TestEvalXIteMerge(t *testing.T) {
	c := NewContext()
	cond := c.Var("c", 1)
	envX := func(v *Term) bv.XBV { return bv.X(1) }
	t1 := c.ConstU(4, 0b1010)
	t2 := c.ConstU(4, 0b1001)
	got := EvalX(c.Ite(cond, t1, t2), envX)
	// Bits 3 (1=1) and 2 (0=0) agree; bits 1,0 differ.
	if !got.Known.Eq(bv.New(4, 0b1100)) {
		t.Fatalf("merge known = %v, want 1100", got.Known)
	}
	if !got.Val.Eq(bv.New(4, 0b1000)) {
		t.Fatalf("merge val = %v", got.Val)
	}
}

// TestShiftMasksMatchBitLoop pins the word-at-a-time shift-fill masks to
// their bit-loop definition: the low 64 bits of the amount, capped at
// the width, and nothing for an amount whose low word is 2^63 or more
// (it converts to a negative count).
func TestShiftMasksMatchBitLoop(t *testing.T) {
	loop := func(width int, amt bv.BV, high bool) bv.BV {
		n := int(amt.Uint64())
		if n > width {
			n = width
		}
		m := bv.Zero(width)
		for i := 0; i < n; i++ {
			if high {
				m = m.WithBit(width-1-i, true)
			} else {
				m = m.WithBit(i, true)
			}
		}
		return m
	}
	for w := 0; w <= 300; w++ {
		var amts []bv.BV
		aw := max(w, 65)
		for a := 0; a <= w+1; a++ {
			amts = append(amts, bv.New(aw, uint64(a)))
		}
		amts = append(amts,
			bv.New(aw, 1<<63), bv.New(aw, 1<<63+uint64(w)), bv.Ones(aw), // negative counts
			bv.FromWords(aw, []uint64{2, 1})) // only the low word counts
		for _, amt := range amts {
			if got, want := lowKnown(w, amt), loop(w, amt, false); !got.Eq(want) {
				t.Fatalf("lowKnown(%d, %v) = %v, want %v", w, amt, got, want)
			}
			if got, want := highKnown(w, amt), loop(w, amt, true); !got.Eq(want) {
				t.Fatalf("highKnown(%d, %v) = %v, want %v", w, amt, got, want)
			}
		}
	}
}
