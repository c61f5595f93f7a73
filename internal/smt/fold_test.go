package smt

import (
	"testing"

	"rtlrepair/internal/bv"
	"rtlrepair/internal/sat"
)

// TestEdgeSemantics pins the three implementations of the term
// semantics — the Context constant folder, the bit-blaster, and the
// reference interpreter — to the bv package on the corners where
// bit-vector implementations usually disagree: shifts by amounts at or
// past the width, division and remainder by zero, and 1-bit arithmetic
// (where e.g. 1 is the most negative signed value).
func TestEdgeSemantics(t *testing.T) {
	bin := func(f func(*Context, *Term, *Term) *Term) func(*Context, *Term, *Term) *Term { return f }
	cases := []struct {
		name string
		w    int
		a, b uint64
		mk   func(*Context, *Term, *Term) *Term
		ref  func(a, b bv.BV) bv.BV
	}{
		{"shl-eq-width", 8, 0xAB, 8, bin((*Context).Shl), bv.BV.ShlBV},
		{"shl-gt-width", 8, 0xAB, 200, bin((*Context).Shl), bv.BV.ShlBV},
		{"shl-width-minus-1", 8, 0xAB, 7, bin((*Context).Shl), bv.BV.ShlBV},
		{"lshr-eq-width", 8, 0xFF, 8, bin((*Context).Lshr), bv.BV.LshrBV},
		{"lshr-gt-width", 8, 0xFF, 9, bin((*Context).Lshr), bv.BV.LshrBV},
		{"ashr-eq-width-neg", 8, 0x80, 8, bin((*Context).Ashr), bv.BV.AshrBV},
		{"ashr-gt-width-neg", 8, 0x80, 250, bin((*Context).Ashr), bv.BV.AshrBV},
		{"ashr-gt-width-pos", 8, 0x7F, 250, bin((*Context).Ashr), bv.BV.AshrBV},
		{"udiv-by-zero", 8, 0x5C, 0, bin((*Context).Udiv), bv.BV.Udiv},
		{"udiv-zero-by-zero", 8, 0, 0, bin((*Context).Udiv), bv.BV.Udiv},
		{"urem-by-zero", 8, 0x5C, 0, bin((*Context).Urem), bv.BV.Urem},
		{"udiv-by-one", 8, 0xC3, 1, bin((*Context).Udiv), bv.BV.Udiv},
		{"urem-self", 8, 0xC3, 0xC3, bin((*Context).Urem), bv.BV.Urem},
		{"add-1bit-carry", 1, 1, 1, bin((*Context).Add), bv.BV.Add},
		{"sub-1bit-borrow", 1, 0, 1, bin((*Context).Sub), bv.BV.Sub},
		{"mul-1bit", 1, 1, 1, bin((*Context).Mul), bv.BV.Mul},
		{"shl-1bit", 1, 1, 1, bin((*Context).Shl), bv.BV.ShlBV},
		{"ashr-1bit-neg", 1, 1, 1, bin((*Context).Ashr), bv.BV.AshrBV},
		{"neg-1bit", 1, 1, 0, func(c *Context, x, _ *Term) *Term { return c.Neg(x) },
			func(a, _ bv.BV) bv.BV { return a.Neg() }},
		{"slt-1bit", 1, 1, 0, bin((*Context).Slt),
			func(a, b bv.BV) bv.BV { return bv.FromBool(a.Slt(b)) }},
		{"slt-min-vs-max", 8, 0x80, 0x7F, bin((*Context).Slt),
			func(a, b bv.BV) bv.BV { return bv.FromBool(a.Slt(b)) }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			A, B := bv.New(tc.w, tc.a), bv.New(tc.w, tc.b)
			want := tc.ref(A, B)

			// 1. The constant folder must agree.
			ctx := NewContext()
			folded := tc.mk(ctx, ctx.Const(A), ctx.Const(B))
			if !folded.IsConst() || !folded.Val.Eq(want) {
				t.Fatalf("constant fold = %v, want %s", folded, want)
			}

			// 2. The reference interpreter must agree on the var form.
			x, y := ctx.Var("x", tc.w), ctx.Var("y", tc.w)
			term := tc.mk(ctx, x, y)
			env := func(v *Term) bv.BV {
				if v == x {
					return A
				}
				return B
			}
			if got := Eval(term, env); !got.Eq(want) {
				t.Fatalf("Eval = %s, want %s", got, want)
			}

			// 3. The bit-blaster must agree: with both operands pinned,
			// the term must equal `want` and must not be able to differ
			// from it.
			blaster := NewSolver(ctx)
			blaster.Assert(ctx.Eq(x, ctx.Const(A)))
			blaster.Assert(ctx.Eq(y, ctx.Const(B)))
			st, err := blaster.Check(ctx.Eq(term, ctx.Const(want)))
			if err != nil || st != sat.Sat {
				t.Fatalf("blasted == ref: %v %v", st, err)
			}
			if got := blaster.Value(term); !got.Eq(want) {
				t.Fatalf("blasted value = %s, want %s", got, want)
			}
			st, err = blaster.Check(ctx.Ne(term, ctx.Const(want)))
			if err != nil || st != sat.Unsat {
				t.Fatalf("blasted != ref must be unsat: %v %v", st, err)
			}

			// 4. Same query through the certifying pipeline: Unsat
			// DRUP-checked, models validated.
			cert := NewSolver(ctx)
			cert.EnableCertification()
			cert.Assert(ctx.Eq(x, ctx.Const(A)))
			cert.Assert(ctx.Eq(y, ctx.Const(B)))
			st, err = cert.Check(ctx.Ne(term, ctx.Const(want)))
			if err != nil || st != sat.Unsat {
				t.Fatalf("certified != ref must be unsat: %v %v", st, err)
			}
		})
	}
}
