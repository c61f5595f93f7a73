package smt

import (
	"testing"

	"rtlrepair/internal/bv"
	"rtlrepair/internal/sat"
)

// fuzzWidth keeps blasted instances small: multiplication and division
// gates are quadratic in the width.
const fuzzWidth = 6

// buildFuzzTerm interprets data as a stack-machine program over three
// fuzzWidth-bit variables and returns the resulting term plus a concrete
// environment (also taken from data). Every operator the blaster handles
// is reachable; width-1 intermediates are zero-extended back so the
// stack stays uniform.
func buildFuzzTerm(ctx *Context, data []byte) (*Term, map[*Term]bv.BV) {
	if len(data) < 4 {
		return nil, nil
	}
	vars := []*Term{ctx.Var("a", fuzzWidth), ctx.Var("b", fuzzWidth), ctx.Var("c", fuzzWidth)}
	env := map[*Term]bv.BV{}
	for i, v := range vars {
		env[v] = bv.New(fuzzWidth, uint64(data[i]))
	}
	stack := append([]*Term{}, vars...)
	pop := func() *Term {
		t := stack[len(stack)-1]
		if len(stack) > 1 {
			stack = stack[:len(stack)-1]
		}
		return t
	}
	steps := 0
	for i := 3; i+1 < len(data) && steps < 24; i += 2 {
		steps++
		op, arg := data[i], data[i+1]
		x := pop()
		y := stack[len(stack)-1]
		var r *Term
		switch op % 22 {
		case 0:
			r = ctx.Add(x, y)
		case 1:
			r = ctx.Sub(x, y)
		case 2:
			r = ctx.Mul(x, y)
		case 3:
			r = ctx.Udiv(x, y)
		case 4:
			r = ctx.Urem(x, y)
		case 5:
			r = ctx.And(x, y)
		case 6:
			r = ctx.Or(x, y)
		case 7:
			r = ctx.Xor(x, y)
		case 8:
			r = ctx.Not(x)
		case 9:
			r = ctx.Neg(x)
		case 10:
			r = ctx.Shl(x, y)
		case 11:
			r = ctx.Lshr(x, y)
		case 12:
			r = ctx.Ashr(x, y)
		case 13: // shift by an unbounded constant amount
			r = ctx.Shl(x, ctx.ConstU(fuzzWidth, uint64(arg)%(2*fuzzWidth)))
		case 14:
			r = ctx.ZeroExt(ctx.Eq(x, y), fuzzWidth)
		case 15:
			r = ctx.ZeroExt(ctx.Ult(x, y), fuzzWidth)
		case 16:
			r = ctx.ZeroExt(ctx.Slt(x, y), fuzzWidth)
		case 17:
			r = ctx.Ite(ctx.Truthy(x), y, ctx.ConstU(fuzzWidth, uint64(arg)))
		case 18:
			hi := int(arg) % fuzzWidth
			r = ctx.ZeroExt(ctx.Extract(x, hi, 0), fuzzWidth)
		case 19:
			half := fuzzWidth / 2
			r = ctx.Concat(ctx.Extract(x, half-1, 0), ctx.Extract(y, fuzzWidth-1, half))
		case 20:
			r = ctx.SignExt(ctx.Extract(x, fuzzWidth/2, 0), fuzzWidth)
		case 21:
			r = ctx.ZeroExt(ctx.RedXor(x), fuzzWidth)
		}
		stack = append(stack, r)
	}
	return stack[len(stack)-1], env
}

// FuzzBlastVsEval differentially tests the bit-blaster against the
// reference interpreter: for a random term t and environment e, the
// solver with all variables pinned to e must find t = eval(t,e)
// satisfiable and t ≠ eval(t,e) unsatisfiable — the latter with a
// checked DRUP certificate.
func FuzzBlastVsEval(f *testing.F) {
	f.Add([]byte{17, 42, 63, 0, 1, 2, 3, 10, 200, 3, 0})
	f.Add([]byte{0, 0, 0, 3, 0, 3, 1, 4, 2, 13, 9})
	f.Add([]byte{255, 255, 255, 12, 7, 10, 63, 2, 2, 16, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		ctx := NewContext()
		term, env := buildFuzzTerm(ctx, data)
		if term == nil {
			return
		}
		want := NewEvaluator(func(v *Term) bv.BV { return env[v] }).Eval(term)

		s := NewSolver(ctx)
		s.EnableCertification()
		for v, val := range env {
			s.Assert(ctx.Eq(v, ctx.Const(val)))
		}
		st, err := s.Check(ctx.Eq(term, ctx.Const(want)))
		if err != nil || st != sat.Sat {
			t.Fatalf("t == eval(t): %v %v", st, err)
		}
		st, err = s.Check(ctx.Ne(term, ctx.Const(want)))
		if err != nil || st != sat.Unsat {
			t.Fatalf("t != eval(t) must be unsat: %v %v", st, err)
		}
	})
}
