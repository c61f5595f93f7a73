package netlist

import (
	"math/rand"
	"testing"

	"rtlrepair/internal/bv"
	"rtlrepair/internal/smt"
	"rtlrepair/internal/tsys"
)

// randTerm mirrors the smt fuzz generator for gate-lowering validation.
func randTerm(c *smt.Context, rng *rand.Rand, vars []*smt.Term, depth int) *smt.Term {
	w := vars[0].Width
	if depth == 0 || rng.Intn(3) == 0 {
		if rng.Intn(3) == 0 {
			return c.ConstU(w, rng.Uint64())
		}
		return vars[rng.Intn(len(vars))]
	}
	a := randTerm(c, rng, vars, depth-1)
	b := randTerm(c, rng, vars, depth-1)
	switch rng.Intn(15) {
	case 0:
		return c.Add(a, b)
	case 1:
		return c.Sub(a, b)
	case 2:
		return c.And(a, b)
	case 3:
		return c.Or(a, b)
	case 4:
		return c.Xor(a, b)
	case 5:
		return c.Not(a)
	case 6:
		return c.Neg(a)
	case 7:
		return c.Mul(a, b)
	case 8:
		return c.Ite(c.Eq(a, b), a, b)
	case 9:
		return c.Shl(a, b)
	case 10:
		return c.Lshr(a, b)
	case 11:
		return c.Ashr(a, b)
	case 12:
		return c.Ite(c.Ult(a, b), a, b)
	case 13:
		return c.Udiv(a, b)
	default:
		return c.Urem(a, b)
	}
}

// FuzzGateLoweringMatchesEval: lowering random terms to gates and
// simulating must match the reference term evaluator bit for bit. The
// input seeds a generator of 150 terms; seed 77 is the corpus plain
// `go test` runs.
func FuzzGateLoweringMatchesEval(f *testing.F) {
	f.Add(int64(77))
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		for iter := 0; iter < 150; iter++ {
			c := smt.NewContext()
			w := 1 + rng.Intn(9)
			vars := []*smt.Term{c.Var("a", w), c.Var("b", w)}
			term := randTerm(c, rng, vars, 3)
			sys := &tsys.System{
				Name:    "fuzz",
				Inputs:  vars,
				Outputs: []tsys.Output{{Name: "y", Expr: term}},
			}
			nl, err := Build(sys)
			if err != nil {
				t.Fatalf("iter %d: %v", iter, err)
			}
			g := NewGateSim(nl, PolicyZero, 0)
			for trial := 0; trial < 8; trial++ {
				env := map[*smt.Term]bv.BV{
					vars[0]: bv.New(w, rng.Uint64()),
					vars[1]: bv.New(w, rng.Uint64()),
				}
				want := smt.Eval(term, func(v *smt.Term) bv.BV { return env[v] })
				outs := g.Step(map[string]bv.XBV{
					"a": bv.K(env[vars[0]]),
					"b": bv.K(env[vars[1]]),
				})
				got := outs["y"]
				if !got.IsFullyKnown() || !got.Val.Eq(want) {
					t.Fatalf("iter %d trial %d: gates %v != eval %v for %v (a=%v b=%v)",
						iter, trial, got, want, term, env[vars[0]], env[vars[1]])
				}
			}
		}
	})
}
