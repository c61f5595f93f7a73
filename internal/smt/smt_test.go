package smt

import (
	"fmt"
	"math/rand"
	"testing"

	"rtlrepair/internal/bv"
	"rtlrepair/internal/sat"
)

func TestConstFolding(t *testing.T) {
	c := NewContext()
	a := c.ConstU(8, 200)
	b := c.ConstU(8, 100)
	if got := c.Add(a, b); !got.IsConst() || got.Val.Uint64() != 44 {
		t.Fatalf("200+100 mod 256 = %v", got)
	}
	x := c.Var("x", 8)
	if got := c.And(x, c.ConstU(8, 0)); !got.IsConst() || !got.Val.IsZero() {
		t.Fatalf("x & 0 = %v", got)
	}
	if got := c.And(x, c.Const(bv.Ones(8))); got != x {
		t.Fatalf("x & ones = %v", got)
	}
	if got := c.Xor(x, x); !got.IsConst() || !got.Val.IsZero() {
		t.Fatalf("x ^ x = %v", got)
	}
	if got := c.Ite(c.True(), x, c.ConstU(8, 3)); got != x {
		t.Fatalf("ite(true) = %v", got)
	}
	if got := c.Eq(x, x); !got.IsTrue() {
		t.Fatalf("x == x = %v", got)
	}
}

func TestHashConsing(t *testing.T) {
	c := NewContext()
	x, y := c.Var("x", 4), c.Var("y", 4)
	if c.Add(x, y) != c.Add(x, y) {
		t.Fatal("identical terms must be pointer-equal")
	}
	if c.Var("x", 4) != x {
		t.Fatal("variable lookup must return the same term")
	}
}

// TestKeyText pins the hash-cons key text, op:width:hi:lo then one id
// per argument, all in decimal.
func TestKeyText(t *testing.T) {
	c := NewContext()
	x, y := c.Var("x", 4), c.Var("y", 4)
	x.id, y.id = 7, 1<<40
	for _, tc := range []struct {
		op            Op
		width, hi, lo int
		args          []*Term
		want          string
	}{
		{OpAdd, 4, 0, 0, []*Term{x, y}, fmt.Sprintf("%d:4:0:0:7:1099511627776", OpAdd)},
		{OpExtract, 3, 2, 0, []*Term{x}, fmt.Sprintf("%d:3:2:0:7", OpExtract)},
		{OpNot, 128, 0, 0, []*Term{y}, fmt.Sprintf("%d:128:0:0:1099511627776", OpNot)},
		{OpAnd, 1, -1, 0, nil, fmt.Sprintf("%d:1:-1:0", OpAnd)},
	} {
		if got := c.key(tc.op, tc.width, tc.args, tc.hi, tc.lo); got != tc.want {
			t.Errorf("key = %q, want %q", got, tc.want)
		}
	}
}

func TestExtractOfExtract(t *testing.T) {
	c := NewContext()
	x := c.Var("x", 16)
	e := c.Extract(c.Extract(x, 11, 4), 5, 2)
	if e.Op != OpExtract || e.Args[0] != x || e.Hi != 9 || e.Lo != 6 {
		t.Fatalf("nested extract not flattened: %v", e)
	}
}

func TestSolverBasics(t *testing.T) {
	c := NewContext()
	s := NewSolver(c)
	x := c.Var("x", 8)
	s.Assert(c.Eq(c.Add(x, c.ConstU(8, 1)), c.ConstU(8, 0)))
	st, err := s.Check()
	if err != nil || st != sat.Sat {
		t.Fatalf("check = %v, %v", st, err)
	}
	if got := s.Value(x); got.Uint64() != 0xff {
		t.Fatalf("x = %v, want 0xff", got)
	}
}

func TestSolverUnsat(t *testing.T) {
	c := NewContext()
	s := NewSolver(c)
	x := c.Var("x", 4)
	s.Assert(c.Ult(x, c.ConstU(4, 3)))
	s.Assert(c.Ult(c.ConstU(4, 5), x))
	st, _ := s.Check()
	if st != sat.Unsat {
		t.Fatalf("check = %v, want unsat", st)
	}
}

func TestSolverAssumptions(t *testing.T) {
	c := NewContext()
	s := NewSolver(c)
	x := c.Var("x", 4)
	s.Assert(c.Ugt(x, c.ConstU(4, 10)))
	st, _ := s.Check(c.Ult(x, c.ConstU(4, 5)))
	if st != sat.Unsat {
		t.Fatalf("assumed check = %v, want unsat", st)
	}
	st, _ = s.Check()
	if st != sat.Sat {
		t.Fatalf("plain check = %v, want sat", st)
	}
	if v := s.Value(x); v.Uint64() <= 10 {
		t.Fatalf("x = %v, want > 10", v)
	}
}

// randTerm builds a random term over the given vars.
func randTerm(c *Context, rng *rand.Rand, vars []*Term, depth int) *Term {
	w := vars[0].Width
	if depth == 0 {
		if rng.Intn(3) == 0 {
			return c.ConstU(w, rng.Uint64())
		}
		return vars[rng.Intn(len(vars))]
	}
	a := randTerm(c, rng, vars, depth-1)
	b := randTerm(c, rng, vars, depth-1)
	switch rng.Intn(14) {
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
		return c.Resize(c.Concat(c.Extract(a, w-1, w/2), c.Extract(b, w/2, 0)), w)
	default:
		return c.Ite(c.Ult(a, b), a, b)
	}
}

// TestBlastAgainstEval cross-checks the bit-blaster against the concrete
// evaluator: for random terms t and random assignments env, the formula
// t == Eval(t, env) with vars fixed to env must be satisfiable, and
// t != Eval(t, env) with vars fixed must be unsatisfiable.
func TestBlastAgainstEval(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 60; iter++ {
		c := NewContext()
		w := 1 + rng.Intn(9)
		vars := []*Term{c.Var("a", w), c.Var("b", w), c.Var("d", w)}
		term := randTerm(c, rng, vars, 3)
		env := map[*Term]bv.BV{}
		for _, v := range vars {
			env[v] = bv.New(w, rng.Uint64())
		}
		want := Eval(term, func(v *Term) bv.BV { return env[v] })

		s := NewSolver(c)
		for _, v := range vars {
			s.Assert(c.Eq(v, c.Const(env[v])))
		}
		s.Assert(c.Eq(term, c.Const(want)))
		st, err := s.Check()
		if err != nil || st != sat.Sat {
			t.Fatalf("iter %d: eq check = %v %v (term %v, want %v)", iter, st, err, term, want)
		}

		s2 := NewSolver(c)
		for _, v := range vars {
			s2.Assert(c.Eq(v, c.Const(env[v])))
		}
		s2.Assert(c.Ne(term, c.Const(want)))
		st, err = s2.Check()
		if err != nil || st != sat.Unsat {
			t.Fatalf("iter %d: ne check = %v %v (term %v, want %v)", iter, st, err, term, want)
		}
	}
}

func TestDivRemBlasting(t *testing.T) {
	c := NewContext()
	for _, pair := range [][2]uint64{{13, 4}, {200, 7}, {5, 0}, {0, 9}, {255, 255}} {
		s := NewSolver(c)
		a := c.Var("a", 8)
		b := c.Var("b", 8)
		s.Assert(c.Eq(a, c.ConstU(8, pair[0])))
		s.Assert(c.Eq(b, c.ConstU(8, pair[1])))
		q := c.Udiv(a, b)
		r := c.Urem(a, b)
		av, bvv := bv.New(8, pair[0]), bv.New(8, pair[1])
		s.Assert(c.Eq(q, c.Const(av.Udiv(bvv))))
		s.Assert(c.Eq(r, c.Const(av.Urem(bvv))))
		st, err := s.Check()
		if err != nil || st != sat.Sat {
			t.Fatalf("div %d/%d: %v %v", pair[0], pair[1], st, err)
		}
	}
}

func TestSolveForOperand(t *testing.T) {
	// The repair use case: solve for a free constant that makes a
	// concrete equation true.
	c := NewContext()
	s := NewSolver(c)
	alpha := c.Var("alpha", 8)
	x := c.ConstU(8, 37)
	s.Assert(c.Eq(c.Add(x, alpha), c.ConstU(8, 100)))
	st, _ := s.Check()
	if st != sat.Sat {
		t.Fatalf("check = %v", st)
	}
	if got := s.Value(alpha); got.Uint64() != 63 {
		t.Fatalf("alpha = %v, want 63", got)
	}
}

func TestMinimizationPattern(t *testing.T) {
	// Emulates the synthesizer's Σφ ≤ k linear search.
	c := NewContext()
	s := NewSolver(c)
	n := 5
	phis := make([]*Term, n)
	for i := range phis {
		phis[i] = c.Var("phi"+string(rune('0'+i)), 1)
	}
	// Constraint: phi1 | phi3, and phi2.
	s.Assert(c.Or(phis[1], phis[3]))
	s.Assert(phis[2])

	sum := c.ConstU(4, 0)
	for _, p := range phis {
		sum = c.Add(sum, c.ZeroExt(p, 4))
	}
	if st, _ := s.Check(c.Ule(sum, c.ConstU(4, 1))); st != sat.Unsat {
		t.Fatalf("sum<=1 should be unsat, got %v", st)
	}
	st, _ := s.Check(c.Ule(sum, c.ConstU(4, 2)))
	if st != sat.Sat {
		t.Fatalf("sum<=2 should be sat, got %v", st)
	}
	if !s.Value(phis[2]).Bit(0) {
		t.Fatal("phi2 must be set")
	}
	count := 0
	for _, p := range phis {
		if s.Value(p).Bit(0) {
			count++
		}
	}
	if count != 2 {
		t.Fatalf("model uses %d changes, want 2", count)
	}
}

func TestSubstitute(t *testing.T) {
	c := NewContext()
	x, y := c.Var("x", 8), c.Var("y", 8)
	e := c.Add(c.Mul(x, c.ConstU(8, 2)), y)
	sub := map[*Term]*Term{x: c.ConstU(8, 3), y: c.ConstU(8, 4)}
	if got := c.Substitute(e, sub); !got.IsConst() || got.Val.Uint64() != 10 {
		t.Fatalf("substitute = %v", got)
	}
	// Partial substitution keeps remaining vars symbolic.
	got := c.Substitute(e, map[*Term]*Term{x: c.ConstU(8, 3)})
	if got.IsConst() {
		t.Fatalf("partial substitute should stay symbolic: %v", got)
	}
	v := Eval(got, func(t *Term) bv.BV { return bv.New(8, 5) })
	if v.Uint64() != 11 {
		t.Fatalf("eval after substitute = %v", v)
	}
}

func TestCollectVars(t *testing.T) {
	c := NewContext()
	x, y, z := c.Var("x", 4), c.Var("y", 4), c.Var("z", 4)
	e := c.Add(x, c.Ite(c.Eq(y, z), x, y))
	vars := CollectVars(e)
	if len(vars) != 3 {
		t.Fatalf("got %d vars", len(vars))
	}
	if vars[0].Name != "x" || vars[1].Name != "y" || vars[2].Name != "z" {
		t.Fatalf("order: %v %v %v", vars[0].Name, vars[1].Name, vars[2].Name)
	}
}

func TestValueOfUnconstrainedVar(t *testing.T) {
	c := NewContext()
	s := NewSolver(c)
	x := c.Var("x", 4)
	s.Assert(c.True())
	if st, _ := s.Check(); st != sat.Sat {
		t.Fatal("trivial check failed")
	}
	if got := s.Value(x); !got.IsZero() {
		t.Fatalf("unconstrained var = %v, want 0", got)
	}
}

func TestWideTerms(t *testing.T) {
	c := NewContext()
	s := NewSolver(c)
	x := c.Var("x", 128)
	s.Assert(c.Eq(c.Add(x, c.ConstU(128, 1)), c.ConstU(128, 0)))
	st, _ := s.Check()
	if st != sat.Sat {
		t.Fatalf("check = %v", st)
	}
	if got := s.Value(x); !got.IsOnes() {
		t.Fatalf("x = %v, want all ones", got)
	}
}

// TestSolverCertifyStats drives a certifying solver through Sat and
// Unsat verdicts and checks the bookkeeping.
func TestSolverCertifyStats(t *testing.T) {
	ctx := NewContext()
	s := NewSolver(ctx)
	s.EnableCertification()
	if !s.Certifying() {
		t.Fatal("Certifying() false after EnableCertification")
	}
	x := ctx.Var("x", 8)
	y := ctx.Var("y", 8)
	s.Assert(ctx.Eq(ctx.Add(x, y), ctx.ConstU(8, 10)))
	if st, err := s.Check(ctx.Ult(x, ctx.ConstU(8, 5))); err != nil || st != sat.Sat {
		t.Fatalf("sat check: %v %v", st, err)
	}
	if st, err := s.Check(ctx.AndN(
		ctx.Not(ctx.Ult(x, ctx.ConstU(8, 200))),
		ctx.Not(ctx.Ult(y, ctx.ConstU(8, 200))),
	)); err != nil || st != sat.Unsat {
		t.Fatalf("unsat check: %v %v", st, err)
	}
	cs := s.CertifyStats()
	if cs.ModelsValidated != 1 || cs.UnsatsCertified != 1 {
		t.Fatalf("certify stats: %+v", cs)
	}
	if cs.ProofSteps == 0 {
		t.Fatalf("no proof steps recorded: %+v", cs)
	}
}
