package tsys

import (
	"strings"
	"testing"

	"rtlrepair/internal/bv"
	"rtlrepair/internal/sat"
	"rtlrepair/internal/smt"
)

// counterSystem builds the paper's Figure 1 counter as a transition
// system: count' = ite(reset, 0, ite(enable, count+1, count)),
// overflow' = ite(count == 15, 1, ite(reset, 0, overflow)).
func counterSystem(ctx *smt.Context) *System {
	reset := ctx.Var("reset", 1)
	enable := ctx.Var("enable", 1)
	count := ctx.Var("count", 4)
	overflow := ctx.Var("overflow", 1)

	countNext := ctx.Ite(reset, ctx.ConstU(4, 0),
		ctx.Ite(enable, ctx.Add(count, ctx.ConstU(4, 1)), count))
	ovfNext := ctx.Ite(ctx.Eq(count, ctx.ConstU(4, 15)), ctx.True(),
		ctx.Ite(reset, ctx.False(), overflow))

	return &System{
		Name:   "first_counter",
		Inputs: []*smt.Term{reset, enable},
		States: []State{
			{Var: count, Next: countNext},
			{Var: overflow, Next: ovfNext},
		},
		Outputs: []Output{
			{Name: "count", Expr: count},
			{Name: "overflow", Expr: overflow},
		},
	}
}

func TestValidate(t *testing.T) {
	ctx := smt.NewContext()
	sys := counterSystem(ctx)
	if err := sys.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	// Break it: undeclared var in next.
	rogue := ctx.Var("rogue", 4)
	sys.States[0].Next = rogue
	if err := sys.Validate(); err == nil {
		t.Fatal("expected validation error for undeclared variable")
	}
}

func TestUnrollConcreteFolds(t *testing.T) {
	ctx := smt.NewContext()
	sys := counterSystem(ctx)
	init := map[*smt.Term]*smt.Term{
		sys.States[0].Var: ctx.ConstU(4, 0),
		sys.States[1].Var: ctx.ConstU(1, 0),
	}
	u := Unroll(ctx, sys, 3, init, nil)
	s := smt.NewSolver(ctx)
	// Drive enable=1, reset=0 for all steps.
	for k := 0; k <= 3; k++ {
		s.Assert(ctx.Eq(u.InputAt(k, sys.Inputs[0]), ctx.False()))
		s.Assert(ctx.Eq(u.InputAt(k, sys.Inputs[1]), ctx.True()))
	}
	st, err := s.Check()
	if err != nil || st != sat.Sat {
		t.Fatalf("check: %v %v", st, err)
	}
	if got := s.Value(u.OutputAt(3, "count")); got.Uint64() != 3 {
		t.Fatalf("count@3 = %v, want 3", got)
	}
	if got := s.Value(u.OutputAt(0, "count")); got.Uint64() != 0 {
		t.Fatalf("count@0 = %v, want 0", got)
	}
}

func TestUnrollSymbolicInitialState(t *testing.T) {
	ctx := smt.NewContext()
	sys := counterSystem(ctx)
	u := Unroll(ctx, sys, 1, nil, nil)
	s := smt.NewSolver(ctx)
	// After a reset cycle the count must be zero regardless of the start.
	s.Assert(ctx.Eq(u.InputAt(0, sys.Inputs[0]), ctx.True()))
	s.Assert(ctx.Ne(u.OutputAt(1, "count"), ctx.ConstU(4, 0)))
	st, _ := s.Check()
	if st != sat.Unsat {
		t.Fatalf("count after reset must be 0; got %v", st)
	}
}

func TestUnrollBMCFindsOverflow(t *testing.T) {
	ctx := smt.NewContext()
	sys := counterSystem(ctx)
	init := map[*smt.Term]*smt.Term{
		sys.States[0].Var: ctx.ConstU(4, 13),
		sys.States[1].Var: ctx.ConstU(1, 0),
	}
	u := Unroll(ctx, sys, 4, init, nil)
	s := smt.NewSolver(ctx)
	s.Assert(ctx.Eq(u.OutputAt(4, "overflow"), ctx.True()))
	st, err := s.Check()
	if err != nil || st != sat.Sat {
		t.Fatalf("BMC should find an overflow path: %v %v", st, err)
	}
	// The model must actually raise the overflow: replay it concretely.
	env := func(v *smt.Term) bv.BV { return s.Value(v) }
	if got := smt.Eval(u.OutputAt(4, "overflow"), env); got.IsZero() {
		t.Fatal("model does not satisfy overflow expression")
	}
}

func TestAccessors(t *testing.T) {
	ctx := smt.NewContext()
	sys := counterSystem(ctx)
	if sys.Input("reset") == nil || sys.Input("nope") != nil {
		t.Fatal("Input lookup broken")
	}
	if sys.Output("count") == nil || sys.Output("nope") != nil {
		t.Fatal("Output lookup broken")
	}
	if sys.StateByName("overflow") == nil || sys.StateByName("nope") != nil {
		t.Fatal("StateByName lookup broken")
	}
}

func TestUnrollTaggedNamespaces(t *testing.T) {
	ctx := smt.NewContext()
	sys := counterSystem(ctx)
	u1 := UnrollTagged(ctx, sys, 2, nil, "t0", nil)
	u2 := UnrollTagged(ctx, sys, 2, nil, "t1", nil)
	// Same logical position, different variables.
	if u1.InputAt(1, sys.Inputs[0]) == u2.InputAt(1, sys.Inputs[0]) {
		t.Fatal("tagged unrollings share input instances")
	}
	if u1.InputAt(1, sys.Inputs[0]).Name != "reset@t0/1" {
		t.Fatalf("name = %q", u1.InputAt(1, sys.Inputs[0]).Name)
	}
	// Constraining one unrolling must not constrain the other.
	s := smt.NewSolver(ctx)
	s.Assert(ctx.Eq(u1.InputAt(0, sys.Inputs[0]), ctx.True()))
	s.Assert(ctx.Eq(u2.InputAt(0, sys.Inputs[0]), ctx.False()))
	st, err := s.Check()
	if err != nil || st != sat.Sat {
		t.Fatalf("independent unrollings: %v %v", st, err)
	}
}

// TestExtendMatchesUnroll checks that unrolling n steps and extending by
// k yields exactly the hash-consed expressions of unrolling n+k steps in
// one go — the property the incremental window encoding relies on — with
// free inputs and with inputs supplied as constants by an InputFunc.
func TestExtendMatchesUnroll(t *testing.T) {
	ctx := smt.NewContext()
	sys := counterSystem(ctx)
	init := map[*smt.Term]*smt.Term{
		sys.States[0].Var: ctx.ConstU(4, 3),
		sys.States[1].Var: ctx.False(),
	}
	const n, k = 2, 3
	// rows drives reset low and enable high, except at step 3, and leaves
	// the last step free.
	rows := func(step int, in *smt.Term) *smt.Term {
		if step == n+k {
			return nil
		}
		if in.Name == "reset" {
			return ctx.False()
		}
		return ctx.Bool(step != 3)
	}
	for _, tc := range []struct {
		name   string
		inputs InputFunc
	}{{"free", nil}, {"constant", rows}} {
		t.Run(tc.name, func(t *testing.T) {
			full := Unroll(ctx, sys, n+k, init, tc.inputs)
			grown := Unroll(ctx, sys, n, init, tc.inputs)
			grown.Extend(ctx, k)
			if grown.Steps != n+k {
				t.Fatalf("Steps = %d, want %d", grown.Steps, n+k)
			}
			for step := 0; step <= n+k; step++ {
				for _, in := range sys.Inputs {
					got := grown.InputAt(step, in)
					if full.InputAt(step, in) != got {
						t.Fatalf("step %d input %s: extended unrolling differs", step, in.Name)
					}
					if tc.inputs == nil {
						continue
					}
					if want := tc.inputs(step, in); want != nil && got != want {
						t.Fatalf("step %d input %s = %v, want the InputFunc's %v", step, in.Name, got, want)
					} else if want == nil && got.Op != smt.OpVar {
						t.Fatalf("step %d input %s = %v, want a fresh variable", step, in.Name, got)
					}
				}
				for _, o := range sys.Outputs {
					if full.OutputAt(step, o.Name) != grown.OutputAt(step, o.Name) {
						t.Fatalf("step %d output %s: extended unrolling differs", step, o.Name)
					}
				}
				for _, st := range sys.States {
					if full.StateAt(step, st.Var) != grown.StateAt(step, st.Var) {
						t.Fatalf("step %d state %s: extended unrolling differs", step, st.Var.Name)
					}
				}
			}
			if tc.inputs != nil {
				// Constant inputs fold the counter to constants: 3 counts
				// up to 6, holds while enable is low at step 3, then 7.
				if c := grown.StateAt(n+k, sys.States[0].Var); !c.IsConst() || c.Val.Uint64() != 7 {
					t.Fatalf("count at step %d = %v, want the constant 7", n+k, c)
				}
			}
		})
	}
}

// TestExtendTagged checks that tagged unrollings keep their namespace
// when extended.
func TestExtendTagged(t *testing.T) {
	ctx := smt.NewContext()
	sys := counterSystem(ctx)
	u := UnrollTagged(ctx, sys, 1, nil, "tr0", nil)
	u.Extend(ctx, 1)
	in := u.InputAt(2, sys.Inputs[0])
	if in == nil || !strings.Contains(in.Name, "@tr0/2") {
		t.Fatalf("extended tagged input = %v, want name containing @tr0/2", in)
	}
}

// TestExtendZeroIsNoop checks the degenerate extension.
func TestExtendZeroIsNoop(t *testing.T) {
	ctx := smt.NewContext()
	sys := counterSystem(ctx)
	u := Unroll(ctx, sys, 2, nil, nil)
	u.Extend(ctx, 0)
	if u.Steps != 2 {
		t.Fatalf("Steps = %d after zero extend, want 2", u.Steps)
	}
}
