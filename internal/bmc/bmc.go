// Package bmc implements bounded model checking over the transition
// system (§2.2): starting from an arbitrary (or fixed) state it unrolls
// the design for k cycles and asks the SMT solver whether any input
// sequence violates a property. A counterexample is returned as an I/O
// trace that can be fed directly to the repair engine — the workflow the
// paper sketches in §3 ("It could also be returned by a BMC tool that
// has discovered a bug in the circuit").
//
// Properties follow a simple convention: any 1-bit design output works
// as a property expression ("this output must always be 1").
package bmc

import (
	"fmt"
	"time"

	"rtlrepair/internal/bv"
	"rtlrepair/internal/sat"
	"rtlrepair/internal/smt"
	"rtlrepair/internal/trace"
	"rtlrepair/internal/tsys"
)

// Options configures a BMC run.
type Options struct {
	// MaxDepth is the deepest unrolling to try.
	MaxDepth int
	// FromReset constrains the initial state to the registers' init
	// values where present (uninitialized registers stay arbitrary);
	// false checks from a fully arbitrary state.
	FromReset bool
	// Deadline bounds solving (zero = none).
	Deadline time.Time
	// AssumeInputsZero pins inputs that should not be searched (by name).
	AssumeInputsZero []string
}

// Result is the outcome of a BMC run.
type Result struct {
	// Violated is true when a counterexample was found.
	Violated bool
	// Depth is the length of the counterexample (cycles), or the bound
	// proven safe.
	Depth int
	// Counterexample drives the design into the violation: inputs are
	// concrete, expected outputs are all don't-care except the property
	// output at the failing cycle, which demands 1. Feeding this trace
	// to core.Repair asks for a repair that removes the violation.
	Counterexample *trace.Trace
	// InitialState is the starting register assignment of the
	// counterexample.
	InitialState map[string]bv.BV
}

// Check searches for an input sequence of length ≤ MaxDepth that drives
// the named 1-bit output to 0.
func Check(ctx *smt.Context, sys *tsys.System, property string, opts Options) (*Result, error) {
	out := sys.Output(property)
	if out == nil {
		return nil, fmt.Errorf("bmc: no output named %q", property)
	}
	if out.Expr.Width != 1 {
		return nil, fmt.Errorf("bmc: property %q must be 1 bit wide, is %d", property, out.Expr.Width)
	}
	if opts.MaxDepth <= 0 {
		opts.MaxDepth = 16
	}
	if len(sys.Params) > 0 {
		return nil, fmt.Errorf("bmc: system has unresolved synthesis parameters")
	}

	for k := 0; k <= opts.MaxDepth; k++ {
		res, err := checkDepth(ctx, sys, property, k, opts)
		if err != nil {
			return nil, err
		}
		if res != nil {
			return res, nil
		}
	}
	return &Result{Violated: false, Depth: opts.MaxDepth}, nil
}

func checkDepth(ctx *smt.Context, sys *tsys.System, property string, k int, opts Options) (*Result, error) {
	init := map[*smt.Term]*smt.Term{}
	if opts.FromReset {
		for _, st := range sys.States {
			if st.Init != nil {
				init[st.Var] = st.Init
			}
		}
	}
	u := tsys.Unroll(ctx, sys, k, init, nil)
	solver := smt.NewSolver(ctx)
	solver.SetDeadline(opts.Deadline)

	pinned := map[string]bool{}
	for _, name := range opts.AssumeInputsZero {
		pinned[name] = true
	}
	for step := 0; step <= k; step++ {
		for _, in := range sys.Inputs {
			if pinned[in.Name] {
				solver.Assert(ctx.Eq(u.InputAt(step, in), ctx.Const(bv.Zero(in.Width))))
			}
		}
		if step < k {
			// The property holds strictly before the final step (find
			// the *first* violation at this depth).
			solver.Assert(ctx.Eq(u.OutputAt(step, property), ctx.True()))
		}
	}
	solver.Assert(ctx.Eq(u.OutputAt(k, property), ctx.False()))

	st, err := solver.Check()
	if err != nil {
		return nil, fmt.Errorf("bmc: %w", err)
	}
	if st != sat.Sat {
		return nil, nil
	}

	// Extract the counterexample.
	res := &Result{Violated: true, Depth: k, InitialState: map[string]bv.BV{}}
	for _, stv := range sys.States {
		res.InitialState[stv.Var.Name] = solver.Value(u.StateAt(0, stv.Var))
	}
	var ins []trace.Signal
	for _, in := range sys.Inputs {
		ins = append(ins, trace.Signal{Name: in.Name, Width: in.Width})
	}
	outs := []trace.Signal{{Name: property, Width: 1}}
	tr := trace.New(ins, outs)
	for step := 0; step <= k; step++ {
		row := make([]bv.XBV, len(ins))
		for i, in := range sys.Inputs {
			row[i] = bv.K(solver.Value(u.InputAt(step, in)))
		}
		exp := []bv.XBV{bv.X(1)}
		if step == k {
			// Repairing against this trace demands the property hold
			// where the buggy design violated it.
			exp = []bv.XBV{bv.KU(1, 1)}
		}
		tr.AddRow(row, exp)
	}
	res.Counterexample = tr
	return res, nil
}
