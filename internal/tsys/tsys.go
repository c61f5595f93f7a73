// Package tsys defines the word-level transition system that the
// synthesis frontend produces from Verilog and that the repair
// synthesizer unrolls. It corresponds to the btor2 representation the
// paper obtains from yosys.
package tsys

import (
	"fmt"

	"rtlrepair/internal/obs"
	"rtlrepair/internal/smt"
)

// State is a registered state variable with its optional initial value
// and mandatory next-state function.
type State struct {
	Var  *smt.Term // OpVar
	Init *smt.Term // nil means uninitialized (X at power-on)
	Next *smt.Term // expression over inputs, states and params
}

// Output is a named output with its defining expression over inputs,
// states and params.
type Output struct {
	Name string
	Expr *smt.Term
}

// System is a synchronous, single-clock transition system.
type System struct {
	Name    string
	Inputs  []*smt.Term // circuit inputs, one var each
	Params  []*smt.Term // synthesis constants (φ/α); constant over time
	States  []State
	Outputs []Output
}

// Input returns the input variable with the given name, or nil.
func (s *System) Input(name string) *smt.Term {
	for _, in := range s.Inputs {
		if in.Name == name {
			return in
		}
	}
	return nil
}

// Output returns the output with the given name, or nil.
func (s *System) Output(name string) *Output {
	for i := range s.Outputs {
		if s.Outputs[i].Name == name {
			return &s.Outputs[i]
		}
	}
	return nil
}

// StateByName returns the state with the given variable name, or nil.
func (s *System) StateByName(name string) *State {
	for i := range s.States {
		if s.States[i].Var.Name == name {
			return &s.States[i]
		}
	}
	return nil
}

// Validate checks internal consistency: widths of Next/Init match their
// state variables, and all free variables are declared.
func (s *System) Validate() error {
	declared := map[*smt.Term]bool{}
	for _, in := range s.Inputs {
		declared[in] = true
	}
	for _, p := range s.Params {
		declared[p] = true
	}
	for _, st := range s.States {
		declared[st.Var] = true
	}
	check := func(t *smt.Term, what string) error {
		for _, v := range smt.CollectVars(t) {
			if !declared[v] {
				return fmt.Errorf("tsys: %s references undeclared variable %q", what, v.Name)
			}
		}
		return nil
	}
	for _, st := range s.States {
		if st.Next == nil {
			return fmt.Errorf("tsys: state %q has no next function", st.Var.Name)
		}
		if st.Next.Width != st.Var.Width {
			return fmt.Errorf("tsys: state %q next width %d != %d", st.Var.Name, st.Next.Width, st.Var.Width)
		}
		if st.Init != nil && st.Init.Width != st.Var.Width {
			return fmt.Errorf("tsys: state %q init width %d != %d", st.Var.Name, st.Init.Width, st.Var.Width)
		}
		if err := check(st.Next, "next of "+st.Var.Name); err != nil {
			return err
		}
	}
	for _, o := range s.Outputs {
		if err := check(o.Expr, "output "+o.Name); err != nil {
			return err
		}
	}
	return nil
}

// Unrolling is the result of unrolling a System for a number of steps:
// time-indexed input instances and expressions for states and outputs.
type Unrolling struct {
	Sys      *System
	Steps    int
	tag      string
	inputs   InputFunc                 // see Unroll; nil means all fresh
	inputAt  []map[*smt.Term]*smt.Term // step -> input var -> step instance
	stateAt  []map[*smt.Term]*smt.Term // step -> state var -> expression
	outputAt []map[string]*smt.Term    // step -> output name -> expression
	obsScope obs.Scope                 // see SetObs
}

// InputFunc supplies the instance of input in at step k of an
// unrolling: a constant term when the value is known (a trace row), or
// nil for a fresh variable.
type InputFunc func(k int, in *smt.Term) *smt.Term

// SetObs positions the unrolling in the observability layer: every
// Extend records one "tsys.extend" span under the scope's span. The
// zero Scope (the default) disables it.
func (u *Unrolling) SetObs(sc obs.Scope) { u.obsScope = sc }

// Unroll unrolls sys for the given number of steps. init provides the
// step-0 expression for each state variable; states missing from init
// get a fresh variable "<name>@0" (an arbitrary starting value, as in
// BMC). inputs supplies the input instances; where it is nil or returns
// nil, an input is a fresh variable "<name>@k". Constant inputs fold
// into the step expressions as they are built. Params remain shared
// across steps — they are the synthesis constants.
func Unroll(ctx *smt.Context, sys *System, steps int, init map[*smt.Term]*smt.Term, inputs InputFunc) *Unrolling {
	return UnrollTagged(ctx, sys, steps, init, "", inputs)
}

// UnrollTagged is Unroll with a namespace tag on the per-step variables
// ("<name>@<tag>/<k>"), so several independent unrollings of the same
// system — e.g. one per counterexample trace in a CEGIS loop — can share
// one context and one set of synthesis parameters without their input
// instances colliding.
func UnrollTagged(ctx *smt.Context, sys *System, steps int, init map[*smt.Term]*smt.Term, tag string, inputs InputFunc) *Unrolling {
	u := &Unrolling{Sys: sys, tag: tag, inputs: inputs}
	cur := map[*smt.Term]*smt.Term{}
	for _, st := range sys.States {
		if iv, ok := init[st.Var]; ok {
			cur[st.Var] = iv
		} else {
			cur[st.Var] = ctx.Var(u.name(st.Var.Name, 0), st.Var.Width)
		}
	}
	u.materialize(ctx, cur)
	u.grow(ctx, steps)
	return u
}

// name is the per-step variable name of base at step k.
func (u *Unrolling) name(base string, k int) string {
	if u.tag == "" {
		return fmt.Sprintf("%s@%d", base, k)
	}
	return fmt.Sprintf("%s@%s/%d", base, u.tag, k)
}

// materialize appends the next step with state expressions cur: its
// input instances and its output expressions.
func (u *Unrolling) materialize(ctx *smt.Context, cur map[*smt.Term]*smt.Term) {
	k := len(u.stateAt)
	ins := map[*smt.Term]*smt.Term{}
	for _, in := range u.Sys.Inputs {
		var iv *smt.Term
		if u.inputs != nil {
			iv = u.inputs(k, in)
		}
		if iv == nil {
			iv = ctx.Var(u.name(in.Name, k), in.Width)
		}
		ins[in] = iv
	}
	sub := u.subst(ins, cur)
	outs := map[string]*smt.Term{}
	for _, o := range u.Sys.Outputs {
		outs[o.Name] = ctx.Substitute(o.Expr, sub)
	}
	u.inputAt = append(u.inputAt, ins)
	u.outputAt = append(u.outputAt, outs)
	u.stateAt = append(u.stateAt, cur)
}

// subst maps every input and state variable to its step instance.
func (u *Unrolling) subst(ins, cur map[*smt.Term]*smt.Term) map[*smt.Term]*smt.Term {
	sub := make(map[*smt.Term]*smt.Term, len(ins)+len(cur))
	for in, iv := range ins {
		sub[in] = iv
	}
	for sv, expr := range cur {
		sub[sv] = expr
	}
	return sub
}

// grow advances the unrolling by extra steps: each step's state is the
// next-state function applied to the previous step.
func (u *Unrolling) grow(ctx *smt.Context, extra int) {
	for i := 0; i < extra; i++ {
		last := len(u.stateAt) - 1
		sub := u.subst(u.inputAt[last], u.stateAt[last])
		next := map[*smt.Term]*smt.Term{}
		for _, st := range u.Sys.States {
			next[st.Var] = ctx.Substitute(st.Next, sub)
		}
		u.materialize(ctx, next)
	}
	u.Steps = len(u.stateAt) - 1
}

// Extend grows the unrolling by extraSteps further cycles, reusing every
// already-built step expression and building the new steps' inputs from
// the same InputFunc. Together with an incremental solver this lets the
// adaptive-window synthesizer append newly unrolled cycles to a live
// clause database instead of re-encoding the window from scratch when
// k_future grows.
func (u *Unrolling) Extend(ctx *smt.Context, extraSteps int) {
	if extraSteps <= 0 {
		return
	}
	span := u.obsScope.Start("tsys.extend")
	defer span.End(obs.Int("from_steps", int64(u.Steps)), obs.Int("extra_steps", int64(extraSteps)))
	u.obsScope.Metrics.Add("tsys.extend_steps", int64(extraSteps))
	u.grow(ctx, extraSteps)
}

// InputAt returns the instance of input in at step k: the InputFunc's
// constant, or the fresh variable standing for it.
func (u *Unrolling) InputAt(k int, in *smt.Term) *smt.Term { return u.inputAt[k][in] }

// StateAt returns the expression for state variable sv at step k.
func (u *Unrolling) StateAt(k int, sv *smt.Term) *smt.Term { return u.stateAt[k][sv] }

// OutputAt returns the expression for the named output at step k.
func (u *Unrolling) OutputAt(k int, name string) *smt.Term { return u.outputAt[k][name] }
