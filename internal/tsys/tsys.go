// Package tsys defines the word-level transition system that the
// synthesis frontend produces from Verilog and that the repair
// synthesizer unrolls. It corresponds to the btor2 representation the
// paper obtains from yosys.
package tsys

import (
	"fmt"
	"sort"
	"strings"

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
// time-indexed input variables and expressions for states and outputs.
type Unrolling struct {
	Sys      *System
	Steps    int
	tag      string
	inputAt  []map[*smt.Term]*smt.Term // step -> input var -> step instance
	stateAt  []map[*smt.Term]*smt.Term // step -> state var -> expression
	outputAt []map[string]*smt.Term    // step -> output name -> expression
	obsScope obs.Scope                 // see SetObs
	facts    *smt.FactCache            // see SetFactCache
}

// SetObs positions the unrolling in the observability layer: every
// Extend records one "tsys.extend" span under the scope's span. The
// zero Scope (the default) disables it.
func (u *Unrolling) SetObs(sc obs.Scope) { u.obsScope = sc }

// SetFactCache attaches a cross-window abstract-fact cache: after every
// Extend, base facts for the newly built step expressions are derived
// eagerly into the cache, so the owning solver's simplifier (and any
// later rebuild over the same hash-consed terms) starts warm. A nil
// cache disables prewarming.
func (u *Unrolling) SetFactCache(fc *smt.FactCache) { u.facts = fc }

// prewarm derives base facts for the given step's expressions.
func (u *Unrolling) prewarm(k int) {
	if u.facts == nil {
		return
	}
	for _, expr := range u.stateAt[k] {
		u.facts.Warm(expr)
	}
	for _, expr := range u.outputAt[k] {
		u.facts.Warm(expr)
	}
}

// Unroll unrolls sys for the given number of steps. init provides the
// step-0 expression for each state variable; states missing from init
// get a fresh variable "<name>@0" (an arbitrary starting value, as in
// BMC). Input instances are fresh variables "<name>@k". Params remain
// shared across steps — they are the synthesis constants.
func Unroll(ctx *smt.Context, sys *System, steps int, init map[*smt.Term]*smt.Term) *Unrolling {
	return UnrollTagged(ctx, sys, steps, init, "")
}

// UnrollTagged is Unroll with a namespace tag on the per-step variables
// ("<name>@<tag>/<k>"), so several independent unrollings of the same
// system — e.g. one per counterexample trace in a CEGIS loop — can share
// one context and one set of synthesis parameters without their input
// instances colliding.
func UnrollTagged(ctx *smt.Context, sys *System, steps int, init map[*smt.Term]*smt.Term, tag string) *Unrolling {
	name := func(base string, k int) string {
		if tag == "" {
			return fmt.Sprintf("%s@%d", base, k)
		}
		return fmt.Sprintf("%s@%s/%d", base, tag, k)
	}
	u := &Unrolling{Sys: sys, Steps: steps, tag: tag}
	cur := map[*smt.Term]*smt.Term{}
	for _, st := range sys.States {
		if iv, ok := init[st.Var]; ok {
			cur[st.Var] = iv
		} else {
			cur[st.Var] = ctx.Var(name(st.Var.Name, 0), st.Var.Width)
		}
	}
	for k := 0; k <= steps; k++ {
		ins := map[*smt.Term]*smt.Term{}
		sub := map[*smt.Term]*smt.Term{}
		for _, in := range sys.Inputs {
			iv := ctx.Var(name(in.Name, k), in.Width)
			ins[in] = iv
			sub[in] = iv
		}
		for sv, expr := range cur {
			sub[sv] = expr
		}
		outs := map[string]*smt.Term{}
		for _, o := range sys.Outputs {
			outs[o.Name] = ctx.Substitute(o.Expr, sub)
		}
		u.inputAt = append(u.inputAt, ins)
		u.outputAt = append(u.outputAt, outs)
		stateCopy := map[*smt.Term]*smt.Term{}
		for sv, expr := range cur {
			stateCopy[sv] = expr
		}
		u.stateAt = append(u.stateAt, stateCopy)
		if k == steps {
			break
		}
		next := map[*smt.Term]*smt.Term{}
		for _, st := range sys.States {
			next[st.Var] = ctx.Substitute(st.Next, sub)
		}
		cur = next
	}
	return u
}

// Extend grows the unrolling by extraSteps further cycles, reusing every
// already-built step expression. Together with an incremental solver this
// lets the adaptive-window synthesizer append newly unrolled cycles to a
// live clause database instead of re-encoding the window from scratch
// when k_future grows.
func (u *Unrolling) Extend(ctx *smt.Context, extraSteps int) {
	if extraSteps <= 0 {
		return
	}
	span := u.obsScope.Start("tsys.extend")
	defer span.End(obs.Int("from_steps", int64(u.Steps)), obs.Int("extra_steps", int64(extraSteps)))
	u.obsScope.Metrics.Add("tsys.extend_steps", int64(extraSteps))
	name := func(base string, k int) string {
		if u.tag == "" {
			return fmt.Sprintf("%s@%d", base, k)
		}
		return fmt.Sprintf("%s@%s/%d", base, u.tag, k)
	}
	cur := u.stateAt[u.Steps]
	ins := u.inputAt[u.Steps]
	for k := u.Steps + 1; k <= u.Steps+extraSteps; k++ {
		// Advance the state past the previous step (Unroll stops before
		// computing the next-state of its final step).
		sub := map[*smt.Term]*smt.Term{}
		for in, iv := range ins {
			sub[in] = iv
		}
		for sv, expr := range cur {
			sub[sv] = expr
		}
		next := map[*smt.Term]*smt.Term{}
		for _, st := range u.Sys.States {
			next[st.Var] = ctx.Substitute(st.Next, sub)
		}
		cur = next
		// Materialize step k exactly as Unroll would have.
		ins = map[*smt.Term]*smt.Term{}
		stepSub := map[*smt.Term]*smt.Term{}
		for _, in := range u.Sys.Inputs {
			iv := ctx.Var(name(in.Name, k), in.Width)
			ins[in] = iv
			stepSub[in] = iv
		}
		for sv, expr := range cur {
			stepSub[sv] = expr
		}
		outs := map[string]*smt.Term{}
		for _, o := range u.Sys.Outputs {
			outs[o.Name] = ctx.Substitute(o.Expr, stepSub)
		}
		stateCopy := map[*smt.Term]*smt.Term{}
		for sv, expr := range cur {
			stateCopy[sv] = expr
		}
		u.inputAt = append(u.inputAt, ins)
		u.outputAt = append(u.outputAt, outs)
		u.stateAt = append(u.stateAt, stateCopy)
		u.prewarm(k)
	}
	u.Steps += extraSteps
}

// InputAt returns the fresh variable standing for input in at step k.
func (u *Unrolling) InputAt(k int, in *smt.Term) *smt.Term { return u.inputAt[k][in] }

// StateAt returns the expression for state variable sv at step k.
func (u *Unrolling) StateAt(k int, sv *smt.Term) *smt.Term { return u.stateAt[k][sv] }

// OutputAt returns the expression for the named output at step k.
func (u *Unrolling) OutputAt(k int, name string) *smt.Term { return u.outputAt[k][name] }

// WriteBtor renders the system in a btor2-flavoured textual format. The
// output is stable and used for golden tests and debugging; it is not a
// strictly conforming btor2 file (expressions are printed as trees).
func (s *System) WriteBtor() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "; system %s\n", s.Name)
	names := []string{}
	widths := map[string]int{}
	for _, in := range s.Inputs {
		names = append(names, in.Name)
		widths[in.Name] = in.Width
	}
	sort.Strings(names)
	line := 1
	for _, n := range names {
		fmt.Fprintf(&sb, "%d input (bitvec %d) %s\n", line, widths[n], n)
		line++
	}
	for _, p := range s.Params {
		fmt.Fprintf(&sb, "%d param (bitvec %d) %s\n", line, p.Width, p.Name)
		line++
	}
	for _, st := range s.States {
		fmt.Fprintf(&sb, "%d state (bitvec %d) %s\n", line, st.Var.Width, st.Var.Name)
		line++
		if st.Init != nil {
			fmt.Fprintf(&sb, "%d init %s = %s\n", line, st.Var.Name, st.Init)
			line++
		}
		fmt.Fprintf(&sb, "%d next %s = %s\n", line, st.Var.Name, st.Next)
		line++
	}
	for _, o := range s.Outputs {
		fmt.Fprintf(&sb, "%d output %s = %s\n", line, o.Name, o.Expr)
		line++
	}
	return sb.String()
}
