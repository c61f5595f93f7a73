package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"time"

	"rtlrepair/internal/bv"
	"rtlrepair/internal/obs"
	"rtlrepair/internal/sat"
	"rtlrepair/internal/sim"
	"rtlrepair/internal/smt"
	"rtlrepair/internal/trace"
	"rtlrepair/internal/tsys"
)

// The paper's synthesis constants (§4.3, §4.4).
const (
	// maxChanges caps the minimal-change linear search.
	maxChanges = 10
	// MaxWindow is the largest k_past+k_future before giving up (§4.4).
	MaxWindow = 32
	// pastStep is the k_past increment.
	pastStep = 2
	// samplesPerWindow is how many minimal repairs the single-repair flow
	// validates per window before advancing (its MaxSamples).
	samplesPerWindow = 4
	// maxBasicSteps caps the basic synthesizer's full unrolling; longer
	// traces are reported as timeouts (the paper's basic synthesizer
	// times out on exactly these benchmarks, §6.3).
	maxBasicSteps = 1500
)

// SynthOptions configures the repair synthesizer.
type SynthOptions struct {
	// Seed seeds the validation simulator and the re-concretizations of
	// the robustness check.
	Seed int64
	// Deadline bounds the whole synthesis (zero = none).
	Deadline time.Time
	// MaxSamples bounds how many minimal repairs are validated per
	// window before advancing. The repair flow always sets
	// samplesPerWindow; the field stays settable because
	// TestBackwardGrowthMatchesRebuild sets it to 1, so that no blocking
	// clause enters its comparison with a freshly built window.
	MaxSamples int
	// NoMinimize skips the minimal-change search (ablation of §4.3's
	// Max-SMT-style minimization): the first satisfying assignment is
	// used, however many changes it makes.
	NoMinimize bool
	// Interrupt, when non-nil, cancels the synthesis cooperatively: the
	// portfolio engine sets it once a sibling worker's repair makes this
	// attempt irrelevant. A cancelled synthesis returns ErrCancelled.
	Interrupt *atomic.Bool
	// Certify runs every solver in self-certifying mode: Unsat verdicts
	// are DRUP-checked and Sat models re-evaluated by the reference
	// interpreter. A failed check panics (it is a soundness bug).
	Certify bool
	// SharedPrefix, when non-nil, serves window start states from a
	// portfolio-wide snapshot cache built over the uninstrumented system
	// (template instrumentation is behaviour-preserving at φ = 0, so the
	// prefix states coincide). When it is nil or does not Cover this
	// synthesizer's state space, the synthesizer builds a private cache
	// over its own system.
	SharedPrefix *PrefixCache
	// Obs positions the synthesizer in the observability layer: every
	// window solve, incremental extension, and validation batch records a
	// span under Obs, and the underlying solvers inherit the scope. The
	// zero Scope (the default) disables all of it.
	Obs obs.Scope
}

// Solution is a satisfying synthesis-variable assignment.
type Solution struct {
	Assign  Assignment
	Changes int
}

// SynthStats reports work done by the synthesizer.
type SynthStats struct {
	Windows     int
	FinalWindow [2]int // k_past, k_future
	// SolverBuilds counts window solvers built: 1 once the first window
	// is encoded, 0 before. Window growth at either end adds cycles to
	// that one live solver instead of rebuilding it.
	SolverBuilds int
	// ExtendedCycles counts trace cycles added to the live solver's
	// clause database by window growth, appended (k_future) or prepended
	// (k_past).
	ExtendedCycles int
	// PrefixCycles counts concrete simulation steps spent computing
	// window start states (cached, so it stays linear in the trace
	// prefix instead of quadratic in the number of windows).
	PrefixCycles int
	// SAT holds the underlying CDCL statistics of the window solver.
	SAT sat.Statistics
	// Certify holds its certification work (model validations, DRUP
	// checks).
	Certify smt.CertifyStats
}

// ErrTimeout is returned when the deadline expires mid-synthesis.
var ErrTimeout = fmt.Errorf("core: synthesis timeout")

// ErrCancelled is returned when a synthesis is cancelled through
// SynthOptions.Interrupt (e.g. by the portfolio engine).
var ErrCancelled = fmt.Errorf("core: synthesis cancelled")

// winEnc is a live SMT encoding of the trace window [start, end): the
// circuit unrolled over those cycles' input values plus their
// expected-output constraints, asserted into an incremental solver. The
// window start state is not folded in: the states at step 0 of the head
// segment are free variables, bound to the prefix state by the assumptions in bind, as in
// incremental BMC (Eén & Sörensson 2003). The encoding therefore
// survives growth at both ends — newly unrolled cycles are appended to
// the tail or prepended before the head, as bitwuzla's assumption-based
// incremental interface allows the paper's artifact to do.
type winEnc struct {
	solver    *smt.Solver
	head      *tsys.Unrolling // segment whose step 0 is cycle start
	tail      *tsys.Unrolling // segment that ends at cycle end
	tailStart int             // trace cycle of tail's step 0
	start     int
	end       int         // exclusive
	bind      []*smt.Term // head step-0 state = prefix state, one per state
}

// samplingState carries the live minimal-repair enumeration of the most
// recently solved window, so Windowed can pull further samples out of
// the same clause database when none of the first batch is robust.
type samplingState struct {
	ok    bool
	bound *smt.Term // Σ cost·φ ≤ minimal
	last  Assignment
}

// Synthesizer runs repair synthesis for one instrumented design against
// one concretized trace.
type Synthesizer struct {
	ctx   *smt.Context
	sys   *tsys.System
	vars  *VarTable
	tr    *trace.Trace      // inputs fully concrete
	init  map[string]bv.XBV // concrete initial state (fully known)
	opts  SynthOptions
	Stats SynthStats

	win      *winEnc       // live window encoding (nil before the first solve)
	sampling samplingState // enumeration state of the last solved window

	// solver, when non-nil, is the portfolio worker's solver, which
	// newWindow resets instead of building a new one. The attempt that
	// owns the synthesizer is done with it once Windowed returns.
	solver *smt.Solver

	// prefix serves window start states: the register state after c
	// cycles of the unmodified (all φ = 0) circuit, extended
	// monotonically, so widening k_past re-simulates nothing.
	prefix *PrefixCache

	// prog is sys compiled for simulation, shared by validation and the
	// robustness fills (nil until first use).
	prog *sim.Program

	// afterCycle, when non-nil, is called after each trace cycle's
	// constraints are asserted (a test hook for cancellation).
	afterCycle func(cycle int)
}

// NewSynthesizer builds a synthesizer. tr must have concrete inputs and
// init must assign every uninitialized state (use Concretize).
func NewSynthesizer(ctx *smt.Context, sys *tsys.System, vars *VarTable, tr *trace.Trace, init map[string]bv.XBV, opts SynthOptions) *Synthesizer {
	prefix := opts.SharedPrefix
	if prefix == nil || !prefix.Covers(sys) {
		prefix = NewPrefixCache(sys, tr, init) // simulates sys at φ = 0
	}
	return &Synthesizer{ctx: ctx, sys: sys, vars: vars, tr: tr, init: init, opts: opts, prefix: prefix}
}

// Concretize resolves unknown initial states and input don't-cares of a
// trace per policy, returning the initial state map and a trace whose
// input cells are fully known. Expected outputs keep their don't-cares.
// The returned trace shares tr's columns, its output rows and every
// input row without an unknown cell; only a row it fills is copied, so
// tr itself is never modified.
func Concretize(sys *tsys.System, tr *trace.Trace, policy sim.UnknownPolicy, seed int64) (map[string]bv.XBV, *trace.Trace) {
	rng := rand.New(rand.NewSource(seed))
	fill := func(width int) bv.BV {
		switch policy {
		case sim.Randomize:
			return bv.FromWords(width, []uint64{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()})
		default:
			return bv.Zero(width)
		}
	}
	init := map[string]bv.XBV{}
	for _, st := range sys.States {
		if st.Init != nil {
			init[st.Var.Name] = bv.K(st.Init.Val)
		} else {
			init[st.Var.Name] = bv.K(fill(st.Var.Width))
		}
	}
	rows, cloned := tr.InputRows, false
	for i, row := range tr.InputRows {
		if !slices.ContainsFunc(row, bv.XBV.HasUnknown) {
			continue
		}
		if !cloned {
			rows, cloned = slices.Clone(rows), true
		}
		row = slices.Clone(row)
		for j, cell := range row {
			if cell.HasUnknown() {
				row[j] = bv.K(cell.Resolve(fill(cell.Width())))
			}
		}
		rows[i] = row
	}
	return init, &trace.Trace{Inputs: tr.Inputs, Outputs: tr.Outputs, InputRows: rows, OutputRows: tr.OutputRows}
}

func (s *Synthesizer) expired() bool {
	return !s.opts.Deadline.IsZero() && time.Now().After(s.opts.Deadline)
}

func (s *Synthesizer) interrupted() bool {
	return s.opts.Interrupt != nil && s.opts.Interrupt.Load()
}

// stopErr reports why the synthesis must stop now: ErrCancelled once
// Interrupt is raised, ErrTimeout past the deadline, nil otherwise.
func (s *Synthesizer) stopErr() error {
	if s.interrupted() {
		return ErrCancelled
	}
	if s.expired() {
		return ErrTimeout
	}
	return nil
}

// sumTerm builds Σ cost·φ over a variable table as a 16-bit term. The
// addends are combined as a balanced tree so the bit-blasted adder depth
// stays logarithmic in the number of φ sites.
func sumTerm(ctx *smt.Context, vars *VarTable) *smt.Term {
	const w = 16
	var addends []*smt.Term
	for _, p := range vars.Phis {
		t := ctx.LookupVar(p.Name)
		if t == nil {
			continue
		}
		term := ctx.ZeroExt(t, w)
		if p.Cost != 1 {
			term = ctx.Mul(term, ctx.ConstU(w, uint64(p.Cost)))
		}
		addends = append(addends, term)
	}
	return ctx.AddN(w, addends...)
}

// prefixState returns the register state the unmodified circuit (all
// φ = 0) reaches after the first `cycles` trace rows, from the prefix
// cache. The returned map is shared with the cache and must be treated
// as read-only.
func (s *Synthesizer) prefixState(cycles int) map[string]bv.XBV {
	st, simulated := s.prefix.StateAt(cycles)
	s.Stats.PrefixCycles += simulated
	return st
}

// program returns the synthesizer's compiled system.
func (s *Synthesizer) program() *sim.Program {
	if s.prog == nil {
		s.prog = sim.Compile(s.sys)
	}
	return s.prog
}

// newSim builds a cycle simulator seeded with the concrete initial state
// and the given synthesis-variable assignment.
func (s *Synthesizer) newSim(a Assignment) *sim.CycleSim {
	cs := sim.NewSim(s.program(), sim.Zero, s.opts.Seed)
	for name, v := range s.init {
		cs.SetState(name, v)
	}
	cs.SetParams(a)
	return cs
}

// Validate runs the full trace under an assignment.
func (s *Synthesizer) Validate(a Assignment) *sim.RunResult {
	cs := s.newSim(a)
	return sim.RunTraceFrom(cs, s.tr, 0, sim.RunOptions{Policy: sim.Zero})
}

// robust re-runs the full trace under alternative concretizations of the
// uninitialized state. A repair that only passes for one choice of the
// X values is overfitted to the concretization (§4.3 discusses exactly
// this hazard of randomized testing); when a window yields several
// minimal repairs, the ones that survive every re-concretization are
// preferred.
func (s *Synthesizer) robust(a Assignment) bool {
	// Two deterministic fills (all-zeros, all-ones) cover narrow states
	// that a couple of random draws can miss; two seeded random fills
	// cover wide ones.
	fills := []func(width int) bv.BV{
		func(width int) bv.BV { return bv.Zero(width) },
		func(width int) bv.BV { return bv.Zero(width).Not() },
	}
	for extra := int64(1); extra <= 2; extra++ {
		rng := rand.New(rand.NewSource(s.opts.Seed + extra))
		fills = append(fills, func(width int) bv.BV {
			return bv.FromWords(width,
				[]uint64{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()})
		})
	}
	for _, fill := range fills {
		cs := sim.NewSim(s.program(), sim.Zero, 0)
		for _, st := range s.sys.States {
			if st.Init != nil {
				cs.SetState(st.Var.Name, bv.K(st.Init.Val))
			} else {
				cs.SetState(st.Var.Name, bv.K(fill(st.Var.Width)))
			}
		}
		cs.SetParams(a)
		if !sim.RunTraceFrom(cs, s.tr, 0, sim.RunOptions{Policy: sim.Zero}).Passed() {
			return false
		}
	}
	return true
}

// encodeWindow returns the live encoding of cycles [start, end), with
// startState the register state at cycle start. The synthesizer keeps
// one solver for its whole run. The first call unrolls the window with
// free step-0 state variables; later calls may only widen the window.
// k_future growth appends cycles to the tail segment, and k_past growth
// prepends a segment whose final state is linked to the old start
// variables, so every learned clause stays valid (CDCL derives them from
// the clause database, never from the binding assumptions). The
// blocking clauses asserted while sampling earlier windows stay in
// force, which is sound because every blocked assignment already failed
// full-trace validation or re-concretization.
func (s *Synthesizer) encodeWindow(start, end int, startState map[string]bv.XBV, sc obs.Scope) (*winEnc, error) {
	w := s.win
	if w != nil && (start > w.start || end < w.end) {
		return nil, fmt.Errorf("core: window [%d, %d) does not contain the live window [%d, %d)",
			start, end, w.start, w.end)
	}
	for _, st := range s.sys.States {
		if _, ok := startState[st.Var.Name]; !ok {
			return nil, fmt.Errorf("core: missing start state for %q", st.Var.Name)
		}
	}
	if w == nil {
		var err error
		if w, err = s.newWindow(start, end, sc); err != nil {
			return nil, err
		}
	} else {
		// Re-point the live encoding at the current window's scope so the
		// "tsys.extend" and "smt.check" spans nest under it.
		w.tail.SetObs(sc)
		w.solver.SetObs(sc)
		if start < w.start {
			if err := s.prependCycles(w, start, sc); err != nil {
				return nil, err
			}
		}
		if end > w.end {
			if err := s.appendCycles(w, end, sc); err != nil {
				return nil, err
			}
		}
	}
	if w.bind == nil {
		for _, st := range s.sys.States {
			v := startState[st.Var.Name]
			w.bind = append(w.bind, s.ctx.Eq(w.head.StateAt(0, st.Var), s.ctx.Const(v.Val)))
		}
	}
	return w, nil
}

// newWindow builds the synthesizer's window solver over cycles
// [start, end), resetting the worker's solver when it has one. The
// step-0 states are left free for the binding assumptions.
func (s *Synthesizer) newWindow(start, end int, sc obs.Scope) (*winEnc, error) {
	span := sc.Start("encode")
	u := tsys.Unroll(s.ctx, s.sys, 0, nil, traceInputs(s.ctx, s.tr, start))
	solver := s.solver
	if solver != nil {
		solver.Reset()
	} else {
		solver = smt.NewSolver(s.ctx)
	}
	if s.opts.Certify {
		solver.EnableCertification()
	}
	solver.SetDeadline(s.opts.Deadline)
	solver.SetInterrupt(s.opts.Interrupt)
	solver.SetObs(sc)
	err := s.assertCycles(solver, u, start, start, end)
	span.End(obs.Int("cycles", int64(end-start)), obs.Bool("build", true))
	if err != nil {
		return nil, err
	}
	u.SetObs(sc)
	s.Stats.SolverBuilds++
	sc.Metrics.Add("synth.solver_builds", 1)
	s.win = &winEnc{solver: solver, head: u, tail: u, tailStart: start, start: start, end: end}
	return s.win, nil
}

// appendCycles grows the window's future boundary to end by extending
// the tail segment.
func (s *Synthesizer) appendCycles(w *winEnc, end int, sc obs.Scope) error {
	from := w.end
	w.tail.Extend(s.ctx, end-from)
	span := sc.Start("encode")
	err := s.assertCycles(w.solver, w.tail, w.tailStart, from, end)
	span.End(obs.Int("cycles", int64(end-from)))
	if err != nil {
		return err
	}
	s.Stats.ExtendedCycles += end - from
	sc.Metrics.Add("synth.extended_cycles", int64(end-from))
	w.end = end
	return nil
}

// prependCycles grows the window's past boundary to start: it unrolls
// cycles [start, w.start) as a new head segment, asserts their trace
// constraints, links the segment's final state to the old head's step-0
// state variables, and drops the old binding.
func (s *Synthesizer) prependCycles(w *winEnc, start int, sc obs.Scope) error {
	k := w.start - start
	span := sc.Start("encode")
	u := tsys.UnrollTagged(s.ctx, s.sys, 0, nil, fmt.Sprintf("p%d", start), traceInputs(s.ctx, s.tr, start))
	err := s.assertCycles(w.solver, u, start, start, w.start)
	if err == nil {
		for _, st := range s.sys.States {
			w.solver.Assert(s.ctx.Eq(w.head.StateAt(0, st.Var), u.StateAt(k, st.Var)))
		}
	}
	span.End(obs.Int("cycles", int64(k)), obs.Bool("prepend", true))
	if err != nil {
		return err
	}
	s.Stats.ExtendedCycles += k
	sc.Metrics.Add("synth.extended_cycles", int64(k))
	w.head, w.start, w.bind = u, start, nil
	return nil
}

// assertCycles asserts into solver the expected-output constraints for
// cycles [from, to) of the segment u, whose step 0 is trace cycle base,
// unrolling u one step further per cycle where it is shorter. Before
// each cycle it polls Interrupt and the deadline, so a cancelled or
// expired synthesis stops encoding within one cycle.
func (s *Synthesizer) assertCycles(solver *smt.Solver, u *tsys.Unrolling, base, from, to int) error {
	for cycle := from; cycle < to; cycle++ {
		if err := s.stopErr(); err != nil {
			return err
		}
		k := cycle - base
		if u.Steps <= k {
			u.Extend(s.ctx, k+1-u.Steps)
		}
		assertExpected(s.ctx, solver, s.tr, cycle, u, k)
		if s.afterCycle != nil {
			s.afterCycle(cycle)
		}
	}
	return nil
}

// traceInputs returns the input instances of an unrolling whose step 0
// is trace cycle base: each trace row's constant, zero for an input the
// testbench does not drive (the validation simulator reads those as
// zero), and nil — a fresh variable — past the last trace cycle.
func traceInputs(ctx *smt.Context, tr *trace.Trace, base int) tsys.InputFunc {
	cols := map[*smt.Term]int{}
	return func(k int, in *smt.Term) *smt.Term {
		cycle := base + k
		if cycle >= tr.Len() {
			return nil
		}
		idx, ok := cols[in]
		if !ok {
			idx = tr.InputIndex(in.Name)
			cols[in] = idx
		}
		if idx < 0 {
			return ctx.Const(bv.Zero(in.Width))
		}
		return ctx.Const(tr.InputRows[cycle][idx].Val)
	}
}

// assertExpected asserts into solver the expected outputs of trace row
// cycle on step k of u. Fully known columns become equalities and
// partly known ones masked equalities; a column whose width the design's
// output does not match (e.g. a declaration bug) asserts False, since no
// assignment can satisfy its checked bits.
func assertExpected(ctx *smt.Context, solver *smt.Solver, tr *trace.Trace, cycle int, u *tsys.Unrolling, k int) {
	for i, sig := range tr.Outputs {
		exp := tr.OutputRows[cycle][i]
		if exp.Known.IsZero() {
			continue // fully don't-care
		}
		outExpr := u.OutputAt(k, sig.Name)
		switch {
		case outExpr == nil:
		case outExpr.Width != exp.Width():
			solver.Assert(ctx.False())
		case exp.Known.IsOnes():
			solver.Assert(ctx.Eq(outExpr, ctx.Const(exp.Val)))
		default:
			mask := ctx.Const(exp.Known)
			solver.Assert(ctx.Eq(ctx.And(outExpr, mask), ctx.Const(exp.Val.And(exp.Known))))
		}
	}
}

// check runs one query on the live window solver under the window's
// start-state binding and the given assumptions.
func (s *Synthesizer) check(assumptions ...*smt.Term) (sat.Status, error) {
	solver := s.win.solver
	// The binding goes first: the solver decides assumptions in order,
	// so the start state is fixed before any change bound.
	st, err := solver.Check(append(append([]*smt.Term{}, s.win.bind...), assumptions...)...)
	s.Stats.SAT = solver.SATStats()
	s.Stats.Certify = solver.CertifyStats()
	return st, stopCause(err)
}

// stopCause maps a solver error to the synthesizer's cancellation or
// timeout error (nil stays nil).
func stopCause(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, sat.ErrInterrupted):
		return ErrCancelled
	}
	return ErrTimeout
}

// readModel reads every synthesis variable of vars from the solver's
// last Sat model.
func readModel(ctx *smt.Context, solver *smt.Solver, vars *VarTable) Assignment {
	a := Assignment{}
	for _, p := range vars.Phis {
		if t := ctx.LookupVar(p.Name); t != nil {
			a[p.Name] = solver.Value(t)
		}
	}
	for _, al := range vars.Alphas {
		if t := ctx.LookupVar(al.Name); t != nil {
			a[al.Name] = solver.Value(t)
		}
	}
	return a
}

// minimalModel is the minimal-change linear search of §4.3 on a solver
// whose last check was Sat: it checks Σ cost·φ ≤ k for k = 0, 1, …
// below the first model's change count, up to maxChanges, and keeps the
// first Sat model. It returns that model and the bound Σ cost·φ ≤ k it
// meets, under which further minimal repairs can be sampled. With
// noMinimize the first model is returned as is, with a nil bound. check
// runs one query under the given assumptions.
func minimalModel(ctx *smt.Context, solver *smt.Solver, vars *VarTable, noMinimize bool,
	check func(...*smt.Term) (sat.Status, error)) (Assignment, *smt.Term, error) {
	// The sum is built even with noMinimize: term ids order Eq operands,
	// so skipping it would change how later windows are encoded.
	sum := sumTerm(ctx, vars)
	best := readModel(ctx, solver, vars)
	first := vars.Changes(best)
	if noMinimize {
		return best, nil, nil
	}
	minimal := first
	for k := 0; k < first && k <= maxChanges; k++ {
		st, err := check(ctx.Ule(sum, ctx.ConstU(16, uint64(k))))
		if err != nil {
			return nil, nil, err
		}
		if st == sat.Sat {
			best = readModel(ctx, solver, vars)
			minimal = k
			break
		}
	}
	return best, ctx.Ule(sum, ctx.ConstU(16, uint64(minimal))), nil
}

// solveWindow grows the live encoding to cycles [start, end) from the
// given start state and returns up to MaxSamples minimal solutions, or
// nil when the window is unsatisfiable.
func (s *Synthesizer) solveWindow(start, end int, startState map[string]bv.XBV) (sols []*Solution, err error) {
	wsc := s.opts.Obs.WithLabel(fmt.Sprintf("w%d-%d", start, end)).Start("window")
	wsc.Event(obs.EvProgress, "window.solve",
		obs.Int("cycle_start", int64(start)), obs.Int("cycle_end", int64(end)))
	defer func() {
		wsc.Event(obs.EvProgress, "window.done", obs.Int("solutions", int64(len(sols))))
		wsc.End(obs.Int("solutions", int64(len(sols))))
	}()
	s.sampling = samplingState{}
	w, err := s.encodeWindow(start, end, startState, wsc)
	if err != nil {
		return nil, err
	}
	st, err := s.check()
	if err != nil {
		return nil, err
	}
	if st != sat.Sat {
		return nil, nil
	}
	best, bound, err := minimalModel(s.ctx, w.solver, s.vars, s.opts.NoMinimize, s.check)
	if err != nil {
		return nil, err
	}
	sols = []*Solution{{Assign: best, Changes: s.vars.Changes(best)}}
	if s.opts.NoMinimize {
		return sols, nil
	}
	// Sample further minimal repairs by blocking found ones (§4.4:
	// "we generally sample all minimal repairs for a given window").
	s.sampling = samplingState{ok: true, bound: bound, last: best}
	return s.drawSamples(sols)
}

// moreSamples continues the minimal-repair enumeration of the current
// window, returning the next batch of up to MaxSamples solutions. The
// live incremental encoding makes this a matter of asserting one more
// blocking clause per sample — no re-unrolling, no solver rebuild. An
// empty batch means the window has no further minimal repairs.
func (s *Synthesizer) moreSamples() (sols []*Solution, err error) {
	if !s.sampling.ok || s.win == nil {
		return nil, nil
	}
	xsc := s.opts.Obs.WithLabel(fmt.Sprintf("w%d-%d", s.win.start, s.win.end)).Start("window-extra")
	defer func() {
		xsc.Event(obs.EvProgress, "window.extra", obs.Int("solutions", int64(len(sols))))
		xsc.End(obs.Int("solutions", int64(len(sols))))
	}()
	s.win.solver.SetObs(xsc)
	return s.drawSamples(nil)
}

// drawSamples extends sols with further minimal repairs of the live
// window until it holds MaxSamples: each draw blocks the last repair
// found and asks for another under the window's change bound. An Unsat
// answer ends the window's enumeration.
func (s *Synthesizer) drawSamples(sols []*Solution) ([]*Solution, error) {
	for len(sols) < s.opts.MaxSamples {
		s.win.solver.Assert(s.blockingClause(s.sampling.last))
		st, err := s.check(s.sampling.bound)
		if err != nil {
			return nil, err
		}
		if st != sat.Sat {
			s.sampling.ok = false
			break
		}
		a := readModel(s.ctx, s.win.solver, s.vars)
		s.sampling.last = a
		sols = append(sols, &Solution{Assign: a, Changes: s.vars.Changes(a)})
	}
	return sols, nil
}

// blockingClause forbids the exact repair: the same φ pattern with the
// same α values on enabled changes.
func (s *Synthesizer) blockingClause(a Assignment) *smt.Term {
	var conj []*smt.Term
	for _, p := range s.vars.Phis {
		t := s.ctx.LookupVar(p.Name)
		if t == nil {
			continue
		}
		conj = append(conj, s.ctx.Eq(t, s.ctx.Const(a[p.Name].Resize(1))))
	}
	enabled := map[string]bool{}
	for _, p := range s.vars.Phis {
		if v, ok := a[p.Name]; ok && !v.IsZero() {
			enabled[p.Name] = true
		}
	}
	// Alphas matter whenever any change is enabled; block them all to
	// keep the clause simple — sampling only needs "different" repairs.
	if len(enabled) > 0 {
		for _, al := range s.vars.Alphas {
			t := s.ctx.LookupVar(al.Name)
			if t == nil {
				continue
			}
			conj = append(conj, s.ctx.Eq(t, s.ctx.Const(a[al.Name].Resize(al.Width))))
		}
	}
	// Balanced conjunction keeps the Tseitin gate depth logarithmic in
	// the number of synthesis variables.
	return s.ctx.Not(s.ctx.AndN(conj...))
}

// Basic runs the basic synthesizer (§4.3): one unrolling over the whole
// trace from the concrete initial state. The returned solution passes
// the trace by construction; nil means the template cannot repair.
func (s *Synthesizer) Basic() (*Solution, error) {
	if err := s.stopErr(); err != nil {
		return nil, err
	}
	if s.tr.Len() > maxBasicSteps {
		return nil, ErrTimeout
	}
	sols, err := s.solveWindow(0, s.tr.Len(), s.init)
	if err != nil || len(sols) == 0 {
		return nil, err
	}
	// With a full-trace unrolling every minimal solution is already
	// validated by construction; still validate to guard against
	// concretization mismatches, and prefer repairs that survive
	// re-concretization of the unknown initial state.
	robustSol, passing, _, _ := s.validateBatch(sols, 0, nil, -1)
	if robustSol != nil {
		return robustSol, nil
	}
	if passing != nil {
		return passing, nil
	}
	return sols[0], nil
}

// validateBatch runs full-trace validation over one batch of window
// solutions under a "validate" span. It returns the first solution that
// also survives re-concretization (robust), the updated fragile
// fallback, whether every sample passed the trace, and the updated
// latest post-window failure cycle.
func (s *Synthesizer) validateBatch(sols []*Solution, firstFailure int, fragile *Solution, latestFuture int) (robustSol, fragileOut *Solution, allPassed bool, latestOut int) {
	span := s.opts.Obs.Start("validate")
	defer func() {
		span.End(obs.Int("samples", int64(len(sols))), obs.Bool("robust_found", robustSol != nil))
	}()
	fragileOut, latestOut, allPassed = fragile, latestFuture, true
	for _, sol := range sols {
		res := s.Validate(sol.Assign)
		if res.Passed() {
			if s.robust(sol.Assign) {
				robustSol = sol
				return
			}
			if fragileOut == nil {
				fragileOut = sol
			}
			continue
		}
		allPassed = false
		if res.FirstFailure > firstFailure && res.FirstFailure > latestOut {
			latestOut = res.FirstFailure
		}
	}
	return
}

// Windowed runs the adaptive windowing synthesizer (§4.4) around the
// given first output divergence. Among the minimal repairs of a window
// it prefers one that also survives re-concretization of the unknown
// initial state; a repair that only passes the trace as concretized is
// remembered as a fragile fallback and returned when the search
// exhausts its window or time budget without a robust alternative.
func (s *Synthesizer) Windowed(firstFailure int) (*Solution, error) {
	var robustSol, fragile *Solution // fragile passes the trace, fails re-concretization
	err := s.growWindows(firstFailure, func(sols []*Solution) (bool, int, error) {
		latestFuture := -1
		// When every sample passes the trace but none is robust, the
		// window is rich in trace-equivalent repairs; keep enumerating
		// from the live encoding before growing the window.
		extendBudget := 3 * s.opts.MaxSamples
		for len(sols) > 0 {
			var allPassed bool
			robustSol, fragile, allPassed, latestFuture = s.validateBatch(sols, firstFailure, fragile, latestFuture)
			if robustSol != nil {
				return true, latestFuture, nil
			}
			if !allPassed || len(sols) < s.opts.MaxSamples || extendBudget <= 0 {
				break
			}
			extendBudget -= len(sols)
			var err error
			if sols, err = s.moreSamples(); err != nil {
				return false, latestFuture, err
			}
		}
		return false, latestFuture, nil
	})
	switch {
	case robustSol != nil:
		return robustSol, nil
	case err == nil || errors.Is(err, ErrTimeout) && fragile != nil:
		return fragile, nil
	}
	return nil, err
}

// growWindows is the window growth of §4.4 around the first output
// divergence ff. It solves the windows [ff-k_past, ff+k_future] from
// k_past = k_future = 0 and hands each window's minimal repairs to try,
// which reports whether the search is done and the latest cycle past ff
// at which one of them failed the trace. A repair failing past the
// window's future boundary grows k_future to that cycle; an Unsat window
// or any other failure grows k_past by pastStep. The search gives up,
// returning nil, once k_past+k_future exceeds MaxWindow; it returns
// ErrCancelled or ErrTimeout when interrupted or out of time. Windowed
// is the only repair-flow caller; try stays a callback because
// TestBackwardGrowthMatchesRebuild drives the same growth rule with its
// own check of every window.
func (s *Synthesizer) growWindows(ff int, try func(sols []*Solution) (done bool, latestFuture int, err error)) error {
	kPast, kFuture := 0, 0
	for {
		if err := s.stopErr(); err != nil {
			return err
		}
		if kPast+kFuture > MaxWindow {
			return nil
		}
		s.Stats.Windows++
		s.opts.Obs.Metrics.Add("synth.windows", 1)
		s.Stats.FinalWindow = [2]int{kPast, kFuture}
		start := max(ff-kPast, 0)
		end := min(ff+kFuture+1, s.tr.Len())
		sols, err := s.solveWindow(start, end, s.prefixState(start))
		if err != nil {
			return err
		}
		if len(sols) == 0 && start == 0 {
			// Unsat with the start clamped at cycle 0: growing k_past
			// cannot move the start, k_future grows only on a Sat window,
			// and the solver only gains clauses, so every later window is
			// this same Unsat window.
			return nil
		}
		latestFuture := -1
		if len(sols) > 0 {
			var done bool
			if done, latestFuture, err = try(sols); done || err != nil {
				return err
			}
		}
		if latestFuture > ff && latestFuture-ff > kFuture {
			// A repair fixed the original failure but failed later: the
			// window is missing future context.
			kFuture = latestFuture - ff
		} else {
			// No repair matches this window, or its repairs fail too early:
			// assume a state update in the past went wrong and widen
			// backwards.
			kPast += pastStep
		}
	}
}
