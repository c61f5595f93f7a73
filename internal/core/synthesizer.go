package core

import (
	"errors"
	"fmt"
	"math/rand"
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

// SynthOptions configures the repair synthesizer.
type SynthOptions struct {
	// Policy resolves unknown initial states and undriven inputs (§4.3).
	Policy sim.UnknownPolicy
	Seed   int64
	// Deadline bounds the whole synthesis (zero = none).
	Deadline time.Time
	// MaxChanges caps the minimal-change linear search.
	MaxChanges int
	// MaxWindow is the largest k_past+k_future before giving up (§4.4).
	MaxWindow int
	// PastStep is the k_past increment.
	PastStep int
	// MaxSamples bounds how many minimal repairs are validated per
	// window before advancing.
	MaxSamples int
	// MaxBasicSteps caps the basic synthesizer's full unrolling; longer
	// traces are reported as timeouts (the paper's basic synthesizer
	// times out on exactly these benchmarks, §6.3).
	MaxBasicSteps int
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
	// NoAbsint disables the abstract-interpretation term simplifier
	// (A/B measurement of its CNF impact).
	NoAbsint bool
	// ShadowCNF attaches a passive shadow encoder with the simplifier off
	// to every window solver. The shadow blasts the identical assert
	// stream but never solves, so its CNF statistics measure the
	// no-absint encoding size along the exact search path the live run
	// takes (the corpus never-worse test, TestAbsintNeverWorse).
	ShadowCNF bool
	// SharedPrefix, when non-nil, serves window start states from a
	// portfolio-wide snapshot cache instead of this synthesizer's
	// private prefix simulation. Only used when the cache Covers this
	// synthesizer's state space (template instrumentation is
	// behaviour-preserving at φ = 0, so the prefix states coincide);
	// otherwise the private path runs as before.
	SharedPrefix *PrefixCache
	// Obs positions the synthesizer in the observability layer: every
	// window solve, incremental extension, and validation batch records a
	// span under Obs, and the underlying solvers inherit the scope. The
	// zero Scope (the default) disables all of it.
	Obs obs.Scope
}

// DefaultSynthOptions mirrors the paper's constants: window cap 32, past
// step 2, four failing repairs per window.
func DefaultSynthOptions() SynthOptions {
	return SynthOptions{
		Policy:        sim.Randomize,
		MaxChanges:    10,
		MaxWindow:     32,
		PastStep:      2,
		MaxSamples:    4,
		MaxBasicSteps: 1500,
	}
}

// Solution is a satisfying synthesis-variable assignment.
type Solution struct {
	Assign  Assignment
	Changes int
}

// SynthStats reports work done by the synthesizer.
type SynthStats struct {
	SolverChecks int
	Windows      int
	FinalWindow  [2]int // k_past, k_future
	Unrollings   int
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
	// Abs holds its abstract-interpretation work (facts learned,
	// rewrites, never-worse guard fallbacks).
	Abs smt.AbsStats
	// Shadow holds the CNF statistics of the no-absint shadow encoder
	// when SynthOptions.ShadowCNF is on (zero otherwise).
	Shadow sat.Statistics
	// FactCacheHits/FactCacheSize report the cross-window base-fact
	// cache: hits are transfer computations served from earlier windows.
	FactCacheHits int64
	FactCacheSize int
}

// ErrTimeout is returned when the deadline expires mid-synthesis.
var ErrTimeout = fmt.Errorf("core: synthesis timeout")

// ErrCancelled is returned when a synthesis is cancelled through
// SynthOptions.Interrupt (e.g. by the portfolio engine).
var ErrCancelled = fmt.Errorf("core: synthesis cancelled")

// winEnc is a live SMT encoding of the trace window [start, end): the
// unrolled circuit plus the input/output constraints of those cycles,
// asserted into an incremental solver. The window start state is not
// folded in: the states at step 0 of the head segment are free
// variables, bound to the prefix state by the assumptions in bind, as in
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

	// Prefix snapshot cache: snaps[c] is the register state after c
	// cycles of the unmodified (all φ = 0) circuit. The cache extends
	// monotonically with one persistent simulator, so widening k_past
	// re-simulates nothing.
	snaps   []map[string]bv.XBV
	snapSim *sim.CycleSim

	// prog is sys compiled for simulation, shared by validation, the
	// robustness fills and the prefix simulator (nil until first use).
	prog *sim.Program

	// facts caches environment-free abstract facts keyed on hash-consed
	// term identity, so window extensions re-derive nothing for terms
	// that survive from earlier windows (§cross-window caching).
	facts *smt.FactCache

	// sharedOK memoizes SharedPrefix.Covers(sys): 0 undecided, 1 the
	// shared cache serves this synthesizer, -1 private fallback.
	sharedOK int8
}

// NewSynthesizer builds a synthesizer. tr must have concrete inputs and
// init must assign every uninitialized state (use Concretize).
func NewSynthesizer(ctx *smt.Context, sys *tsys.System, vars *VarTable, tr *trace.Trace, init map[string]bv.XBV, opts SynthOptions) *Synthesizer {
	s := &Synthesizer{ctx: ctx, sys: sys, vars: vars, tr: tr, init: init, opts: opts}
	if !opts.NoAbsint {
		s.facts = smt.NewFactCache()
	}
	return s
}

// Concretize resolves unknown initial states and input don't-cares of a
// trace per policy, returning the initial state map and a trace whose
// input cells are fully known. Expected outputs keep their don't-cares.
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
	out := tr.Clone()
	for i := range out.InputRows {
		for j, cell := range out.InputRows[i] {
			if cell.HasUnknown() {
				out.InputRows[i][j] = bv.K(cell.Resolve(fill(cell.Width())))
			}
		}
	}
	return init, out
}

func (s *Synthesizer) expired() bool {
	return !s.opts.Deadline.IsZero() && time.Now().After(s.opts.Deadline)
}

func (s *Synthesizer) interrupted() bool {
	return s.opts.Interrupt != nil && s.opts.Interrupt.Load()
}

// allVars returns every synthesis variable term.
func (s *Synthesizer) allVars() []*smt.Term {
	var out []*smt.Term
	for _, p := range s.vars.Phis {
		if t := s.ctx.LookupVar(p.Name); t != nil {
			out = append(out, t)
		}
	}
	for _, a := range s.vars.Alphas {
		if t := s.ctx.LookupVar(a.Name); t != nil {
			out = append(out, t)
		}
	}
	return out
}

// sumTerm builds Σ cost·φ as a 16-bit term. The addends are combined as
// a balanced tree so the bit-blasted adder depth stays logarithmic in
// the number of φ sites.
func (s *Synthesizer) sumTerm() *smt.Term {
	const w = 16
	var addends []*smt.Term
	for _, p := range s.vars.Phis {
		t := s.ctx.LookupVar(p.Name)
		if t == nil {
			continue
		}
		term := s.ctx.ZeroExt(t, w)
		if p.Cost != 1 {
			term = s.ctx.Mul(term, s.ctx.ConstU(w, uint64(p.Cost)))
		}
		addends = append(addends, term)
	}
	return s.ctx.AddN(w, addends...)
}

// prefixState returns the register state the unmodified circuit (all
// φ = 0) reaches after the first `cycles` trace rows. Snapshots are
// cached per cycle and extended with one persistent simulator, so the
// window search's repeated calls with shrinking `start` cost O(n) total
// instead of O(n²). The returned map is shared with the cache and must
// be treated as read-only.
func (s *Synthesizer) prefixState(cycles int) map[string]bv.XBV {
	if s.opts.SharedPrefix != nil {
		if s.sharedOK == 0 {
			if s.opts.SharedPrefix.Covers(s.sys) {
				s.sharedOK = 1
			} else {
				s.sharedOK = -1
			}
		}
		if s.sharedOK == 1 {
			st, simulated := s.opts.SharedPrefix.StateAt(cycles)
			s.Stats.PrefixCycles += simulated
			return st
		}
	}
	if s.snapSim == nil {
		zero := Assignment{}
		for _, p := range s.vars.Phis {
			zero[p.Name] = bv.Zero(1)
		}
		for _, a := range s.vars.Alphas {
			zero[a.Name] = bv.Zero(a.Width)
		}
		s.snapSim = s.newSim(zero)
		s.snaps = append(s.snaps, s.snapSim.Snapshot())
	}
	for len(s.snaps) <= cycles {
		s.snapSim.StepTrace(s.tr, len(s.snaps)-1)
		s.snaps = append(s.snaps, s.snapSim.Snapshot())
		s.Stats.PrefixCycles++
	}
	return s.snaps[cycles]
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
		w = s.newWindow(start, end, sc)
	} else {
		// Re-point the live encoding at the current window's scope so the
		// "tsys.extend" and "smt.check" spans nest under it.
		w.tail.SetObs(sc)
		w.solver.SetObs(sc)
		if start < w.start {
			s.prependCycles(w, start, sc)
		}
		if end > w.end {
			s.appendCycles(w, end, sc)
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
// [start, end). The step-0 states are left free for the binding
// assumptions.
func (s *Synthesizer) newWindow(start, end int, sc obs.Scope) *winEnc {
	span := sc.Start("encode")
	u := tsys.Unroll(s.ctx, s.sys, end-start, nil)
	u.SetObs(sc)
	u.SetFactCache(s.facts)
	solver := smt.NewSolver(s.ctx)
	if s.opts.NoAbsint {
		solver.DisableSimplify()
	} else {
		solver.SetFactCache(s.facts)
	}
	if s.opts.ShadowCNF {
		solver.AddShadow()
	}
	if s.opts.Certify {
		solver.EnableCertification()
	}
	solver.SetDeadline(s.opts.Deadline)
	solver.SetInterrupt(s.opts.Interrupt)
	solver.SetObs(sc)
	w := &winEnc{solver: solver, head: u, tail: u, tailStart: start, start: start, end: end}
	s.assertCycles(solver, u, start, start, end)
	span.End(obs.Int("cycles", int64(end-start)), obs.Bool("build", true))
	s.Stats.SolverBuilds++
	sc.Metrics.Add("synth.solver_builds", 1)
	s.win = w
	return w
}

// appendCycles grows the window's future boundary to end by extending
// the tail segment.
func (s *Synthesizer) appendCycles(w *winEnc, end int, sc obs.Scope) {
	from := w.end
	w.tail.Extend(s.ctx, end-from)
	span := sc.Start("encode")
	s.assertCycles(w.solver, w.tail, w.tailStart, from, end)
	span.End(obs.Int("cycles", int64(end-from)))
	s.Stats.ExtendedCycles += end - from
	sc.Metrics.Add("synth.extended_cycles", int64(end-from))
	w.end = end
}

// prependCycles grows the window's past boundary to start: it unrolls
// cycles [start, w.start) as a new head segment, asserts their trace
// constraints, links the segment's final state to the old head's step-0
// state variables, and drops the old binding. The cycle constraints go
// in before the links, in trace order, so the simplifier learns nothing
// from a link that would re-simplify structure already blasted.
func (s *Synthesizer) prependCycles(w *winEnc, start int, sc obs.Scope) {
	k := w.start - start
	span := sc.Start("encode")
	u := tsys.UnrollTagged(s.ctx, s.sys, k, nil, fmt.Sprintf("p%d", start))
	s.assertCycles(w.solver, u, start, start, w.start)
	for _, st := range s.sys.States {
		w.solver.Assert(s.ctx.Eq(w.head.StateAt(0, st.Var), u.StateAt(k, st.Var)))
	}
	span.End(obs.Int("cycles", int64(k)), obs.Bool("prepend", true))
	s.Stats.ExtendedCycles += k
	sc.Metrics.Add("synth.extended_cycles", int64(k))
	w.head, w.start, w.bind = u, start, nil
}

// assertCycles asserts into solver the trace input pins and the
// expected-output constraints for cycles [from, to) of the segment u,
// whose step 0 is trace cycle base.
func (s *Synthesizer) assertCycles(solver *smt.Solver, u *tsys.Unrolling, base, from, to int) {
	for cycle := from; cycle < to; cycle++ {
		k := cycle - base
		for _, in := range s.sys.Inputs {
			idx := s.tr.InputIndex(in.Name)
			if idx < 0 {
				// Inputs the testbench does not drive read as zero in the
				// validation simulator; pin them for consistency.
				solver.Assert(s.ctx.Eq(u.InputAt(k, in), s.ctx.Const(bv.Zero(in.Width))))
				continue
			}
			cell := s.tr.InputRows[cycle][idx]
			solver.Assert(s.ctx.Eq(u.InputAt(k, in), s.ctx.Const(cell.Val)))
		}
		for i, sig := range s.tr.Outputs {
			exp := s.tr.OutputRows[cycle][i]
			if exp.Known.IsZero() {
				continue // fully don't-care
			}
			outExpr := u.OutputAt(k, sig.Name)
			if outExpr == nil {
				continue
			}
			if outExpr.Width != exp.Width() {
				// The design's output width does not match the trace
				// column (e.g. a declaration bug): no assignment can
				// satisfy the checked bits.
				solver.Assert(s.ctx.False())
				continue
			}
			if exp.Known.IsOnes() {
				solver.Assert(s.ctx.Eq(outExpr, s.ctx.Const(exp.Val)))
			} else {
				mask := s.ctx.Const(exp.Known)
				solver.Assert(s.ctx.Eq(s.ctx.And(outExpr, mask), s.ctx.Const(exp.Val.And(exp.Known))))
			}
		}
	}
}

// check runs one query on the live window solver under the window's
// start-state binding and the given assumptions, mapping low-level
// errors to the synthesizer's timeout/cancellation errors.
func (s *Synthesizer) check(assumptions ...*smt.Term) (sat.Status, error) {
	s.Stats.SolverChecks++
	solver := s.win.solver
	// The binding goes first: the solver decides assumptions in order,
	// so the start state is fixed before any change bound.
	st, err := solver.Check(append(append([]*smt.Term{}, s.win.bind...), assumptions...)...)
	s.Stats.SAT = solver.SATStats()
	s.Stats.Certify = solver.CertifyStats()
	s.Stats.Abs = solver.AbsStats()
	s.Stats.Shadow = solver.ShadowStats()
	if s.facts != nil {
		s.Stats.FactCacheHits = s.facts.Hits
		s.Stats.FactCacheSize = s.facts.Len()
	}
	if err != nil {
		if errors.Is(err, sat.ErrInterrupted) {
			return st, ErrCancelled
		}
		return st, ErrTimeout
	}
	return st, nil
}

// solveWindow grows the live encoding to cycles [start, end) from the
// given start state and returns up to MaxSamples minimal solutions, or
// nil when the window is unsatisfiable.
func (s *Synthesizer) solveWindow(start, end int, startState map[string]bv.XBV) (sols []*Solution, err error) {
	s.Stats.Unrollings++
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
	solver := w.solver

	st, err := s.check()
	if err != nil {
		return nil, err
	}
	if st != sat.Sat {
		return nil, nil
	}

	// Minimal-change linear search (§4.3): Σφ ≤ k for k = 0, 1, 2, …
	sum := s.sumTerm()
	vars := s.allVars()
	readModel := func() Assignment {
		a := Assignment{}
		for _, v := range vars {
			a[v.Name] = solver.Value(v)
		}
		return a
	}
	best := readModel()
	bestChanges := s.vars.Changes(best)
	minimal := bestChanges
	if s.opts.NoMinimize {
		return []*Solution{{Assign: best, Changes: bestChanges}}, nil
	}
	for k := 0; k < bestChanges && k <= s.opts.MaxChanges; k++ {
		st, err := s.check(s.ctx.Ule(sum, s.ctx.ConstU(16, uint64(k))))
		if err != nil {
			return nil, err
		}
		if st == sat.Sat {
			best = readModel()
			minimal = k
			break
		}
	}
	sols = []*Solution{{Assign: best, Changes: s.vars.Changes(best)}}

	// Sample further minimal repairs by blocking found ones (§4.4:
	// "we generally sample all minimal repairs for a given window").
	bound := s.ctx.Ule(sum, s.ctx.ConstU(16, uint64(minimal)))
	for len(sols) < s.opts.MaxSamples {
		solver.Assert(s.blockingClause(sols[len(sols)-1].Assign))
		st, err := s.check(bound)
		if err != nil {
			return nil, err
		}
		if st != sat.Sat {
			break
		}
		a := readModel()
		sols = append(sols, &Solution{Assign: a, Changes: s.vars.Changes(a)})
	}
	if len(sols) == s.opts.MaxSamples {
		// The enumeration stopped on the sample budget, not on UNSAT:
		// remember where it left off so Windowed can ask for more.
		s.sampling = samplingState{ok: true, bound: bound, last: sols[len(sols)-1].Assign}
	}
	return sols, nil
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
	solver := s.win.solver
	solver.SetObs(xsc)
	vars := s.allVars()
	for len(sols) < s.opts.MaxSamples {
		solver.Assert(s.blockingClause(s.sampling.last))
		st, err := s.check(s.sampling.bound)
		if err != nil {
			return nil, err
		}
		if st != sat.Sat {
			s.sampling.ok = false
			break
		}
		a := Assignment{}
		for _, v := range vars {
			a[v.Name] = solver.Value(v)
		}
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
	if s.interrupted() {
		return nil, ErrCancelled
	}
	if s.expired() {
		return nil, ErrTimeout
	}
	if s.opts.MaxBasicSteps > 0 && s.tr.Len() > s.opts.MaxBasicSteps {
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
	kPast, kFuture := 0, 0
	var fragile *Solution // passes the trace, fails re-concretization
	for {
		if s.interrupted() {
			return nil, ErrCancelled
		}
		if s.expired() {
			if fragile != nil {
				return fragile, nil
			}
			return nil, ErrTimeout
		}
		if kPast+kFuture > s.opts.MaxWindow {
			// Give up growing (§4.4: max window size 32).
			return fragile, nil
		}
		s.Stats.Windows++
		s.opts.Obs.Metrics.Add("synth.windows", 1)
		s.Stats.FinalWindow = [2]int{kPast, kFuture}
		start := firstFailure - kPast
		if start < 0 {
			start = 0
		}
		end := firstFailure + kFuture + 1
		if end > s.tr.Len() {
			end = s.tr.Len()
		}
		startState := s.prefixState(start)
		sols, err := s.solveWindow(start, end, startState)
		if err != nil {
			if errors.Is(err, ErrTimeout) && fragile != nil {
				return fragile, nil
			}
			return nil, err
		}
		if len(sols) == 0 {
			// No repair matches this window: assume a state update in
			// the past went wrong and widen backwards.
			kPast += s.opts.PastStep
			continue
		}
		latestFuture := -1
		// When every sample passes the trace but none is robust, the
		// window is rich in trace-equivalent repairs; keep enumerating
		// from the live encoding before growing the window.
		extendBudget := 3 * s.opts.MaxSamples
		for len(sols) > 0 {
			var robustSol *Solution
			var allPassed bool
			robustSol, fragile, allPassed, latestFuture = s.validateBatch(sols, firstFailure, fragile, latestFuture)
			if robustSol != nil {
				return robustSol, nil
			}
			if !allPassed || len(sols) < s.opts.MaxSamples || extendBudget <= 0 {
				break
			}
			extendBudget -= len(sols)
			sols, err = s.moreSamples()
			if err != nil {
				if errors.Is(err, ErrTimeout) && fragile != nil {
					return fragile, nil
				}
				return nil, err
			}
		}
		if latestFuture > firstFailure && latestFuture-firstFailure > kFuture {
			// A repair fixed the original failure but failed later: the
			// window is missing future context.
			kFuture = latestFuture - firstFailure
		} else {
			kPast += s.opts.PastStep
		}
	}
}
