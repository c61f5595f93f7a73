// Package sim provides the three simulation backends the evaluation
// needs: CycleSim, a 4-state cycle-accurate simulator over the
// transition system (the Verilator stand-in); EventSim, an event-driven
// interpreter over the Verilog AST with scheduling semantics (the Icarus
// Verilog stand-in); and, together with internal/netlist, gate-level
// simulation (the VCS GLS stand-in). Divergence between the backends is
// how synthesis–simulation mismatch is detected, as in §6.2 of the paper.
package sim

import (
	"fmt"
	"math/rand"

	"rtlrepair/internal/bv"
	"rtlrepair/internal/trace"
	"rtlrepair/internal/tsys"
)

// UnknownPolicy selects how unknown values (uninitialized registers and
// undriven trace inputs) are concretized, matching §4.3 of the paper.
type UnknownPolicy int

// Unknown-value policies.
const (
	// KeepX propagates X symbolically (4-state simulation).
	KeepX UnknownPolicy = iota
	// Randomize picks random concrete values (CirFix-suite mode).
	Randomize
	// Zero uses zero (Verilator mode).
	Zero
)

// CycleSim simulates a transition system cycle by cycle with 4-state
// values, evaluating its compiled Program. Each cycle evaluates the
// outputs and then the next-state functions on demand, in smt.EvalX's
// order, through one memo shared by all roots of the cycle.
type CycleSim struct {
	p      *Program
	policy UnknownPolicy
	rng    *rand.Rand // nil unless policy is Randomize

	reg  []word   // register values of at most 64 bits, by sys.States index
	regX []bv.XBV // wider register values
	par  []bv.BV  // synthesis constants, by free index
	set  []bool   // par[f] is set
	cols []int32  // trace input column of each free variable, or -1

	// The inputs of the cycle being evaluated: a name-keyed map (Step,
	// Peek) or a trace row read through cols.
	byName bool
	inMap  map[string]bv.XBV
	inRow  []bv.XBV
	bound  *trace.Trace // the trace cols was built for

	// The memo of the current cycle: slot i holds its value for this
	// cycle iff stamp[i] == epoch.
	epoch uint32
	stamp []uint32
	memo  []word
	memoX []bv.XBV // by node.wide
}

// word is a 4-state value of at most 64 bits: its value and known bits.
type word struct{ v, k uint64 }

// NewCycleSim compiles sys and returns a simulator in the power-on state.
// Callers that simulate one system repeatedly should Compile it once and
// use NewSim.
func NewCycleSim(sys *tsys.System, policy UnknownPolicy, seed int64) *CycleSim {
	return NewSim(Compile(sys), policy, seed)
}

// NewSim returns a simulator of p in the power-on state: registers take
// their init value or, per policy, X / random / zero.
func NewSim(p *Program, policy UnknownPolicy, seed int64) *CycleSim {
	n, nf := len(p.nodes), len(p.free)
	s := &CycleSim{
		p:      p,
		policy: policy,
		reg:    make([]word, len(p.sys.States)),
		regX:   make([]bv.XBV, len(p.sys.States)),
		par:    make([]bv.BV, nf),
		set:    make([]bool, nf),
		cols:   make([]int32, nf),
		stamp:  make([]uint32, n),
		memo:   make([]word, n),
		memoX:  make([]bv.XBV, p.nwide),
	}
	if policy == Randomize {
		s.rng = rand.New(rand.NewSource(seed))
	}
	for i, st := range p.sys.States {
		if st.Init != nil {
			s.setReg(i, bv.K(st.Init.Val))
		} else {
			s.setReg(i, s.unknown(st.Var.Width))
		}
	}
	return s
}

// fill draws the words that concretize one unknown value: four random
// words under Randomize (wider values keep zeros above bit 256), none
// otherwise.
func (s *CycleSim) fill() (w [4]uint64) {
	if s.policy == Randomize {
		for i := range w {
			w[i] = s.rng.Uint64()
		}
	}
	return w
}

func (s *CycleSim) unknown(width int) bv.XBV {
	if s.policy == KeepX {
		return bv.X(width)
	}
	w := s.fill()
	return bv.K(bv.FromWords(width, w[:]))
}

// SetParams fixes the synthesis constants (φ/α) for instrumented designs.
// A constant shadows a same-named input; one on a register name is never
// read.
func (s *CycleSim) SetParams(vals map[string]bv.BV) {
	for k, v := range vals {
		if f, ok := s.p.freeOf[k]; ok {
			s.par[f], s.set[f] = v, true
		}
	}
}

// SetState overrides one register value (used to seed the adaptive
// window's concrete prefix and the OSDD co-simulation). It panics if
// name is not a register of the system or v has another width.
func (s *CycleSim) SetState(name string, v bv.XBV) {
	r, ok := s.p.regOf[name]
	if !ok {
		panic(fmt.Sprintf("sim: SetState of %q, which is not a register", name))
	}
	if w := s.p.sys.States[r].Var.Width; v.Width() != w {
		panic(fmt.Sprintf("sim: SetState of %q with width %d (want %d)", name, v.Width(), w))
	}
	s.setReg(int(r), v)
}

func (s *CycleSim) setReg(r int, v bv.XBV) {
	if s.p.wideReg(r) {
		s.regX[r] = v
	} else {
		s.reg[r] = word{v.Val.Uint64(), v.Known.Uint64()}
	}
}

func (s *CycleSim) regValue(r int) bv.XBV {
	if s.p.wideReg(r) {
		return s.regX[r]
	}
	return bv.XWord(s.p.sys.States[r].Var.Width, s.reg[r].v, s.reg[r].k)
}

// State reads one register value.
func (s *CycleSim) State(name string) bv.XBV {
	r, ok := s.p.regOf[name]
	if !ok {
		return bv.XBV{}
	}
	return s.regValue(int(r))
}

// Snapshot copies the full register state. SetState of each entry
// restores it.
func (s *CycleSim) Snapshot() map[string]bv.XBV {
	out := make(map[string]bv.XBV, len(s.reg))
	for r, st := range s.p.sys.States {
		out[st.Var.Name] = s.regValue(r)
	}
	return out
}

// Step evaluates outputs for the current cycle under the given inputs and
// then advances the registers. Unknown input bits are concretized per
// policy.
func (s *CycleSim) Step(inputs map[string]bv.XBV) map[string]bv.XBV {
	s.byName, s.inMap = true, inputs
	s.tick()
	s.inMap = nil
	return s.outputMap()
}

// StepTrace advances the registers by one cycle under the inputs of the
// given trace row, exactly as RunTraceFrom's cycle would.
func (s *CycleSim) StepTrace(tr *trace.Trace, cycle int) {
	s.bind(tr)
	s.inRow = tr.InputRows[cycle]
	s.tick()
}

// Peek evaluates the outputs without advancing the state.
func (s *CycleSim) Peek(inputs map[string]bv.XBV) map[string]bv.XBV {
	s.byName, s.inMap = true, inputs
	s.begin()
	for _, r := range s.p.outs {
		s.force(r)
	}
	s.inMap = nil
	return s.outputMap()
}

func (s *CycleSim) outputMap() map[string]bv.XBV {
	outs := make(map[string]bv.XBV, len(s.p.outs))
	for i, o := range s.p.sys.Outputs {
		outs[o.Name] = s.x(s.p.outs[i])
	}
	return outs
}

// bind maps each free variable to its column of tr's inputs (the last
// column of that name) for row-driven cycles.
func (s *CycleSim) bind(tr *trace.Trace) {
	s.byName = false
	if s.bound == tr {
		return
	}
	col := make(map[string]int32, len(tr.Inputs))
	for i, sig := range tr.Inputs {
		col[sig.Name] = int32(i)
	}
	for f, v := range s.p.free {
		c, ok := col[v.Name]
		if !ok {
			c = -1
		}
		s.cols[f] = c
	}
	s.bound = tr
}

// begin opens a new cycle: every memo entry becomes stale.
func (s *CycleSim) begin() {
	s.epoch++
	if s.epoch == 0 {
		clear(s.stamp)
		s.epoch = 1
	}
}

// tick evaluates the outputs and then the next-state functions, and
// commits the next state.
func (s *CycleSim) tick() {
	s.begin()
	for _, r := range s.p.outs {
		s.force(r)
	}
	for _, r := range s.p.next {
		s.force(r)
	}
	for i, r := range s.p.next {
		if n := &s.p.nodes[r]; n.wide >= 0 {
			s.regX[i] = s.memoX[n.wide]
		} else {
			s.reg[i] = s.memo[r]
		}
	}
}

func (s *CycleSim) force(i int32) {
	if s.stamp[i] != s.epoch {
		s.eval(i)
	}
}

// get returns the value of narrow slot i this cycle.
func (s *CycleSim) get(i int32) (v, k uint64) {
	s.force(i)
	w := s.memo[i]
	return w.v, w.k
}

// x returns the value of slot i this cycle as a bv.XBV.
func (s *CycleSim) x(i int32) bv.XBV {
	s.force(i)
	n := &s.p.nodes[i]
	if n.wide >= 0 {
		return s.memoX[n.wide]
	}
	return bv.XWord(n.width, s.memo[i].v, s.memo[i].k)
}

// RunResult is the outcome of running a trace against a design.
type RunResult struct {
	// FirstFailure is the first cycle whose checked outputs mismatch,
	// or -1 if the whole trace passes.
	FirstFailure int
	// Cycles is the number of cycles executed (stops after first failure
	// unless RunAll).
	Cycles int
	// Outputs per executed cycle, in trace output-column order.
	Outputs [][]bv.XBV
	// States per executed cycle (value *before* the cycle's update), in
	// sys.States order.
	States [][]bv.XBV
	// FailedSignal is the first mismatching output column name.
	FailedSignal string
}

// Passed reports whether the trace passed.
func (r *RunResult) Passed() bool { return r.FirstFailure < 0 }

// RunOptions configures RunTrace.
type RunOptions struct {
	Policy UnknownPolicy
	Seed   int64
	// RunAll keeps executing after the first failure (needed for OSDD
	// and windowing analysis).
	RunAll bool
	// Params fixes synthesis constants.
	Params map[string]bv.BV
	// RecordStates enables state logging.
	RecordStates bool
}

// RunTrace executes tr against sys and checks expected outputs.
// An output cell checks only its known bits; a fully-known expectation
// against an X simulation value counts as a mismatch (the X would be
// visible to the testbench).
func RunTrace(sys *tsys.System, tr *trace.Trace, opts RunOptions) *RunResult {
	sim := NewCycleSim(sys, opts.Policy, opts.Seed)
	sim.SetParams(opts.Params)
	return RunTraceFrom(sim, tr, 0, opts)
}

// RunTraceFrom continues a prepared simulator from the given trace cycle.
// It records RunResult.Outputs only with RunAll; without it a run only
// checks the outputs, and a check of outputs up to 64 bits wide
// allocates nothing.
func RunTraceFrom(sim *CycleSim, tr *trace.Trace, start int, opts RunOptions) *RunResult {
	res := &RunResult{FirstFailure: -1}
	outs := sim.p.outputSlots(tr.Outputs)
	for cycle := start; cycle < tr.Len(); cycle++ {
		if opts.RecordStates {
			row := make([]bv.XBV, len(sim.reg))
			for r := range row {
				row[r] = sim.regValue(r)
			}
			res.States = append(res.States, row)
		}
		sim.StepTrace(tr, cycle)
		if opts.RunAll {
			res.Outputs = append(res.Outputs, sim.outputRow(outs))
		}
		res.Cycles++
		if res.FirstFailure < 0 {
			for i, sig := range tr.Outputs {
				if !sim.slotMatches(tr.OutputRows[cycle][i], outs[i]) {
					res.FirstFailure = cycle
					res.FailedSignal = sig.Name
					break
				}
			}
			if res.FirstFailure >= 0 && !opts.RunAll {
				return res
			}
		}
	}
	return res
}

// outputSlots maps trace output columns to root slots, -1 for a column
// the system does not drive.
func (p *Program) outputSlots(sigs []trace.Signal) []int32 {
	out := make([]int32, len(sigs))
	for i, sig := range sigs {
		out[i] = -1
		if o, ok := p.outOf[sig.Name]; ok {
			out[i] = p.outs[o]
		}
	}
	return out
}

// outputRow reads this cycle's outputs in trace column order; a column
// the system does not drive reads as the zero-width value.
func (s *CycleSim) outputRow(slots []int32) []bv.XBV {
	row := make([]bv.XBV, len(slots))
	for i, r := range slots {
		if r >= 0 {
			row[i] = s.x(r)
		}
	}
	return row
}

// slotMatches checks output slot r this cycle against exp, as
// outputMatches does with the value outputRow reads, but compares a
// slot of at most 64 bits in place, without building its bv.XBV.
func (s *CycleSim) slotMatches(exp bv.XBV, r int32) bool {
	if r < 0 {
		return outputMatches(exp, bv.XBV{})
	}
	n := &s.p.nodes[r]
	if n.wide >= 0 {
		return outputMatches(exp, s.x(r))
	}
	if exp.Width() != n.width {
		return exp.Known.IsZero()
	}
	v, k := s.get(r)
	c := exp.Known.Uint64()
	return k&c == c && (exp.Val.Uint64()^v)&c == 0
}

// outputMatches checks a 4-state simulation value against a 4-state
// expectation: every known expected bit must be known and equal. A
// width mismatch (e.g. a bug that narrows an output port) fails any
// checked expectation.
func outputMatches(exp, got bv.XBV) bool {
	if exp.Width() != got.Width() {
		if exp.Known.IsZero() {
			return true // nothing checked
		}
		return false
	}
	return bv.MatchesX(exp, got)
}

// OutputMatches is the exported form of the trace output check, used by
// fault localization to find every mismatching output column of a
// RunAll result, not just the first.
func OutputMatches(exp, got bv.XBV) bool { return outputMatches(exp, got) }
