package smt

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"rtlrepair/internal/bv"
	"rtlrepair/internal/obs"
	"rtlrepair/internal/sat"
)

// Solver decides conjunctions of width-1 terms by Tseitin bit-blasting
// into a CDCL SAT solver. It is incremental: Assert may be called between
// Check calls, and Check accepts assumption terms, which is how the
// repair synthesizer performs its minimal-change linear search without
// re-encoding the unrolled circuit.
type Solver struct {
	sat   *sat.Solver
	gates tseitin
	low   *Lowering

	// model is the var snapshot of the last Sat answer, valid while
	// haveModel. It and ev, the evaluator that validates it, are
	// cleared and reused by each Sat answer.
	model     map[*Term]bv.BV
	haveModel bool
	ev        *Evaluator

	// Self-certification state. asserted holds every term handed to the
	// bit-blaster, so a Sat model can be re-checked by the reference
	// interpreter; lastAssump* hold the most recent Check call's
	// assumptions for the same purpose, and — as literals — the target
	// clause of an assumption-relative Unsat certificate.
	asserted        []*Term
	lastAssumpTerms []*Term
	lastAssumpLits  []sat.Lit
	validate        bool
	checker         *sat.Checker
	certStats       CertifyStats
	// spare is the checker a Reset detached, which the next
	// EnableCertification reuses.
	spare *sat.Checker

	// obs positions the solver in the observability layer (see SetObs).
	obs obs.Scope
}

// CertifyStats accumulates certification work performed by a solver.
type CertifyStats struct {
	ModelsValidated int           // Sat models re-evaluated by the interpreter
	UnsatsCertified int           // Unsat verdicts passed through the DRUP checker
	LearnedChecked  int           // learned clauses RUP-verified so far
	ProofSteps      int           // proof log length so far
	CheckTime       time.Duration // time spent validating + checking
}

// Add merges another solver's certification stats into st.
func (st *CertifyStats) Add(o CertifyStats) {
	st.ModelsValidated += o.ModelsValidated
	st.UnsatsCertified += o.UnsatsCertified
	st.LearnedChecked += o.LearnedChecked
	st.ProofSteps += o.ProofSteps
	st.CheckTime += o.CheckTime
}

// NewSolver returns a solver for terms of the given context. Model
// validation (re-evaluating all asserted terms after every Sat answer)
// is always on under `go test`; use EnableCertification to also get
// DRUP-checked Unsat verdicts.
func NewSolver(ctx *Context) *Solver {
	s := &Solver{
		sat:      sat.New(),
		validate: testing.Testing(),
	}
	s.gates.sat = s.sat
	s.low = NewLowering(&s.gates, s.addTrue())
	return s
}

// addTrue allocates the constant-true literal, the first variable of
// every solver.
func (s *Solver) addTrue() sat.Lit {
	t := s.gates.Input()
	s.sat.AddClause(t)
	return t
}

// Reset empties the solver into the state NewSolver returns, keeping
// the capacity of its SAT core, gate table, lowering and model buffers,
// and of its proof log and checker once certification has run. A reset
// solver encodes and searches exactly as a new one: only allocation
// goes away. Deadline, interrupt and observability scope are cleared
// too, and certification is off until EnableCertification.
func (s *Solver) Reset() {
	s.sat.Reset()
	s.gates.table.reset()
	clear(s.model)
	if s.ev != nil {
		clear(s.ev.memo)
	}
	clear(s.asserted)
	spare := s.spare
	if s.checker != nil {
		spare = s.checker
	}
	*s = Solver{
		sat:      s.sat,
		gates:    s.gates,
		low:      s.low,
		model:    s.model,
		ev:       s.ev,
		asserted: s.asserted[:0],
		validate: testing.Testing(),
		spare:    spare,
	}
	s.low.reset(s.addTrue())
}

// EnableCertification switches the solver into self-certifying mode:
// the SAT core logs a DRUP proof, every Unsat verdict is re-checked by
// the independent forward RUP checker, and every Sat model is
// re-evaluated by the reference interpreter. Call it right after
// NewSolver or Reset, before any Assert, so the proof log covers the
// whole clause database.
func (s *Solver) EnableCertification() {
	if s.checker != nil {
		return
	}
	proof := s.sat.StartProof()
	if s.checker, s.spare = s.spare, nil; s.checker != nil {
		s.checker.Reset(proof)
	} else {
		s.checker = sat.NewChecker(proof)
	}
	s.validate = true
}

// Certifying reports whether EnableCertification has been called.
func (s *Solver) Certifying() bool { return s.checker != nil }

// CertifyStats returns the accumulated certification statistics.
func (s *Solver) CertifyStats() CertifyStats {
	st := s.certStats
	if s.checker != nil {
		st.LearnedChecked = s.checker.Checked()
		st.ProofSteps = s.sat.Proof().Len()
	}
	return st
}

// SetObs positions the solver in the observability layer: every Check
// records an "smt.check" span under the scope's span (with the CDCL
// "sat.solve" span nested inside it), certification work gets its own
// "certify" span, and the scope's metrics registry collects the solver
// counters. The zero Scope (the default) disables all of it. SetObs may
// be called again between Checks to re-parent subsequent spans.
func (s *Solver) SetObs(sc obs.Scope) { s.obs = sc }

// SetDeadline sets a wall-clock deadline for subsequent Check calls.
// A zero time disables the deadline.
func (s *Solver) SetDeadline(d time.Time) { s.sat.Deadline = d }

// SetInterrupt installs a cancellation flag polled during Check. Setting
// the flag from another goroutine makes the running Check return
// (Unknown, sat.ErrInterrupted). A nil flag disables cancellation.
func (s *Solver) SetInterrupt(flag *atomic.Bool) { s.sat.Interrupt = flag }

// Assert adds a width-1 term as a hard constraint.
func (s *Solver) Assert(t *Term) {
	if t.Width != 1 {
		panic("smt: assert of non-boolean term")
	}
	if t.Op == OpConst && !t.Val.IsZero() {
		return // trivially true
	}
	s.sat.AddClause(s.low.Lower(t)[0])
	s.asserted = append(s.asserted, t)
}

// Check decides the asserted constraints together with the given width-1
// assumptions. On Sat, the model is snapshotted and can be read with
// Value until the next Check. In validating/certifying mode a Sat model
// is re-evaluated by the reference interpreter and an Unsat verdict is
// re-checked against the DRUP proof; a failure of either check is a
// solver soundness bug and panics.
func (s *Solver) Check(assumptions ...*Term) (sat.Status, error) {
	span := s.obs.Start("smt.check")
	s.sat.Obs = span
	lits := make([]sat.Lit, 0, len(assumptions))
	terms := make([]*Term, 0, len(assumptions))
	for _, a := range assumptions {
		if a.Width != 1 {
			panic("smt: assumption of non-boolean term")
		}
		terms = append(terms, a)
		lits = append(lits, s.low.Lower(a)[0])
	}
	s.lastAssumpTerms, s.lastAssumpLits = terms, lits
	st, err := s.sat.Solve(lits...)
	s.haveModel = st == sat.Sat
	if st == sat.Sat {
		s.snapshotModel()
		if s.validate {
			start := time.Now()
			cspan := span.Start("certify")
			if verr := s.ValidateModel(); verr != nil {
				panic(fmt.Sprintf("smt: unsound Sat verdict: %v", verr))
			}
			cspan.End(obs.Str("kind", "validate-model"))
			s.certStats.ModelsValidated++
			s.certStats.CheckTime += time.Since(start)
			s.obs.Metrics.Add("certify.models_validated", 1)
		}
	} else {
		if st == sat.Unsat && s.checker != nil {
			start := time.Now()
			cspan := span.Start("certify")
			if cerr := s.CertifyLastUnsat(); cerr != nil {
				panic(fmt.Sprintf("smt: unsound Unsat verdict: %v", cerr))
			}
			cspan.End(obs.Str("kind", "drup-unsat"), obs.Int("proof_steps", int64(s.checker.Checked())))
			s.certStats.UnsatsCertified++
			s.certStats.CheckTime += time.Since(start)
			s.obs.Metrics.Add("certify.unsats_certified", 1)
		}
	}
	span.End(obs.Str("result", st.String()), obs.Int("smt_terms", int64(s.low.Terms())))
	s.obs.Metrics.Add("smt.checks", 1)
	return st, err
}

// ValidateModel re-evaluates every asserted term and the last Check
// call's assumptions under the current model using the reference
// interpreter, returning an error on the first term that does not
// evaluate to true. It must be called while a Sat model is held.
func (s *Solver) ValidateModel() error {
	if !s.haveModel {
		return fmt.Errorf("no model to validate")
	}
	ev := s.ev
	if ev == nil {
		ev = NewEvaluator(s.modelValue)
		s.ev = ev
	}
	clear(ev.memo)
	for _, t := range s.asserted {
		if ev.Eval(t).IsZero() {
			return fmt.Errorf("asserted term %s is false under the model", t)
		}
	}
	for _, t := range s.lastAssumpTerms {
		if ev.Eval(t).IsZero() {
			return fmt.Errorf("assumption %s is false under the model", t)
		}
	}
	return nil
}

// CertifyLastUnsat verifies the DRUP certificate for the most recent
// Unsat answer: it replays any new proof steps through the forward RUP
// checker and then checks the clause over the negated assumptions of
// the last Check call (the empty clause when there were none).
// EnableCertification must have been called before the first Assert.
func (s *Solver) CertifyLastUnsat() error {
	if s.checker == nil {
		return fmt.Errorf("certification not enabled")
	}
	return s.checker.CheckUnsat(s.lastAssumpLits)
}

// snapshotModel records the value of every blasted variable.
func (s *Solver) snapshotModel() {
	if s.model == nil {
		s.model = map[*Term]bv.BV{}
	}
	clear(s.model)
	for _, t := range s.low.Vars() {
		lits := s.low.Lower(t)
		v := bv.Zero(t.Width)
		for i, l := range lits {
			val := s.sat.Value(l.Var())
			if l.Neg() {
				val = !val
			}
			if val {
				v = v.WithBit(i, true)
			}
		}
		s.model[t] = v
	}
}

// Value evaluates a term under the last Sat model. Variables that do not
// occur in the encoded formula evaluate to zero.
func (s *Solver) Value(t *Term) bv.BV {
	if !s.haveModel {
		panic("smt: Value called without a Sat model")
	}
	return Eval(t, s.modelValue)
}

// modelValue is variable v's value in the last Sat model: zero when v
// does not occur in the encoded formula.
func (s *Solver) modelValue(v *Term) bv.BV {
	if val, ok := s.model[v]; ok {
		return val
	}
	return bv.Zero(v.Width)
}

// Stats returns the underlying SAT search statistics.
func (s *Solver) Stats() (conflicts, decisions, propagations int64) { return s.sat.Stats() }

// SATStats returns the full underlying SAT solver statistics.
func (s *Solver) SATStats() sat.Statistics { return s.sat.Statistics() }
