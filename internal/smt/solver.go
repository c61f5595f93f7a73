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
	ctx   *Context
	sat   *sat.Solver
	bits  map[*Term][]sat.Lit
	gates map[gateKey]sat.Lit
	t, f  sat.Lit

	model map[*Term]bv.BV // var snapshot after a Sat answer

	// Abstract-interpretation state: facts harvested from hard asserts
	// plus the simplifier memo (invalidated on environment tightening).
	// nil when simplification is disabled (see DisableSimplify).
	abs *Abs

	// shadow is a passive replica encoder with the simplifier off, fed
	// the same original (pre-simplification) assert stream. It blasts
	// but never solves, so its CNF size prices the simplifier along the
	// exact search path the live solver takes (see AddShadow).
	shadow *Solver

	// Self-certification state. asserted holds every (simplified) term
	// handed to the bit-blaster, so a Sat model can be re-checked by the
	// reference interpreter; lastAssump* hold the most recent Check call's
	// assumptions for the same purpose, and — as literals — the target
	// clause of an assumption-relative Unsat certificate.
	asserted        []*Term
	lastAssumpTerms []*Term
	lastAssumpLits  []sat.Lit
	validate        bool
	checker         *sat.Checker
	certStats       CertifyStats

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

type gateKey struct {
	op   Op
	a, b sat.Lit
}

// NewSolver returns a solver for terms of the given context. Model
// validation (re-evaluating all asserted terms after every Sat answer)
// is always on under `go test`; use EnableCertification to also get
// DRUP-checked Unsat verdicts.
func NewSolver(ctx *Context) *Solver {
	s := &Solver{
		ctx:      ctx,
		sat:      sat.New(),
		bits:     map[*Term][]sat.Lit{},
		gates:    map[gateKey]sat.Lit{},
		abs:      NewAbs(),
		validate: testing.Testing(),
	}
	s.abs.SetFree(s.isBlasted)
	v := s.sat.NewVar()
	s.t = sat.PosLit(v)
	s.f = s.t.Not()
	s.sat.AddClause(s.t)
	return s
}

func (s *Solver) isBlasted(t *Term) bool {
	_, ok := s.bits[t]
	return ok
}

// DisableSimplify turns off the abstract-interpretation pre-blast
// simplifier for this solver: no facts, no rewrites (used for A/B
// measurement of its CNF impact). Must be called before the first
// Assert.
func (s *Solver) DisableSimplify() {
	if len(s.asserted) > 0 {
		panic("smt: DisableSimplify after Assert")
	}
	s.abs = nil
}

// SetFactCache attaches a shared base-fact cache (see FactCache) so
// structure-only analysis work carries across the sequential solvers of
// one synthesizer. Call before the first Assert.
func (s *Solver) SetFactCache(fc *FactCache) {
	if s.abs != nil {
		s.abs.SetCache(fc)
	}
}

// AddShadow attaches a passive shadow encoder with the simplifier off.
// The shadow receives every original (pre-simplify) asserted term and
// Check assumption, blasts them, and never solves; its CNF statistics
// (ShadowStats) measure what this solver's encoding WOULD have been
// without abstract interpretation, along the identical search path.
// Must be called before the first Assert.
func (s *Solver) AddShadow() {
	if len(s.asserted) > 0 {
		panic("smt: AddShadow after Assert")
	}
	s.shadow = NewSolver(s.ctx)
	s.shadow.validate = false
	s.shadow.DisableSimplify()
}

// ShadowStats returns the CNF statistics of the shadow encoder (zero
// when none is attached).
func (s *Solver) ShadowStats() sat.Statistics {
	if s.shadow == nil {
		return sat.Statistics{}
	}
	return s.shadow.SATStats()
}

// AbsStats returns the abstract-interpretation work counters (zero when
// simplification is disabled).
func (s *Solver) AbsStats() AbsStats {
	if s.abs == nil {
		return AbsStats{}
	}
	return s.abs.Stats
}

// EnableCertification switches the solver into self-certifying mode:
// the SAT core logs a DRUP proof, every Unsat verdict is re-checked by
// the independent forward RUP checker, and every Sat model is
// re-evaluated by the reference interpreter. Call it right after
// NewSolver, before any Assert, so the proof log covers the whole
// clause database.
func (s *Solver) EnableCertification() {
	if s.checker != nil {
		return
	}
	s.checker = sat.NewChecker(s.sat.StartProof())
	s.validate = true
}

// Certifying reports whether EnableCertification has been called.
func (s *Solver) Certifying() bool { return s.checker != nil }

// CertifyStats returns the accumulated certification statistics.
func (s *Solver) CertifyStats() CertifyStats {
	st := s.certStats
	if s.checker != nil {
		st.LearnedChecked = s.checker.Checked()
		st.ProofSteps = len(s.sat.Proof().Steps)
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

func (s *Solver) fresh() sat.Lit { return sat.PosLit(s.sat.NewVar()) }

// andLit returns a literal equivalent to a ∧ b.
func (s *Solver) andLit(a, b sat.Lit) sat.Lit {
	if a == s.f || b == s.f {
		return s.f
	}
	if a == s.t {
		return b
	}
	if b == s.t {
		return a
	}
	if a == b {
		return a
	}
	if a == b.Not() {
		return s.f
	}
	if b < a {
		a, b = b, a
	}
	key := gateKey{OpAnd, a, b}
	if g, ok := s.gates[key]; ok {
		return g
	}
	g := s.fresh()
	s.sat.AddClause(g.Not(), a)
	s.sat.AddClause(g.Not(), b)
	s.sat.AddClause(g, a.Not(), b.Not())
	s.gates[key] = g
	return g
}

func (s *Solver) orLit(a, b sat.Lit) sat.Lit {
	return s.andLit(a.Not(), b.Not()).Not()
}

// xorLit returns a literal equivalent to a ⊕ b.
func (s *Solver) xorLit(a, b sat.Lit) sat.Lit {
	if a == s.f {
		return b
	}
	if a == s.t {
		return b.Not()
	}
	if b == s.f {
		return a
	}
	if b == s.t {
		return a.Not()
	}
	if a == b {
		return s.f
	}
	if a == b.Not() {
		return s.t
	}
	if b < a {
		a, b = b, a
	}
	key := gateKey{OpXor, a, b}
	if g, ok := s.gates[key]; ok {
		return g
	}
	g := s.fresh()
	s.sat.AddClause(g.Not(), a, b)
	s.sat.AddClause(g.Not(), a.Not(), b.Not())
	s.sat.AddClause(g, a, b.Not())
	s.sat.AddClause(g, a.Not(), b)
	s.gates[key] = g
	return g
}

func (s *Solver) iffLit(a, b sat.Lit) sat.Lit { return s.xorLit(a, b).Not() }

// muxLit returns c ? a : b.
func (s *Solver) muxLit(c, a, b sat.Lit) sat.Lit {
	if c == s.t {
		return a
	}
	if c == s.f {
		return b
	}
	if a == b {
		return a
	}
	return s.orLit(s.andLit(c, a), s.andLit(c.Not(), b))
}

// addBits computes a + b + cin, returning sum bits.
func (s *Solver) addBits(a, b []sat.Lit, cin sat.Lit) []sat.Lit {
	n := len(a)
	sum := make([]sat.Lit, n)
	c := cin
	for i := 0; i < n; i++ {
		axb := s.xorLit(a[i], b[i])
		sum[i] = s.xorLit(axb, c)
		c = s.orLit(s.andLit(a[i], b[i]), s.andLit(axb, c))
	}
	return sum
}

// ultBits returns the literal for unsigned a < b.
func (s *Solver) ultBits(a, b []sat.Lit) sat.Lit {
	lt := s.f
	for i := 0; i < len(a); i++ {
		bitLt := s.andLit(a[i].Not(), b[i])
		eq := s.iffLit(a[i], b[i])
		lt = s.orLit(bitLt, s.andLit(eq, lt))
	}
	return lt
}

func (s *Solver) constBits(v bv.BV) []sat.Lit {
	out := make([]sat.Lit, v.Width())
	for i := range out {
		if v.Bit(i) {
			out[i] = s.t
		} else {
			out[i] = s.f
		}
	}
	return out
}

// blast returns the SAT literals (LSB first) representing t.
func (s *Solver) blast(t *Term) []sat.Lit {
	if ls, ok := s.bits[t]; ok {
		return ls
	}
	var out []sat.Lit
	switch t.Op {
	case OpConst:
		out = s.constBits(t.Val)
	case OpVar:
		out = make([]sat.Lit, t.Width)
		for i := range out {
			out[i] = s.fresh()
		}
	case OpNot:
		a := s.blast(t.Args[0])
		out = make([]sat.Lit, len(a))
		for i := range a {
			out[i] = a[i].Not()
		}
	case OpAnd, OpOr, OpXor:
		a, b := s.blast(t.Args[0]), s.blast(t.Args[1])
		out = make([]sat.Lit, len(a))
		for i := range a {
			switch t.Op {
			case OpAnd:
				out[i] = s.andLit(a[i], b[i])
			case OpOr:
				out[i] = s.orLit(a[i], b[i])
			default:
				out[i] = s.xorLit(a[i], b[i])
			}
		}
	case OpNeg:
		a := s.blast(t.Args[0])
		na := make([]sat.Lit, len(a))
		for i := range a {
			na[i] = a[i].Not()
		}
		out = s.addBits(na, s.constBits(bv.Zero(t.Width)), s.t)
	case OpAdd:
		out = s.addBits(s.blast(t.Args[0]), s.blast(t.Args[1]), s.f)
	case OpSub:
		a, b := s.blast(t.Args[0]), s.blast(t.Args[1])
		nb := make([]sat.Lit, len(b))
		for i := range b {
			nb[i] = b[i].Not()
		}
		out = s.addBits(a, nb, s.t)
	case OpMul:
		a, b := s.blast(t.Args[0]), s.blast(t.Args[1])
		acc := s.constBits(bv.Zero(t.Width))
		for i := 0; i < t.Width; i++ {
			// addend = (a << i) masked by b[i]
			addend := make([]sat.Lit, t.Width)
			for j := 0; j < t.Width; j++ {
				if j < i {
					addend[j] = s.f
				} else {
					addend[j] = s.andLit(a[j-i], b[i])
				}
			}
			acc = s.addBits(acc, addend, s.f)
		}
		out = acc
	case OpUdiv, OpUrem:
		q, r := s.divRemBits(t.Args[0], t.Args[1])
		if t.Op == OpUdiv {
			out = q
		} else {
			out = r
		}
	case OpEq:
		a, b := s.blast(t.Args[0]), s.blast(t.Args[1])
		eq := s.t
		for i := range a {
			eq = s.andLit(eq, s.iffLit(a[i], b[i]))
		}
		out = []sat.Lit{eq}
	case OpUlt:
		out = []sat.Lit{s.ultBits(s.blast(t.Args[0]), s.blast(t.Args[1]))}
	case OpSlt:
		a, b := s.blast(t.Args[0]), s.blast(t.Args[1])
		fa := make([]sat.Lit, len(a))
		fb := make([]sat.Lit, len(b))
		copy(fa, a)
		copy(fb, b)
		fa[len(fa)-1] = fa[len(fa)-1].Not()
		fb[len(fb)-1] = fb[len(fb)-1].Not()
		out = []sat.Lit{s.ultBits(fa, fb)}
	case OpShl, OpLshr, OpAshr:
		out = s.shiftBits(t)
	case OpConcat:
		hi, lo := s.blast(t.Args[0]), s.blast(t.Args[1])
		out = append(append([]sat.Lit{}, lo...), hi...)
	case OpExtract:
		a := s.blast(t.Args[0])
		out = append([]sat.Lit{}, a[t.Lo:t.Hi+1]...)
	case OpZeroExt:
		a := s.blast(t.Args[0])
		out = append([]sat.Lit{}, a...)
		for len(out) < t.Width {
			out = append(out, s.f)
		}
	case OpSignExt:
		a := s.blast(t.Args[0])
		out = append([]sat.Lit{}, a...)
		sign := a[len(a)-1]
		for len(out) < t.Width {
			out = append(out, sign)
		}
	case OpIte:
		c := s.blast(t.Args[0])[0]
		a, b := s.blast(t.Args[1]), s.blast(t.Args[2])
		out = make([]sat.Lit, len(a))
		for i := range a {
			out[i] = s.muxLit(c, a[i], b[i])
		}
	case OpRedOr:
		a := s.blast(t.Args[0])
		r := s.f
		for _, l := range a {
			r = s.orLit(r, l)
		}
		out = []sat.Lit{r}
	case OpRedAnd:
		a := s.blast(t.Args[0])
		r := s.t
		for _, l := range a {
			r = s.andLit(r, l)
		}
		out = []sat.Lit{r}
	case OpRedXor:
		a := s.blast(t.Args[0])
		r := s.f
		for _, l := range a {
			r = s.xorLit(r, l)
		}
		out = []sat.Lit{r}
	default:
		panic(fmt.Sprintf("smt: blast of %v", t.Op))
	}
	if len(out) != t.Width {
		panic(fmt.Sprintf("smt: blast width mismatch for %v: got %d want %d", t.Op, len(out), t.Width))
	}
	s.bits[t] = out
	return out
}

// divRemBits implements restoring long division. For a zero divisor the
// quotient is all ones and the remainder equals the dividend, matching
// SMT-LIB.
func (s *Solver) divRemBits(at, bt *Term) (q, r []sat.Lit) {
	a, b := s.blast(at), s.blast(bt)
	w := len(a)
	// Work with a w+1-bit remainder so (r<<1)|bit never overflows.
	rw := make([]sat.Lit, w+1)
	for i := range rw {
		rw[i] = s.f
	}
	bw := append(append([]sat.Lit{}, b...), s.f)
	q = make([]sat.Lit, w)
	for i := w - 1; i >= 0; i-- {
		// r = (r << 1) | a[i]
		shifted := make([]sat.Lit, w+1)
		shifted[0] = a[i]
		copy(shifted[1:], rw[:w])
		// ge = shifted >= b
		ge := s.ultBits(shifted, bw).Not()
		q[i] = ge
		// r = ge ? shifted - b : shifted
		nb := make([]sat.Lit, w+1)
		for j := range bw {
			nb[j] = bw[j].Not()
		}
		diff := s.addBits(shifted, nb, s.t)
		rw = make([]sat.Lit, w+1)
		for j := range rw {
			rw[j] = s.muxLit(ge, diff[j], shifted[j])
		}
	}
	return q, rw[:w]
}

// shiftBits builds a barrel shifter for variable shifts.
func (s *Solver) shiftBits(t *Term) []sat.Lit {
	a, amt := s.blast(t.Args[0]), s.blast(t.Args[1])
	w := t.Width
	cur := append([]sat.Lit{}, a...)
	var fill func(i int) sat.Lit
	switch t.Op {
	case OpAshr:
		sign := a[w-1]
		fill = func(int) sat.Lit { return sign }
	default:
		fill = func(int) sat.Lit { return s.f }
	}
	// Stages for amount bits that can produce in-range shifts.
	for stage := 0; stage < len(amt) && (1<<stage) < w; stage++ {
		d := 1 << stage
		next := make([]sat.Lit, w)
		for i := 0; i < w; i++ {
			var shifted sat.Lit
			switch t.Op {
			case OpShl:
				if i-d >= 0 {
					shifted = cur[i-d]
				} else {
					shifted = s.f
				}
			default: // right shifts
				if i+d < w {
					shifted = cur[i+d]
				} else {
					shifted = fill(i)
				}
			}
			next[i] = s.muxLit(amt[stage], shifted, cur[i])
		}
		cur = next
	}
	// If any amount bit >= log2 range is set, the result saturates.
	over := s.f
	for stage := 0; stage < len(amt); stage++ {
		if 1<<stage >= w || stage >= 31 {
			over = s.orLit(over, amt[stage])
		}
	}
	if over != s.f {
		out := make([]sat.Lit, w)
		for i := 0; i < w; i++ {
			out[i] = s.muxLit(over, fill(i), cur[i])
		}
		return out
	}
	return cur
}

// prepare runs the abstract-interpretation simplifier over a term
// (identity when simplification is disabled).
func (s *Solver) prepare(t *Term) *Term {
	if s.abs == nil {
		return t
	}
	s.abs.beginAssert()
	return s.ctx.Simplify(t, s.abs)
}

// Assert adds a width-1 term as a hard constraint. The term is first
// simplified under the facts harvested from earlier asserts; the
// simplified form is what gets blasted, recorded for model validation,
// and mined for new facts. Facts are learned only after the clause is
// in the SAT core, so a pinning assert like x = c still pins x's bits
// (later occurrences of x then fold to c).
func (s *Solver) Assert(t *Term) {
	if t.Width != 1 {
		panic("smt: assert of non-boolean term")
	}
	if s.shadow != nil {
		s.shadow.Assert(t)
	}
	t = s.prepare(t)
	if t.Op == OpConst && !t.Val.IsZero() {
		return // simplified to true: redundant under earlier asserts
	}
	s.sat.AddClause(s.blast(t)[0])
	s.asserted = append(s.asserted, t)
	if s.abs != nil && t.Op != OpConst {
		s.abs.LearnAsserted(t)
	}
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
		if s.shadow != nil {
			s.shadow.blast(a)
		}
		a = s.prepare(a)
		terms = append(terms, a)
		lits = append(lits, s.blast(a)[0])
	}
	s.lastAssumpTerms, s.lastAssumpLits = terms, lits
	st, err := s.sat.Solve(lits...)
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
		s.model = nil
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
	span.End(obs.Str("result", st.String()), obs.Int("smt_terms", int64(len(s.bits))))
	s.obs.Metrics.Add("smt.checks", 1)
	return st, err
}

// ValidateModel re-evaluates every asserted term and the last Check
// call's assumptions under the current model using the reference
// interpreter, returning an error on the first term that does not
// evaluate to true. It must be called while a Sat model is held.
func (s *Solver) ValidateModel() error {
	if s.model == nil {
		return fmt.Errorf("no model to validate")
	}
	ev := NewEvaluator(func(v *Term) bv.BV {
		if val, ok := s.model[v]; ok {
			return val
		}
		return bv.Zero(v.Width)
	})
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

func (s *Solver) snapshotModel() {
	s.model = map[*Term]bv.BV{}
	for t, lits := range s.bits {
		if t.Op != OpVar {
			continue
		}
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
	if s.model == nil {
		panic("smt: Value called without a Sat model")
	}
	return Eval(t, func(v *Term) bv.BV {
		if val, ok := s.model[v]; ok {
			return val
		}
		return bv.Zero(v.Width)
	})
}

// NumSATVars reports the size of the underlying SAT instance (for stats).
func (s *Solver) NumSATVars() int { return s.sat.NumVars() }

// Stats returns the underlying SAT search statistics.
func (s *Solver) Stats() (conflicts, decisions, propagations int64) { return s.sat.Stats() }

// SATStats returns the full underlying SAT solver statistics.
func (s *Solver) SATStats() sat.Statistics { return s.sat.Statistics() }
