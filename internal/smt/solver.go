package smt

import (
	"fmt"
	"math"
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
	sat *sat.Solver
	// bits maps a blasted term to the offset of its Width literals
	// (LSB first) in lits; varTerms lists the blasted OpVar terms.
	bits     map[*Term]uint32
	lits     []sat.Lit
	varTerms []*Term
	gates    gateTable
	t, f     sat.Lit

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
		bits:     map[*Term]uint32{},
		validate: testing.Testing(),
	}
	v := s.sat.NewVar()
	s.t = sat.PosLit(v)
	s.f = s.t.Not()
	s.sat.AddClause(s.t)
	return s
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
	key := gateKey(false, a, b)
	if g, ok := s.gates.get(key); ok {
		return g
	}
	g := s.fresh()
	s.sat.AddClause(g.Not(), a)
	s.sat.AddClause(g.Not(), b)
	s.sat.AddClause(g, a.Not(), b.Not())
	s.gates.put(key, g)
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
	key := gateKey(true, a, b)
	if g, ok := s.gates.get(key); ok {
		return g
	}
	g := s.fresh()
	s.sat.AddClause(g.Not(), a, b)
	s.sat.AddClause(g.Not(), a.Not(), b.Not())
	s.sat.AddClause(g, a, b.Not())
	s.sat.AddClause(g, a.Not(), b)
	s.gates.put(key, g)
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

// appendConst appends v's bits as constant literals to out.
func (s *Solver) appendConst(out []sat.Lit, v bv.BV) []sat.Lit {
	for i := range v.Width() {
		l := s.f
		if v.Bit(i) {
			l = s.t
		}
		out = append(out, l)
	}
	return out
}

// blast returns the SAT literals (LSB first) representing t. They
// alias s.lits and must not be modified.
func (s *Solver) blast(t *Term) []sat.Lit {
	if off, ok := s.bits[t]; ok {
		end := off + uint32(t.Width)
		return s.lits[off:end:end]
	}
	// Every operator's encoding blasts its arguments first, in order, so
	// t's literals are the ones appended after theirs.
	var args [3][]sat.Lit
	for i, arg := range t.Args {
		args[i] = s.blast(arg)
	}
	a, b := args[0], args[1]
	start := len(s.lits)
	switch t.Op {
	case OpConst:
		s.lits = s.appendConst(s.lits, t.Val)
	case OpVar:
		for range t.Width {
			s.lits = append(s.lits, s.fresh())
		}
		s.varTerms = append(s.varTerms, t)
	case OpNot:
		for _, l := range a {
			s.lits = append(s.lits, l.Not())
		}
	case OpAnd, OpOr, OpXor:
		for i := range a {
			var l sat.Lit
			switch t.Op {
			case OpAnd:
				l = s.andLit(a[i], b[i])
			case OpOr:
				l = s.orLit(a[i], b[i])
			default:
				l = s.xorLit(a[i], b[i])
			}
			s.lits = append(s.lits, l)
		}
	case OpNeg:
		na := make([]sat.Lit, len(a))
		for i := range a {
			na[i] = a[i].Not()
		}
		s.lits = append(s.lits, s.addBits(na, s.appendConst(nil, bv.Zero(t.Width)), s.t)...)
	case OpAdd:
		s.lits = append(s.lits, s.addBits(a, b, s.f)...)
	case OpSub:
		nb := make([]sat.Lit, len(b))
		for i := range b {
			nb[i] = b[i].Not()
		}
		s.lits = append(s.lits, s.addBits(a, nb, s.t)...)
	case OpMul:
		acc := s.appendConst(nil, bv.Zero(t.Width))
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
		s.lits = append(s.lits, acc...)
	case OpUdiv, OpUrem:
		q, r := s.divRemBits(a, b)
		if t.Op == OpUdiv {
			s.lits = append(s.lits, q...)
		} else {
			s.lits = append(s.lits, r...)
		}
	case OpEq:
		eq := s.t
		for i := range a {
			eq = s.andLit(eq, s.iffLit(a[i], b[i]))
		}
		s.lits = append(s.lits, eq)
	case OpUlt:
		s.lits = append(s.lits, s.ultBits(a, b))
	case OpSlt:
		fa := append([]sat.Lit(nil), a...)
		fb := append([]sat.Lit(nil), b...)
		fa[len(fa)-1] = fa[len(fa)-1].Not()
		fb[len(fb)-1] = fb[len(fb)-1].Not()
		s.lits = append(s.lits, s.ultBits(fa, fb))
	case OpShl, OpLshr, OpAshr:
		s.lits = append(s.lits, s.shiftBits(t.Op, a, b)...)
	case OpConcat:
		s.lits = append(append(s.lits, b...), a...) // a is the high part
	case OpExtract:
		s.lits = append(s.lits, a[t.Lo:t.Hi+1]...)
	case OpZeroExt:
		s.lits = append(s.lits, a...)
		for range t.Width - len(a) {
			s.lits = append(s.lits, s.f)
		}
	case OpSignExt:
		s.lits = append(s.lits, a...)
		for range t.Width - len(a) {
			s.lits = append(s.lits, a[len(a)-1])
		}
	case OpIte:
		c := a[0]
		for i := range b {
			s.lits = append(s.lits, s.muxLit(c, b[i], args[2][i]))
		}
	case OpRedOr:
		r := s.f
		for _, l := range a {
			r = s.orLit(r, l)
		}
		s.lits = append(s.lits, r)
	case OpRedAnd:
		r := s.t
		for _, l := range a {
			r = s.andLit(r, l)
		}
		s.lits = append(s.lits, r)
	case OpRedXor:
		r := s.f
		for _, l := range a {
			r = s.xorLit(r, l)
		}
		s.lits = append(s.lits, r)
	default:
		panic(fmt.Sprintf("smt: blast of %v", t.Op))
	}
	if n := len(s.lits) - start; n != t.Width {
		panic(fmt.Sprintf("smt: blast width mismatch for %v: got %d want %d", t.Op, n, t.Width))
	}
	if len(s.lits) > math.MaxUint32 {
		panic("smt: more than 2^32 blasted literals")
	}
	s.bits[t] = uint32(start)
	return s.lits[start:len(s.lits):len(s.lits)]
}

// divRemBits implements restoring long division. For a zero divisor the
// quotient is all ones and the remainder equals the dividend, matching
// SMT-LIB.
func (s *Solver) divRemBits(a, b []sat.Lit) (q, r []sat.Lit) {
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

// shiftBits builds a barrel shifter that shifts a by amt.
func (s *Solver) shiftBits(op Op, a, amt []sat.Lit) []sat.Lit {
	w := len(a)
	cur := a
	var fill func(i int) sat.Lit
	switch op {
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
			switch op {
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

// Assert adds a width-1 term as a hard constraint.
func (s *Solver) Assert(t *Term) {
	if t.Width != 1 {
		panic("smt: assert of non-boolean term")
	}
	if t.Op == OpConst && !t.Val.IsZero() {
		return // trivially true
	}
	s.sat.AddClause(s.blast(t)[0])
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
		lits = append(lits, s.blast(a)[0])
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
	span.End(obs.Str("result", st.String()), obs.Int("smt_terms", int64(len(s.bits))))
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
	for _, t := range s.varTerms {
		lits := s.blast(t)
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
