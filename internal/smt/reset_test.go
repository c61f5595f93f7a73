package smt

import (
	"fmt"
	"testing"

	"rtlrepair/internal/sat"
)

// replayOutcome is everything a query sequence reports that must not
// depend on the solver's history.
type replayOutcome struct {
	verdicts []string
	stats    []sat.Statistics
	cert     CertifyStats
}

// replaySequence asserts and checks one fixed sequence of queries: a
// Sat answer, a minimal-change style search with an Unsat answer under
// assumptions, a blocking assertion and a final Sat answer.
func replaySequence(t *testing.T, ctx *Context, s *Solver, certify bool) replayOutcome {
	t.Helper()
	if certify {
		s.EnableCertification()
	}
	x, y, z := ctx.Var("x", 8), ctx.Var("y", 8), ctx.Var("z", 8)
	s.Assert(ctx.Eq(ctx.Add(ctx.Mul(x, y), z), ctx.ConstU(8, 77)))
	s.Assert(ctx.Ult(z, ctx.ConstU(8, 40)))
	var out replayOutcome
	record := func(st sat.Status, err error) {
		if err != nil {
			t.Fatal(err)
		}
		v := st.String()
		if st == sat.Sat {
			v += fmt.Sprintf(" x=%v y=%v z=%v", s.Value(x), s.Value(y), s.Value(z))
		}
		out.verdicts = append(out.verdicts, v)
		out.stats = append(out.stats, s.SATStats())
	}
	record(s.Check(ctx.Ult(x, ctx.ConstU(8, 9))))
	record(s.Check(ctx.Eq(x, ctx.ConstU(8, 0))))
	for k := uint64(0); k < 4; k++ {
		record(s.Check(ctx.Ule(ctx.Add(x, y), ctx.ConstU(8, k))))
	}
	s.Assert(ctx.Not(ctx.Eq(x, ctx.ConstU(8, 7))))
	record(s.Check(ctx.Ult(y, ctx.ConstU(8, 20))))
	out.cert = s.CertifyStats()
	out.cert.CheckTime = 0
	if s.Certifying() != certify {
		t.Fatalf("Certifying() = %v, want %v", s.Certifying(), certify)
	}
	return out
}

// TestResetSolverMatchesFresh replays one query sequence on a new
// solver and on a reset one that first decided an unrelated formula,
// with certification on and off before and after the reset. Every
// verdict, model value, SAT statistic, proof length and certification
// count must agree.
func TestResetSolverMatchesFresh(t *testing.T) {
	for _, before := range []bool{false, true} {
		for _, certify := range []bool{false, true} {
			t.Run(fmt.Sprintf("before=%v/certify=%v", before, certify), func(t *testing.T) {
				ctx := NewContext()
				want := replaySequence(t, ctx, NewSolver(ctx), certify)

				other := NewContext()
				s := NewSolver(other)
				if before {
					s.EnableCertification()
				}
				a, b := other.Var("a", 16), other.Var("b", 16)
				s.Assert(other.Eq(other.Mul(a, b), other.ConstU(16, 391)))
				if st, err := s.Check(other.Ult(a, other.ConstU(16, 17))); err != nil || st != sat.Sat {
					t.Fatalf("unrelated sat check: %v %v", st, err)
				}
				if st, err := s.Check(other.Eq(a, other.ConstU(16, 2))); err != nil || st != sat.Unsat {
					t.Fatalf("unrelated unsat check: %v %v", st, err)
				}
				s.Reset()
				if s.Certifying() {
					t.Fatal("Certifying() true after Reset")
				}
				got := replaySequence(t, ctx, s, certify)

				if fmt.Sprint(got.verdicts) != fmt.Sprint(want.verdicts) {
					t.Errorf("verdicts after Reset:\n got %v\nwant %v", got.verdicts, want.verdicts)
				}
				for i := range want.stats {
					if got.stats[i] != want.stats[i] {
						t.Errorf("check %d statistics after Reset:\n got %+v\nwant %+v", i, got.stats[i], want.stats[i])
					}
				}
				if got.cert != want.cert {
					t.Errorf("certification after Reset:\n got %+v\nwant %+v", got.cert, want.cert)
				}
				if certify && want.cert.UnsatsCertified == 0 {
					t.Errorf("the sequence certified no Unsat verdict: %v", want.verdicts)
				}
			})
		}
	}
}
