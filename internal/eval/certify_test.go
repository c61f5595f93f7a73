package eval

import (
	"os"
	"sync/atomic"
	"testing"
	"time"

	"rtlrepair/internal/bench"
)

// TestCertifyCorpus runs the full repair flow over every benchmark in
// self-certifying mode: each Unsat verdict must pass the independent
// DRUP checker and each Sat model must re-evaluate to true under the
// reference interpreter. A failed check panics inside the solver, so
// merely completing a design certifies every verdict of its repair
// loop. Gated behind an environment variable because it repeats the
// whole suite; CI runs it as a dedicated job:
//
//	RTLREPAIR_CERTIFY=1 go test -run TestCertifyCorpus ./internal/eval/
func TestCertifyCorpus(t *testing.T) {
	if os.Getenv("RTLREPAIR_CERTIFY") == "" {
		t.Skip("set RTLREPAIR_CERTIFY=1 to run the corpus-wide certification pass")
	}
	var models, unsats, steps atomic.Int64
	t.Cleanup(func() {
		t.Logf("corpus totals: %d models validated, %d unsat verdicts DRUP-checked, %d proof steps",
			models.Load(), unsats.Load(), steps.Load())
		if models.Load() == 0 || unsats.Load() == 0 {
			t.Errorf("certification exercised no solver verdicts (models=%d unsats=%d)",
				models.Load(), unsats.Load())
		}
	})
	for _, b := range bench.Registry() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			opts := DefaultOptions()
			opts.RTLTimeout = 30 * time.Second
			opts.Workers = 1
			opts.Certify = true
			run := RunRTLRepair(b, opts)
			if run.Err != "" {
				t.Fatalf("run error: %s", run.Err)
			}
			var m, u, s int64
			for _, at := range run.PerTemplate {
				m += int64(at.Stats.Certify.ModelsValidated)
				u += int64(at.Stats.Certify.UnsatsCertified)
				s += int64(at.Stats.Certify.ProofSteps)
			}
			models.Add(m)
			unsats.Add(u)
			steps.Add(s)
			t.Logf("%s: status=%s, %d models validated, %d unsats certified (%d proof steps)",
				b.Name, run.Status, m, u, s)
		})
	}
}

// TestCertifyCorpusParallel repeats the corpus certification with the
// parallel portfolio (workers=4), where attempts run concurrently and
// siblings are cancelled mid-search. Every Unsat verdict must still
// pass the independent checker. Same gate as above:
//
//	RTLREPAIR_CERTIFY=1 go test -run TestCertifyCorpusParallel ./internal/eval/
func TestCertifyCorpusParallel(t *testing.T) {
	if os.Getenv("RTLREPAIR_CERTIFY") == "" {
		t.Skip("set RTLREPAIR_CERTIFY=1 to run the corpus-wide certification pass")
	}
	var unsats atomic.Int64
	t.Cleanup(func() {
		t.Logf("corpus totals: %d unsat verdicts DRUP-checked", unsats.Load())
		if unsats.Load() == 0 {
			t.Errorf("parallel certification exercised no unsat verdicts")
		}
	})
	for _, b := range bench.Registry() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			opts := DefaultOptions()
			opts.RTLTimeout = 30 * time.Second
			opts.Workers = 4
			opts.Certify = true
			run := RunRTLRepair(b, opts)
			if run.Err != "" {
				t.Fatalf("run error: %s", run.Err)
			}
			var u int64
			for _, at := range run.PerTemplate {
				u += int64(at.Stats.Certify.UnsatsCertified)
			}
			unsats.Add(u)
			t.Logf("%s: status=%s, %d unsats certified", b.Name, run.Status, u)
		})
	}
}
