package eval

import (
	"os"
	"testing"
	"time"

	"rtlrepair/internal/bench"
	"rtlrepair/internal/core"
	"rtlrepair/internal/sim"
)

// quickCorpus is the subset exercised by the default test run: the
// designs with the largest pinned CNF reductions, where an inflation
// bug would be most visible. The full 45-design sweep adds minutes to
// the eval binary, so it rides the corpus-certification gate
// (RTLREPAIR_CERTIFY=1, its own CI job) instead.
var quickCorpus = map[string]bool{
	"counter_k1": true,
	"fsm_w1":     true,
	"i2c_w2":     true,
	"sdram_w1":   true,
}

// TestAbsintNeverWorse pins the simplifier's never-worse guarantee over
// the corpus: with abstract interpretation on, no design may encode to
// more CNF variables or clauses than with it off. The comparison uses
// the passive no-absint shadow encoder (Options.ShadowCNF), which
// re-blasts the identical assert stream of the very same run — so a
// violation is an encoding regression, not scheduling noise.
func TestAbsintNeverWorse(t *testing.T) {
	full := os.Getenv("RTLREPAIR_CERTIFY") != ""
	for _, b := range bench.Registry() {
		b := b
		if !full && !quickCorpus[b.Name] {
			continue
		}
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			tr, err := b.Trace()
			if err != nil {
				t.Fatalf("trace: %v", err)
			}
			m, err := b.BuggyModule()
			if err != nil {
				t.Fatalf("module: %v", err)
			}
			lib, _ := b.LibModules()
			res := core.Repair(m, tr, core.Options{
				Policy:    sim.Randomize,
				Seed:      ChooseSeed(b, 1),
				Timeout:   30 * time.Second,
				Lib:       lib,
				Workers:   1,
				ShadowCNF: true,
			})
			var vars, clauses int64
			for _, at := range res.PerTemplate {
				vars += at.Stats.SAT.Vars
				clauses += at.Stats.SAT.Clauses
			}
			na := res.Shadow
			if na.Vars == 0 {
				// Designs rejected before any SMT solve (e.g. cannot-repair
				// at elaboration) legitimately record no shadows — but then
				// they must not have blasted anything live either.
				if vars != 0 || clauses != 0 {
					t.Fatalf("live CNF %d/%d but no shadow statistics (status %s)",
						vars, clauses, res.Status)
				}
				t.Skipf("no solver ran (status %s)", res.Status)
			}
			if vars > na.Vars {
				t.Errorf("live encoding has %d vars, no-absint shadow %d — absint made the CNF larger",
					vars, na.Vars)
			}
			if clauses > na.Clauses {
				t.Errorf("live encoding has %d clauses, no-absint shadow %d — absint made the CNF larger",
					clauses, na.Clauses)
			}
			t.Logf("%s: live %d/%d vs no-absint %d/%d (%.1f%% / %.1f%% smaller)",
				b.Name, vars, clauses, na.Vars, na.Clauses,
				reduction(vars, na.Vars), reduction(clauses, na.Clauses))
		})
	}
}

func reduction(live, base int64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (1 - float64(live)/float64(base))
}
