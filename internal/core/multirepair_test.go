package core

import (
	"context"
	"strings"
	"testing"

	"rtlrepair/internal/obs"
	"rtlrepair/internal/verilog"
)

func TestRepairAllSamplesDistinctRepairs(t *testing.T) {
	ins, outs := counterIO()
	tr := recordGolden(t, goodCounter, ins, outs, counterRows())
	cands := RepairAll(mustParse(t, buggyCounter), tr, repairOpts(), 4)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	seen := map[string]bool{}
	for _, c := range cands {
		src := verilog.Print(c.Repaired)
		if seen[src] {
			t.Fatal("duplicate candidate")
		}
		seen[src] = true
		// Every candidate must synthesize and pass the trace.
		checkRepairPasses(t, &Result{Repaired: c.Repaired}, tr)
		if c.Changes <= 0 {
			t.Fatalf("candidate with %d changes", c.Changes)
		}
	}
	// Ordered by size.
	for i := 1; i < len(cands); i++ {
		if cands[i].Changes < cands[i-1].Changes {
			t.Fatal("candidates not ordered by change count")
		}
	}
}

func TestRepairAllEmptyForPassingDesign(t *testing.T) {
	ins, outs := counterIO()
	tr := recordGolden(t, goodCounter, ins, outs, counterRows())
	cands := RepairAll(mustParse(t, goodCounter), tr, repairOpts(), 4)
	if len(cands) != 0 {
		t.Fatalf("got %d candidates for a passing design", len(cands))
	}
}

// TestRepairMultiAndAllCertify runs both entries in self-certifying
// mode, where a Sat model the reference interpreter rejects, or an Unsat
// verdict whose DRUP proof does not check, panics. On the two-trace
// counter RepairMulti's first query is Sat and its minimal-change
// search's Σφ ≤ 0 query is Unsat, so both checkers run.
func TestRepairMultiAndAllCertify(t *testing.T) {
	opts := repairOpts()
	opts.Certify = true
	buggy := strings.Replace(goodCounter, "count + 1", "count + 2", 1)
	res := RepairMulti(mustParse(t, buggy), twoTraces(t), opts)
	if res.Status != StatusRepaired {
		t.Fatalf("RepairMulti status = %v (%s)", res.Status, res.Reason)
	}
	if res.Certify.ModelsValidated < 1 || res.Certify.UnsatsCertified < 1 {
		t.Fatalf("RepairMulti certified too little: %+v", res.Certify)
	}
	ins, outs := counterIO()
	tr := recordGolden(t, goodCounter, ins, outs, counterRows())
	cands := RepairAll(mustParse(t, buggyCounter), tr, opts, 4)
	if len(cands) == 0 {
		t.Fatal("RepairAll found no candidates in certifying mode")
	}
	for _, c := range cands {
		checkRepairPasses(t, &Result{Repaired: c.Repaired}, tr)
	}
}

// TestRepairAllRecordsUnderScope: RepairAllCtx records into the
// context's private recorder and registry; its root span reports
// repaired because it returned candidates.
func TestRepairAllRecordsUnderScope(t *testing.T) {
	ins, outs := counterIO()
	tr := recordGolden(t, goodCounter, ins, outs, counterRows())
	rec, reg := obs.NewRecorder(0), obs.NewRegistry()
	ctx := obs.NewContext(context.Background(), obs.Scope{Rec: rec, Metrics: reg})
	cands := RepairAllCtx(ctx, mustParse(t, buggyCounter), tr, repairOpts(), 16)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	var tried []string
	for _, tmpl := range DefaultTemplates() {
		tried = append(tried, tmpl.Name())
	}
	checkRunRecorded(t, rec, reg, "first_counter", tried)
	if reg.Counter("repair.status.repaired") != 1 {
		t.Fatal("repair.status.repaired not counted")
	}
}

// TestRepairAllHonoursFrontend: with opts.Frontend set RepairAllCtx
// reuses the artifact instead of preprocessing again, and samples the
// same candidates as with its own frontend.
func TestRepairAllHonoursFrontend(t *testing.T) {
	ins, outs := counterIO()
	tr := recordGolden(t, goodCounter, ins, outs, counterRows())
	repairWith := func(fe bool) ([]Candidate, int) {
		m := mustParse(t, buggyCounter)
		opts := repairOpts()
		if fe {
			opts.Frontend = NewFrontend(m, nil, false)
		}
		rec := obs.NewRecorder(0)
		cands := RepairAllCtx(obs.NewContext(context.Background(), obs.Scope{Rec: rec}), m, tr, opts, 4)
		return cands, len(spanEnds(rec, "preprocess"))
	}
	inline, inlineSpans := repairWith(false)
	cands, spans := repairWith(true)
	if inlineSpans != 1 || spans != 0 {
		t.Fatalf("preprocess spans: %d inline, %d with a pre-built frontend; want 1 and 0", inlineSpans, spans)
	}
	if len(cands) == 0 || len(cands) != len(inline) {
		t.Fatalf("%d candidates with the frontend, %d inline", len(cands), len(inline))
	}
	for i := range cands {
		if verilog.Print(cands[i].Repaired) != verilog.Print(inline[i].Repaired) {
			t.Fatalf("candidate %d differs from the inline run", i)
		}
	}
}
