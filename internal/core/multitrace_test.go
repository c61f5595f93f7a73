package core

import (
	"context"
	"slices"
	"strings"
	"testing"
	"time"

	"rtlrepair/internal/bench"
	"rtlrepair/internal/bv"
	"rtlrepair/internal/obs"
	"rtlrepair/internal/sim"
	"rtlrepair/internal/trace"
	"rtlrepair/internal/verilog"
)

// twoTraces builds two short traces from the golden counter that
// together pin down the increment: one counts, one holds.
func twoTraces(t *testing.T) []*trace.Trace {
	ins, outs := counterIO()
	count := recordGolden(t, goodCounter, ins, outs, [][]bv.XBV{
		{bv.KU(1, 1), bv.KU(1, 0)},
		{bv.KU(1, 0), bv.KU(1, 1)},
		{bv.KU(1, 0), bv.KU(1, 1)},
		{bv.KU(1, 0), bv.KU(1, 1)},
	})
	hold := recordGolden(t, goodCounter, ins, outs, [][]bv.XBV{
		{bv.KU(1, 1), bv.KU(1, 0)},
		{bv.KU(1, 0), bv.KU(1, 0)},
		{bv.KU(1, 0), bv.KU(1, 0)},
		{bv.KU(1, 0), bv.KU(1, 0)},
	})
	return []*trace.Trace{count, hold}
}

func TestRepairMultiSatisfiesAllTraces(t *testing.T) {
	buggy := strings.Replace(goodCounter, "count + 1", "count + 2", 1)
	res := RepairMulti(mustParse(t, buggy), twoTraces(t), repairOpts())
	if res.Status != StatusRepaired {
		t.Fatalf("status = %v (%s)", res.Status, res.Reason)
	}
	for i, tr := range twoTraces(t) {
		checkRepairPasses(t, res, tr)
		_ = i
	}
	if res.Template != "Replace Literals" || res.Changes != 1 {
		t.Fatalf("template %s changes %d", res.Template, res.Changes)
	}
}

func TestRepairMultiNoRepairNeeded(t *testing.T) {
	res := RepairMulti(mustParse(t, goodCounter), twoTraces(t), repairOpts())
	if res.Status != StatusNoRepairNeeded {
		t.Fatalf("status = %v", res.Status)
	}
}

func TestRepairMultiEmptyTraceList(t *testing.T) {
	res := RepairMulti(mustParse(t, goodCounter), nil, repairOpts())
	if res.Status != StatusNoRepairNeeded {
		t.Fatalf("status = %v", res.Status)
	}
}

func TestRepairMultiUnsynthesizable(t *testing.T) {
	src := `
module bad(input clk, input en, output reg [3:0] q);
always @(clk) begin
  if (en) q <= q + 1;
end
endmodule`
	res := RepairMulti(mustParse(t, src), twoTraces(t), repairOpts())
	if res.Status != StatusCannotRepair {
		t.Fatalf("status = %v", res.Status)
	}
}

// A repair must not satisfy one trace at the expense of the other:
// construct a bug where the "cheap" fix for trace A alone breaks trace
// B, forcing the joint solution.
func TestRepairMultiJointConstraint(t *testing.T) {
	buggy := strings.Replace(goodCounter, "count + 1", "count + 2", 1)
	traces := twoTraces(t)
	// Single-trace repair against the hold-only trace would accept the
	// buggy increment (nothing increments there) — the design passes it
	// outright. Jointly, the counting trace forces the fix while the
	// hold trace guards against overwrite-style overfits.
	resHoldOnly := RepairMulti(mustParse(t, buggy), traces[1:], repairOpts())
	if resHoldOnly.Status != StatusNoRepairNeeded {
		t.Fatalf("hold-only status = %v, want no-repair-needed (bug invisible)", resHoldOnly.Status)
	}
	resJoint := RepairMulti(mustParse(t, buggy), traces, repairOpts())
	if resJoint.Status != StatusRepaired {
		t.Fatalf("joint status = %v", resJoint.Status)
	}
	if !strings.Contains(verilog.Print(resJoint.Repaired), "count + 32'") &&
		!strings.Contains(verilog.Print(resJoint.Repaired), "count + 1") {
		t.Logf("repair:\n%s", verilog.Print(resJoint.Repaired))
	}
}

// TestRepairMultiCertify runs RepairMulti in self-certifying mode,
// where a Sat model the reference interpreter rejects, or an Unsat
// verdict whose DRUP proof does not check, panics. On the two-trace
// counter the first query is Sat and the minimal-change search's
// Σφ ≤ 0 query is Unsat, so both checkers run.
func TestRepairMultiCertify(t *testing.T) {
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
}

// spanEnds returns the span_end events named name in rec, in order.
func spanEnds(rec *obs.Recorder, name string) []obs.Event {
	var out []obs.Event
	for _, ev := range rec.Events() {
		if ev.Kind == obs.EvSpanEnd && ev.Name == name {
			out = append(out, ev)
		}
	}
	return out
}

// checkRunRecorded checks what the shared start and finish steps and the
// sequential template loop record for one run of design: one root
// "repair" span labelled with the design, one "attempt" span labelled
// p0:<template> per template tried, in template order, and one
// repair.runs count.
func checkRunRecorded(t *testing.T, rec *obs.Recorder, reg *obs.Registry, design string, tried []string) {
	t.Helper()
	roots := spanEnds(rec, "repair")
	if len(roots) != 1 || roots[0].Scope != design || obs.AttrMap(roots[0].Attrs)["design"] != design {
		t.Fatalf("root repair spans = %+v, want one labelled %q", roots, design)
	}
	var got []string
	for _, ev := range spanEnds(rec, "attempt") {
		tmpl, _ := obs.AttrMap(ev.Attrs)["template"].(string)
		if ev.Scope != design+"/p0:"+tmpl {
			t.Fatalf("attempt span scope = %q, want %s/p0:%s", ev.Scope, design, tmpl)
		}
		got = append(got, tmpl)
	}
	if !slices.Equal(got, tried) {
		t.Fatalf("attempt spans for %v, want %v", got, tried)
	}
	if n := reg.Counter("repair.runs"); n != 1 {
		t.Fatalf("repair.runs = %d, want 1", n)
	}
	if live := rec.LiveSpans(); len(live) != 0 {
		t.Fatalf("%d live spans leaked", len(live))
	}
}

// TestRepairMultiRecordsUnderScope: RepairMultiCtx records into the
// context's private recorder and registry, not into obs.Default().
func TestRepairMultiRecordsUnderScope(t *testing.T) {
	rec, reg := obs.NewRecorder(0), obs.NewRegistry()
	ctx := obs.NewContext(context.Background(), obs.Scope{Rec: rec, Metrics: reg})
	buggy := strings.Replace(goodCounter, "count + 1", "count + 2", 1)
	res := RepairMultiCtx(ctx, mustParse(t, buggy), twoTraces(t), repairOpts())
	if res.Status != StatusRepaired {
		t.Fatalf("status = %v (%s)", res.Status, res.Reason)
	}
	checkRunRecorded(t, rec, reg, "first_counter", []string{"Replace Literals"})
	if reg.Counter("repair.status.repaired") != 1 {
		t.Fatal("repair.status.repaired not counted")
	}
}

// TestRepairMultiHonoursFrontend: with opts.Frontend set RepairMultiCtx
// reuses the artifact instead of preprocessing again, and repairs as it
// does with its own frontend.
func TestRepairMultiHonoursFrontend(t *testing.T) {
	buggy := strings.Replace(goodCounter, "count + 1", "count + 2", 1)
	repairWith := func(fe bool) (*Result, int) {
		m := mustParse(t, buggy)
		opts := repairOpts()
		if fe {
			opts.Frontend = NewFrontend(m, nil, false)
		}
		rec := obs.NewRecorder(0)
		res := RepairMultiCtx(obs.NewContext(context.Background(), obs.Scope{Rec: rec}), m, twoTraces(t), opts)
		return res, len(spanEnds(rec, "preprocess"))
	}
	inline, inlineSpans := repairWith(false)
	res, spans := repairWith(true)
	if inlineSpans != 1 || spans != 0 {
		t.Fatalf("preprocess spans: %d inline, %d with a pre-built frontend; want 1 and 0", inlineSpans, spans)
	}
	if res.Status != inline.Status || res.Template != inline.Template || res.Changes != inline.Changes ||
		verilog.Print(res.Repaired) != verilog.Print(inline.Repaired) {
		t.Fatalf("frontend run %v %s %d, inline run %v %s %d",
			res.Status, res.Template, res.Changes, inline.Status, inline.Template, inline.Changes)
	}
}

// TestRepairMultiReportsPreprocessing: when preprocessing alone makes
// every trace pass, RepairMulti reports it as RepairCtx does, with the
// lint fixes as the changes.
func TestRepairMultiReportsPreprocessing(t *testing.T) {
	b := bench.ByName("fsm_s1")
	tr, err := b.Trace()
	if err != nil {
		t.Fatal(err)
	}
	m, err := b.BuggyModule()
	if err != nil {
		t.Fatal(err)
	}
	// fsm_s1's buggy design does not elaborate, so its golden seed is the
	// base seed 1.
	res := RepairMulti(m, []*trace.Trace{tr}, Options{Policy: sim.Randomize, Seed: 1, Timeout: 30 * time.Second})
	if res.Status != StatusPreprocessed {
		t.Fatalf("status = %v (%s), want %v", res.Status, res.Reason, StatusPreprocessed)
	}
	if len(res.Fixes) == 0 || res.Changes != len(res.Fixes) || res.Diagnostics == nil {
		t.Fatalf("fixes %d, changes %d, diagnostics %v", len(res.Fixes), res.Changes, res.Diagnostics != nil)
	}
}
