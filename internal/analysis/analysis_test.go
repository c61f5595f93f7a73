package analysis_test

import (
	"strings"
	"testing"

	"rtlrepair/internal/analysis"
	"rtlrepair/internal/verilog"
)

func analyze(t *testing.T, src string) *analysis.Report {
	t.Helper()
	mods, err := verilog.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	top := mods[len(mods)-1]
	lib := map[string]*verilog.Module{}
	for _, m := range mods[:len(mods)-1] {
		lib[m.Name] = m
	}
	return analysis.Analyze(top, analysis.Options{Lib: lib})
}

func wantRule(t *testing.T, r *analysis.Report, rule string, sev analysis.Severity, n int) {
	t.Helper()
	got := 0
	for _, d := range r.ByRule(rule) {
		if d.Severity == sev {
			got++
		}
	}
	if got != n {
		t.Errorf("rule %s at %v: got %d diagnostics, want %d\nreport:\n%s",
			rule, sev, got, n, reportString(r))
	}
}

func reportString(r *analysis.Report) string {
	var sb strings.Builder
	for _, d := range r.Diagnostics {
		sb.WriteString("  " + d.String() + "\n")
	}
	return sb.String()
}

func TestMultiDrivenContAssigns(t *testing.T) {
	r := analyze(t, `
module m(input a, output wire y);
  assign y = a;
  assign y = ~a;
endmodule`)
	wantRule(t, r, analysis.RuleMultiDriven, analysis.SevError, 1)
}

func TestMultiDrivenMixedProcCont(t *testing.T) {
	r := analyze(t, `
module m(input clk, input a, output reg q);
  assign q = a;
  always @(posedge clk) q <= a;
endmodule`)
	wantRule(t, r, analysis.RuleMultiDriven, analysis.SevError, 1)
}

func TestMultiDrivenDisjointBitsOK(t *testing.T) {
	r := analyze(t, `
module m(input a, input b, output wire [1:0] y);
  assign y[0] = a;
  assign y[1] = b;
endmodule`)
	if len(r.Errors()) != 0 {
		t.Errorf("disjoint bit drivers must not error:\n%s", reportString(r))
	}
}

func TestDrivenInputIsError(t *testing.T) {
	r := analyze(t, `
module m(input a, output wire y);
  assign a = 1'b0;
  assign y = a;
endmodule`)
	wantRule(t, r, analysis.RuleMultiDriven, analysis.SevError, 1)
}

func TestUndeclaredTarget(t *testing.T) {
	r := analyze(t, `
module m(input a, output wire y);
  assign y = a;
  assign nope = a;
endmodule`)
	wantRule(t, r, analysis.RuleUndeclared, analysis.SevError, 1)
}

func TestUndrivenAndUnusedWarn(t *testing.T) {
	r := analyze(t, `
module m(input a, output wire y);
  wire ghost;
  wire dead;
  assign dead = a;
  assign y = a & ghost;
endmodule`)
	wantRule(t, r, analysis.RuleUndriven, analysis.SevWarning, 1) // ghost
	wantRule(t, r, analysis.RuleUnused, analysis.SevWarning, 1)   // dead
	if len(r.Errors()) != 0 {
		t.Errorf("undriven/unused are warnings, not errors:\n%s", reportString(r))
	}
}

func TestCombLoopDetected(t *testing.T) {
	r := analyze(t, `
module m(input a, output wire y);
  wire mid;
  assign mid = y & a;
  assign y = mid | a;
endmodule`)
	wantRule(t, r, analysis.RuleCombLoop, analysis.SevError, 1)
	d := r.ByRule(analysis.RuleCombLoop)[0]
	if !strings.Contains(d.Msg, "mid") || !strings.Contains(d.Msg, "y") {
		t.Errorf("loop message should list cycle members, got %q", d.Msg)
	}
}

func TestCombSelfLoopDetected(t *testing.T) {
	r := analyze(t, `
module m(input a, output wire y);
  assign y = y ^ a;
endmodule`)
	wantRule(t, r, analysis.RuleCombLoop, analysis.SevError, 1)
}

func TestBlockingShadowIsNotALoop(t *testing.T) {
	// t is assigned before it is read: blocking semantics, no cycle.
	r := analyze(t, `
module m(input a, input b, output reg y);
  reg tmp;
  always @(*) begin
    tmp = a & b;
    y = tmp | a;
  end
endmodule`)
	wantRule(t, r, analysis.RuleCombLoop, analysis.SevError, 0)
	if len(r.Errors()) != 0 {
		t.Errorf("unexpected errors:\n%s", reportString(r))
	}
}

func TestRegisterBreaksLoop(t *testing.T) {
	r := analyze(t, `
module m(input clk, input a, output wire y);
  reg q;
  assign y = q & a;
  always @(posedge clk) q <= y;
endmodule`)
	wantRule(t, r, analysis.RuleCombLoop, analysis.SevError, 0)
}

func TestWidthTruncationWarns(t *testing.T) {
	r := analyze(t, `
module m(input [7:0] a, input [7:0] b, output wire [3:0] y);
  assign y = a & b;
endmodule`)
	wantRule(t, r, analysis.RuleWidthMismatch, analysis.SevWarning, 1)
}

func TestWidthUnsizedLiteralIsSilent(t *testing.T) {
	r := analyze(t, `
module m(input clk, output reg [3:0] q);
  always @(posedge clk) q <= q + 1;
endmodule`)
	wantRule(t, r, analysis.RuleWidthMismatch, analysis.SevWarning, 0)
}

func TestWidthComparisonMismatchWarns(t *testing.T) {
	r := analyze(t, `
module m(input [4:0] a, output wire y);
  assign y = (a == 2'b11);
endmodule`)
	wantRule(t, r, analysis.RuleWidthMismatch, analysis.SevWarning, 1)
}

func TestParamAssignmentIsSilent(t *testing.T) {
	// `state <= IDLE` with a 32-bit parameter is idiomatic, not a bug.
	r := analyze(t, `
module m(input clk, output reg [1:0] state);
  parameter IDLE = 0;
  always @(posedge clk) state <= IDLE;
endmodule`)
	wantRule(t, r, analysis.RuleWidthMismatch, analysis.SevWarning, 0)
}

func TestCaseIncompleteWarns(t *testing.T) {
	r := analyze(t, `
module m(input [1:0] s, output reg y);
  always @(*) begin
    y = 1'b0;
    case (s)
      2'b00: y = 1'b1;
      2'b01: y = 1'b0;
    endcase
  end
endmodule`)
	wantRule(t, r, analysis.RuleCaseIncomplete, analysis.SevWarning, 1)
}

func TestCaseCompleteOrDefaultIsSilent(t *testing.T) {
	r := analyze(t, `
module m(input [0:0] s, input [1:0] d, output reg y, output reg z);
  always @(*) begin
    case (s)
      1'b0: y = 1'b1;
      1'b1: y = 1'b0;
    endcase
    case (d)
      2'b00: z = 1'b1;
      default: z = 1'b0;
    endcase
  end
endmodule`)
	wantRule(t, r, analysis.RuleCaseIncomplete, analysis.SevWarning, 0)
}

func TestCaseOverlapAndDeadArm(t *testing.T) {
	r := analyze(t, `
module m(input [1:0] s, output reg y);
  always @(*) begin
    case (s)
      2'b00: y = 1'b1;
      2'b00: y = 1'b0;
      2'b01: y = 1'b1;
      default: y = 1'b0;
    endcase
  end
endmodule`)
	wantRule(t, r, analysis.RuleCaseOverlap, analysis.SevWarning, 1)
	wantRule(t, r, analysis.RuleDeadBranch, analysis.SevWarning, 1)
}

func TestCaseLabelWidthMismatchWarns(t *testing.T) {
	r := analyze(t, `
module m(input [2:0] s, output reg y);
  always @(*) begin
    case (s)
      2'b01: y = 1'b1;
      default: y = 1'b0;
    endcase
  end
endmodule`)
	wantRule(t, r, analysis.RuleWidthMismatch, analysis.SevWarning, 1)
}

func TestCasezWildcardsAreSilent(t *testing.T) {
	r := analyze(t, `
module m(input [2:0] s, output reg y);
  always @(*) begin
    casez (s)
      3'b1??: y = 1'b1;
      default: y = 1'b0;
    endcase
  end
endmodule`)
	wantRule(t, r, analysis.RuleCaseOverlap, analysis.SevWarning, 0)
	wantRule(t, r, analysis.RuleCaseIncomplete, analysis.SevWarning, 0)
}

func TestDeadIfBranchWarns(t *testing.T) {
	r := analyze(t, `
module m(input a, output reg y);
  always @(*) begin
    if (1'b0) y = a;
    else y = ~a;
  end
endmodule`)
	wantRule(t, r, analysis.RuleDeadBranch, analysis.SevWarning, 1)
}

func TestAsyncResetIsError(t *testing.T) {
	r := analyze(t, `
module m(input clk, input rst, input d, output reg q);
  always @(posedge clk or posedge rst) begin
    if (rst) q <= 1'b0;
    else q <= d;
  end
endmodule`)
	wantRule(t, r, analysis.RuleAsyncReset, analysis.SevError, 1)
}

func TestMixedSensitivityWarns(t *testing.T) {
	r := analyze(t, `
module m(input clk, input en, input d, output reg q);
  always @(posedge clk or en) q <= d & en;
endmodule`)
	wantRule(t, r, analysis.RuleMixedSensitivity, analysis.SevWarning, 1)
}

func TestMultipleClocksIsError(t *testing.T) {
	r := analyze(t, `
module m(input clk1, input clk2, input d, output reg q, output reg p);
  always @(posedge clk1) q <= d;
  always @(posedge clk2) p <= d;
endmodule`)
	wantRule(t, r, analysis.RuleNotSynthesizable, analysis.SevError, 1)
}

func TestSensIncompleteWarns(t *testing.T) {
	r := analyze(t, `
module m(input a, input b, output reg y);
  always @(a) y = a & b;
endmodule`)
	wantRule(t, r, analysis.RuleSensIncomplete, analysis.SevWarning, 1)
	d := r.ByRule(analysis.RuleSensIncomplete)[0]
	if d.Signal != "b" {
		t.Errorf("missing signal = %q, want b", d.Signal)
	}
}

func TestOutOfRangeSelectIsError(t *testing.T) {
	r := analyze(t, `
module m(input a, output wire [1:0] y);
  assign y[2] = a;
endmodule`)
	wantRule(t, r, analysis.RuleOutOfRange, analysis.SevError, 1)
}

func TestUnparseableDesignIsNotSynthesizable(t *testing.T) {
	r := analyze(t, `
module sub(input x, inout z);
endmodule
module m(input a, output wire y);
  sub s(.x(a), .z(y), .bogus(a));
  assign y = a;
endmodule`)
	if len(r.Errors()) == 0 {
		t.Errorf("flatten failure must produce an error diagnostic:\n%s", reportString(r))
	}
}

func TestMissingSensesExcludesForVarsAndParams(t *testing.T) {
	mods, err := verilog.Parse(`
module m(input [3:0] a, output reg [3:0] y);
  parameter N = 4;
  integer i;
  always @(a) begin
    for (i = 0; i < N; i = i + 1)
      y[i] = a[i];
  end
endmodule`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	m := mods[0]
	params := analysis.ModuleParams(m)
	var alw *verilog.Always
	for _, it := range m.Items {
		if a, ok := it.(*verilog.Always); ok {
			alw = a
		}
	}
	if alw == nil {
		t.Fatal("no always block")
	}
	missing := analysis.MissingSenses(alw, func(n string) bool { return params[n] })
	if len(missing) != 0 {
		t.Errorf("loop var and parameter must not count as missing, got %v", missing)
	}
}

func TestMissingSensesFindsNestedReads(t *testing.T) {
	mods, err := verilog.Parse(`
module m(input [1:0] s, input a, input b, output reg y);
  always @(s) begin
    case (s)
      2'b00: begin
        if (a) y = b;
        else y = 1'b0;
      end
      default: y = a;
    endcase
  end
endmodule`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	var alw *verilog.Always
	for _, it := range mods[0].Items {
		if a, ok := it.(*verilog.Always); ok {
			alw = a
		}
	}
	missing := analysis.MissingSenses(alw, nil)
	if len(missing) != 2 || missing[0] != "a" || missing[1] != "b" {
		t.Errorf("missing = %v, want [a b]", missing)
	}
}

func TestLocalizeConeAndRanking(t *testing.T) {
	mods, err := verilog.Parse(`
module m(input clk, input a, input b, output wire bad, output wire good);
  reg r1;
  reg r2;
  wire mid;
  assign mid = r1 & a;
  assign bad = mid;
  assign good = r2;
  always @(posedge clk) r1 <= a;
  always @(posedge clk) r2 <= b;
endmodule`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	report := &analysis.Report{}
	report.Diagnostics = append(report.Diagnostics, analysis.Diagnostic{
		Rule: analysis.RuleUnused, Severity: analysis.SevWarning, Signal: "mid",
	})
	loc := analysis.Localize(mods[0], nil, []string{"bad"}, report)
	if loc == nil {
		t.Fatal("Localize returned nil")
	}
	// clk is only a sense-list trigger, not a data dependency, so it
	// stays outside the cone.
	for _, want := range []string{"bad", "mid", "r1", "a"} {
		if !loc.Cone[want] {
			t.Errorf("cone should contain %q (cone %v)", want, loc.Cone)
		}
	}
	for _, not := range []string{"good", "r2", "b"} {
		if loc.Cone[not] {
			t.Errorf("cone must not contain %q (unrelated to failing output)", not)
		}
	}
	if !loc.Flagged["mid"] {
		t.Errorf("mid is diagnostic-flagged and in the cone, Flagged = %v", loc.Flagged)
	}
	if len(loc.Ranked) == 0 || loc.Ranked[0] != "mid" {
		t.Errorf("flagged signals rank first, Ranked = %v", loc.Ranked)
	}
	if !loc.InCone("mid", "nope") || loc.InCone("good") {
		t.Errorf("InCone misbehaves")
	}
	var nilLoc *analysis.Localization
	if !nilLoc.InCone("anything") {
		t.Errorf("nil localization must not prune")
	}
}

func TestLocalizeNoFailingOutputs(t *testing.T) {
	mods, _ := verilog.Parse(`
module m(input a, output wire y);
  assign y = a;
endmodule`)
	if loc := analysis.Localize(mods[0], nil, nil, nil); loc != nil {
		t.Errorf("no failing outputs must yield nil (no pruning), got %+v", loc)
	}
}

// A for-loop induction variable survives unrolling only as a dead
// declaration; it must not be reported as unused or undriven.
func TestLoopVarIsNotUnused(t *testing.T) {
	r := analyze(t, `module top(input a, input b, output reg y);
  integer i;
  reg [3:0] acc;
  always @(*) begin
    acc = 4'd0;
    for (i = 0; i < 4; i = i + 1) acc = acc + {3'b000, a};
    y = acc[0] ^ b;
  end
endmodule`)
	wantRule(t, r, analysis.RuleUnused, analysis.SevWarning, 0)
	wantRule(t, r, analysis.RuleUndriven, analysis.SevWarning, 0)
	if n := r.Count(analysis.SevError); n != 0 {
		t.Fatalf("want 0 errors, got %d: %v", n, r.Diagnostics)
	}
}
