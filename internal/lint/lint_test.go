package lint

import (
	"strings"
	"testing"

	"rtlrepair/internal/smt"
	"rtlrepair/internal/synth"
	"rtlrepair/internal/verilog"
)

func preprocess(t *testing.T, src string) (*verilog.Module, []Fix) {
	t.Helper()
	m, err := verilog.ParseModule(src)
	if err != nil {
		t.Fatal(err)
	}
	out, fixes, _, err := PreprocessWithReport(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out, fixes
}

func TestFixBlockingInClockedBlock(t *testing.T) {
	out, fixes := preprocess(t, `
module m(input clk, input d, output reg q);
always @(posedge clk) q = d;
endmodule`)
	if len(fixes) != 1 || fixes[0].Kind != FixAssignKind {
		t.Fatalf("fixes = %v", fixes)
	}
	if !strings.Contains(verilog.Print(out), "q <= d") {
		t.Fatalf("not converted:\n%s", verilog.Print(out))
	}
}

func TestFixNonBlockingInCombBlock(t *testing.T) {
	out, fixes := preprocess(t, `
module m(input a, b, output reg y);
always @(*) y <= a & b;
endmodule`)
	if len(fixes) != 1 || fixes[0].Kind != FixAssignKind {
		t.Fatalf("fixes = %v", fixes)
	}
	if !strings.Contains(verilog.Print(out), "y = a & b") {
		t.Fatalf("not converted:\n%s", verilog.Print(out))
	}
}

func TestFixIncompleteSensitivityList(t *testing.T) {
	out, fixes := preprocess(t, `
module m(input a, b, output reg y);
always @(a) y = a & b;
endmodule`)
	if len(fixes) != 1 || fixes[0].Kind != FixSensitivity {
		t.Fatalf("fixes = %v", fixes)
	}
	if !strings.Contains(verilog.Print(out), "@(*)") {
		t.Fatalf("sense list not fixed:\n%s", verilog.Print(out))
	}
	// Result must elaborate cleanly.
	if _, _, err := synth.Elaborate(smt.NewContext(), out, synth.Options{}); err != nil {
		t.Fatalf("fixed module does not synthesize: %v", err)
	}
}

func TestCompleteSenseListUntouched(t *testing.T) {
	_, fixes := preprocess(t, `
module m(input a, b, output reg y);
always @(a or b) y = a & b;
endmodule`)
	if len(fixes) != 0 {
		t.Fatalf("unexpected fixes: %v", fixes)
	}
}

func TestFixLatch(t *testing.T) {
	out, fixes := preprocess(t, `
module m(input en, input d, output reg q);
always @(*) begin
  if (en) q = d;
end
endmodule`)
	found := false
	for _, f := range fixes {
		if f.Kind == FixLatchDefault && f.Signal == "q" {
			found = true
		}
	}
	if !found {
		t.Fatalf("latch fix missing: %v", fixes)
	}
	if _, _, err := synth.Elaborate(smt.NewContext(), out, synth.Options{}); err != nil {
		t.Fatalf("latch fix did not synthesize: %v\n%s", err, verilog.Print(out))
	}
	// Default must come before the conditional assignment.
	src := verilog.Print(out)
	if strings.Index(src, "q = 1'b0") > strings.Index(src, "if (en)") {
		t.Fatalf("default not prepended:\n%s", src)
	}
}

func TestFixLatchInCase(t *testing.T) {
	// fsm-style bug: a case statement without default and a missing arm
	// assignment infers a latch on next_state.
	out, fixes := preprocess(t, `
module fsm(input [1:0] state, output reg [1:0] next_state);
always @(*) begin
  case (state)
    2'b00: next_state = 2'b01;
    2'b01: next_state = 2'b10;
  endcase
end
endmodule`)
	if len(fixes) == 0 {
		t.Fatal("expected a latch fix")
	}
	if _, _, err := synth.Elaborate(smt.NewContext(), out, synth.Options{}); err != nil {
		t.Fatalf("fixed module does not synthesize: %v", err)
	}
}

func TestLevelClockFeedbackBecomesCombLoop(t *testing.T) {
	// counter_w1 pattern: lint completes the sense list, but the design
	// then fails synthesis with a comb loop — RTL-Repair correctly
	// cannot handle it (§6.2, Figure 8).
	m, err := verilog.ParseModule(`
module c(input clk, input en, output reg [3:0] q);
always @(clk) begin
  if (en) q <= q + 1;
end
endmodule`)
	if err != nil {
		t.Fatal(err)
	}
	out, _, _, err := PreprocessWithReport(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = synth.Elaborate(smt.NewContext(), out, synth.Options{})
	if err == nil {
		t.Fatal("expected synthesis to fail after preprocessing")
	}
}

func TestPreprocessDoesNotMutateInput(t *testing.T) {
	m, err := verilog.ParseModule(`
module m(input clk, input d, output reg q);
always @(posedge clk) q = d;
endmodule`)
	if err != nil {
		t.Fatal(err)
	}
	before := verilog.Print(m)
	if _, _, _, err := PreprocessWithReport(m, nil); err != nil {
		t.Fatal(err)
	}
	if verilog.Print(m) != before {
		t.Fatal("PreprocessWithReport mutated its input")
	}
}

func TestCleanDesignNoFixes(t *testing.T) {
	_, fixes := preprocess(t, `
module m(input clk, input reset, input d, output reg q);
always @(posedge clk) begin
  if (reset) q <= 1'b0;
  else q <= d;
end
endmodule`)
	if len(fixes) != 0 {
		t.Fatalf("unexpected fixes on clean design: %v", fixes)
	}
}

func TestFixMultipleLatchesAcrossBlocks(t *testing.T) {
	out, fixes := preprocess(t, `
module ml(input en1, input en2, input [3:0] d, output reg [3:0] a, output reg [3:0] b);
always @(*) begin
  if (en1) a = d;
end
always @(*) begin
  if (en2) b = ~d;
end
endmodule`)
	latchFixes := 0
	for _, f := range fixes {
		if f.Kind == FixLatchDefault {
			latchFixes++
		}
	}
	if latchFixes != 2 {
		t.Fatalf("latch fixes = %d, want 2", latchFixes)
	}
	if _, _, err := synth.Elaborate(smt.NewContext(), out, synth.Options{}); err != nil {
		t.Fatalf("fixed module does not synthesize: %v", err)
	}
}

func TestFixKindStrings(t *testing.T) {
	for k, want := range map[FixKind]string{
		FixAssignKind:   "assignment-kind",
		FixSensitivity:  "sensitivity-list",
		FixLatchDefault: "latch-default",
	} {
		if k.String() != want {
			t.Fatalf("%d.String() = %q", k, k.String())
		}
	}
}

func TestSenseListForLoopVarNotMissing(t *testing.T) {
	// The induction variable is read by the loop condition and step but
	// cannot produce an event; a list that covers the real inputs is
	// complete and must stay untouched.
	out, fixes := preprocess(t, `
module m(input [3:0] a, output reg [3:0] y);
integer i;
always @(a) begin
  for (i = 0; i < 4; i = i + 1)
    y[i] = a[i];
end
endmodule`)
	for _, f := range fixes {
		if f.Kind == FixSensitivity {
			t.Fatalf("loop variable treated as missing sense: %v\n%s", fixes, verilog.Print(out))
		}
	}
}

func TestSenseListParamNotMissing(t *testing.T) {
	out, fixes := preprocess(t, `
module m(input [1:0] a, output reg y);
parameter MODE = 2'b10;
always @(a) y = (a == MODE);
endmodule`)
	for _, f := range fixes {
		if f.Kind == FixSensitivity {
			t.Fatalf("parameter treated as missing sense: %v\n%s", fixes, verilog.Print(out))
		}
	}
}

func TestSenseListNestedCaseIfReadsFixed(t *testing.T) {
	// A read buried in a nested case arm / if branch still triggers the
	// @(*) fix when it is not listed.
	out, fixes := preprocess(t, `
module m(input [1:0] s, input a, input b, output reg y);
always @(s or a) begin
  y = 1'b0;
  case (s)
    2'b00: begin
      if (a) y = b;
    end
    default: y = a;
  endcase
end
endmodule`)
	found := false
	for _, f := range fixes {
		if f.Kind == FixSensitivity {
			found = true
		}
	}
	if !found {
		t.Fatalf("nested read of b not detected: %v", fixes)
	}
	if !strings.Contains(verilog.Print(out), "@(*)") {
		t.Fatalf("sense list not replaced:\n%s", verilog.Print(out))
	}
}

func TestFixLatchOnIndexedTarget(t *testing.T) {
	// The latch default must be found and inserted even when the signal
	// is only ever assigned through a bit select.
	out, fixes := preprocess(t, `
module m(input [1:0] a, input en, output reg [1:0] y);
always @(*) begin
  if (en) begin
    y[0] = a[0];
    y[1] = a[1];
  end
end
endmodule`)
	found := false
	for _, f := range fixes {
		if f.Kind == FixLatchDefault && f.Signal == "y" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no latch default for indexed target: %v\n%s", fixes, verilog.Print(out))
	}
	if _, _, err := synth.Elaborate(smt.NewContext(), out, synth.Options{}); err != nil {
		t.Fatalf("fixed design still fails elaboration: %v\n%s", err, verilog.Print(out))
	}
}

func TestFixLatchOnConcatTarget(t *testing.T) {
	out, fixes := preprocess(t, `
module m(input [1:0] a, input en, output reg hi, output reg lo);
always @(*) begin
  if (en) {hi, lo} = a;
end
endmodule`)
	byName := map[string]bool{}
	for _, f := range fixes {
		if f.Kind == FixLatchDefault {
			byName[f.Signal] = true
		}
	}
	if !byName["hi"] || !byName["lo"] {
		t.Fatalf("concat-part latches not fixed: %v\n%s", fixes, verilog.Print(out))
	}
	if _, _, err := synth.Elaborate(smt.NewContext(), out, synth.Options{}); err != nil {
		t.Fatalf("fixed design still fails elaboration: %v\n%s", err, verilog.Print(out))
	}
}

func TestPreprocessWithReportDiagnostics(t *testing.T) {
	m, err := verilog.ParseModule(`
module m(input a, output wire y);
  assign y = a;
  assign y = ~a;
endmodule`)
	if err != nil {
		t.Fatal(err)
	}
	_, _, report, err := PreprocessWithReport(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if report == nil {
		t.Fatal("report is nil")
	}
	if len(report.Errors()) == 0 {
		t.Fatalf("multiply-driven design must produce an error diagnostic:\n%+v", report.Diagnostics)
	}
}
