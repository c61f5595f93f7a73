package main

import (
	"os"
	"path/filepath"
	"testing"

	"rtlrepair/internal/analysis"
)

// writeDesign writes src to a fresh file and returns its path.
func writeDesign(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "design.v")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLintFileMultiDriven is the exit-1 path: one error-severity
// multi-driven diagnostic.
func TestLintFileMultiDriven(t *testing.T) {
	r, err := lintFile(writeDesign(t, `
module m(input a, input b, output y);
  assign y = a;
  assign y = b;
endmodule`))
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	if n := countAtLeast(r, analysis.SevError); n != 1 {
		t.Fatalf("got %d error(s), want 1: %v", n, r.Diagnostics)
	}
	if d := r.ByRule(analysis.RuleMultiDriven); len(d) != 1 || d[0].Severity != analysis.SevError || d[0].Signal != "y" {
		t.Fatalf("want one multi-driven error on y, got %v", r.Diagnostics)
	}
}

// TestLintFileClean is the exit-0 path: nothing at warning or above.
func TestLintFileClean(t *testing.T) {
	r, err := lintFile(writeDesign(t, `
module counter(input clk, input rst, output reg [3:0] count, output wire over);
  assign over = (count == 4'd15);
  always @(posedge clk) begin
    if (rst) count <= 4'd0;
    else count <= count + 4'd1;
  end
endmodule`))
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	if n := countAtLeast(r, analysis.SevWarning); n != 0 {
		t.Fatalf("clean counter: %d diagnostic(s) at warning or above: %v", n, r.Diagnostics)
	}
}

// TestLintFileParseError is the exit-2 path.
func TestLintFileParseError(t *testing.T) {
	if r, err := lintFile(writeDesign(t, "module m(input a;\n")); err == nil {
		t.Fatalf("unparsable file linted without error: %v", r.Diagnostics)
	}
}

func TestParseSeverity(t *testing.T) {
	for _, c := range []struct {
		in   string
		want analysis.Severity
		ok   bool
	}{
		{"", analysis.SevWarning, true}, // empty takes the default
		{"info", analysis.SevInfo, true},
		{"warning", analysis.SevWarning, true},
		{"error", analysis.SevError, true},
		{"note", analysis.SevWarning, false},
		{"Error", analysis.SevWarning, false},
	} {
		got, ok := parseSeverity(c.in, analysis.SevWarning)
		if got != c.want || ok != c.ok {
			t.Errorf("parseSeverity(%q) = %v, %v; want %v, %v", c.in, got, ok, c.want, c.ok)
		}
	}
}
