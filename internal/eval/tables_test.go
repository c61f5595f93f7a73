package eval

import (
	"slices"
	"strings"
	"testing"
	"time"

	"rtlrepair/internal/bench"
)

// suiteOnce caches the (expensive) full-suite evaluation across tests.
var suiteCache *SuiteResults

func suite(t *testing.T) *SuiteResults {
	t.Helper()
	if suiteCache == nil {
		opts := quickOpts()
		opts.CirFixTimeout = 2 * time.Second
		opts.CirFixGenerations = 10
		suiteCache = RunSuite(opts, true)
	}
	return suiteCache
}

func TestTable1Shape(t *testing.T) {
	s := suite(t)
	t1 := MakeTable1(s)
	correct, wrong, cannot := t1.Rows[0].RTLCount, t1.Rows[1].RTLCount, t1.Rows[2].RTLCount
	total := correct + wrong + cannot
	if total != len(bench.CirFixSuite()) {
		t.Fatalf("counts %d+%d+%d != %d benchmarks", correct, wrong, cannot, total)
	}
	// Shape of Table 1: RTL-Repair finds a majority of correct repairs
	// and strictly more than the baseline.
	if correct < 12 {
		t.Errorf("only %d correct repairs (paper: 16)\n%s", correct, t1)
	}
	if cfCorrect := t1.Rows[0].CFCount; cfCorrect >= correct {
		t.Errorf("baseline (%d) should find fewer correct repairs than RTL-Repair (%d)", cfCorrect, correct)
	}
	// Speed shape: RTL-Repair's median correct-repair time must be far
	// below the baseline's.
	if t1.Rows[0].CFCount > 0 && t1.Rows[0].RTLMedian*5 > t1.Rows[0].CFMedian {
		t.Logf("warning: speed gap smaller than expected: rtl %v vs cf %v",
			t1.Rows[0].RTLMedian, t1.Rows[0].CFMedian)
	}
	t.Logf("\n%s", t1)
}

func TestTable2OSDDShape(t *testing.T) {
	s := suite(t)
	rows := MakeTable2(s)
	if len(rows) != len(bench.CirFixSuite()) {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Table2Row{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	// Low-OSDD benchmarks get repaired; huge-OSDD ones do not (the
	// paper's central claim about OSDD as a hardness measure). Note:
	// reed_b1's corrupted register changes width, so it is excluded
	// from the state comparison and its OSDD is small here; the pairing
	// benchmarks carry the large-OSDD profile.
	for _, name := range []string{"pairing_w1", "pairing_k1", "pairing_w2"} {
		r := byName[name]
		if r.OSDD == "n/a" || r.OSDD == "0" || r.OSDD == "1" {
			t.Errorf("%s: OSDD = %s, expected large", name, r.OSDD)
		}
		if r.RTL == "+" {
			t.Errorf("%s: huge-OSDD benchmark should not be correctly repaired", name)
		}
	}
	if r := byName["counter_k1"]; r.OSDD != "1" {
		t.Errorf("counter_k1 OSDD = %s, want 1", r.OSDD)
	}
	if r := byName["decoder_w1"]; r.OSDD != "0" {
		t.Errorf("decoder_w1 OSDD = %s, want 0 (output-function bug)", r.OSDD)
	}
	if r := byName["shift_k1"]; r.OSDD != "n/a" {
		t.Errorf("shift_k1 OSDD = %s, want n/a (no divergence)", r.OSDD)
	}
	t.Logf("\n%s", Table2String(rows))
}

func TestTable3Complete(t *testing.T) {
	out := Table3String()
	for _, b := range bench.CirFixSuite() {
		if !strings.Contains(out, b.Name) {
			t.Fatalf("table 3 missing %s", b.Name)
		}
	}
}

func TestTable4Shape(t *testing.T) {
	s := suite(t)
	rows := MakeTable4(s)
	byKey := map[string]Table4Row{}
	for _, r := range rows {
		byKey[r.Name+"/"+r.Tool] = r
	}
	// shift_k1: testbench passes but the independent simulator fails —
	// the tool's "no repair needed" claim is wrong (§6.2).
	r := byKey["shift_k1/rtlrepair"]
	if r.Checks.Testbench != CheckPass || r.Checks.EventSim != CheckFail {
		t.Errorf("shift_k1 checks = %+v, want tb pass + event fail", r.Checks)
	}
	if r.Overall != VerdictWrong {
		t.Errorf("shift_k1 overall = %v, want wrong", r.Overall)
	}
	// decoder_w1: passes everything including the extended testbench?
	// The paper's minimal 2-change repair leaves untested parts intact.
	d := byKey["decoder_w1/rtlrepair"]
	if d.Overall != VerdictCorrect {
		t.Errorf("decoder_w1 = %+v", d)
	}
	t.Logf("\n%s", Table4String(rows))
}

func TestTable6Shape(t *testing.T) {
	opts := quickOpts()
	rows := MakeTable6(opts)
	if len(rows) != len(bench.OsrcSuite()) {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Table6Row{}
	repaired := 0
	for _, r := range rows {
		byName[r.Name] = r
		if r.Result == "+" {
			repaired++
		}
	}
	// Paper: 9 of 12 usable bugs receive testbench-passing repairs.
	if repaired < 7 {
		t.Errorf("only %d osrc repairs (paper: 9)\n%s", repaired, Table6String(rows))
	}
	for _, name := range []string{"D4", "D9", "C3"} {
		if r := byName[name]; r.Result == "+" {
			t.Errorf("%s should not be repairable, got %+v", name, r)
		}
	}
	for _, name := range []string{"C1", "C4", "S1.R", "S2", "D11", "D12"} {
		if r := byName[name]; r.Result != "+" {
			t.Errorf("%s should be repaired, got result %q", name, r.Result)
		}
	}
	// C1's repair should be high quality (A or B): the guard exists.
	if r := byName["C1"]; r.Result == "+" && r.Quality == "D" {
		t.Logf("note: C1 quality %s (paper: A)", r.Quality)
	}
	t.Logf("\n%s", Table6String(rows))
}

func TestQualitativeDiffs(t *testing.T) {
	out := QualitativeDiffs([]string{"decoder_w1", "counter_k1"}, quickOpts())
	if !strings.Contains(out, "diff original vs. bug") || !strings.Contains(out, "our repair") {
		t.Fatalf("diff output incomplete:\n%s", out)
	}
}

func TestDiffLines(t *testing.T) {
	a := "line1\nline2\nline3\n"
	b := "line1\nlineX\nline3\n"
	d := DiffLines(a, b)
	if !strings.Contains(d, "- line2") || !strings.Contains(d, "+ lineX") {
		t.Fatalf("diff = %q", d)
	}
	add, rem := DiffStats(a, b)
	if add != 1 || rem != 1 {
		t.Fatalf("stats = +%d/-%d", add, rem)
	}
}

func TestTable5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow ablation")
	}
	s := suite(t)
	opts := quickOpts()
	opts.CirFixTimeout = 2 * time.Second
	rows := MakeTable5(s, opts)
	if len(rows) != len(bench.CirFixSuite()) {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Table5Row{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	// The adaptive windowing claim: i2c_k1 is repaired by the full tool
	// but the basic synthesizer cannot handle its long testbench.
	if r := byName["i2c_k1"]; r.FullResult != "+" || r.BasicResult == "+" {
		t.Errorf("i2c_k1: full=%s basic=%s, want windowing advantage", r.FullResult, r.BasicResult)
	}
	// Preprocessing-only benchmarks report their fix counts.
	if r := byName["fsm_s2"]; r.Preprocessing == 0 {
		t.Errorf("fsm_s2 should report preprocessing fixes")
	}
	// Only one template should produce each repair (template orthogonality).
	for _, name := range []string{"counter_k1", "flop_w1", "mux_w2"} {
		r := byName[name]
		found := 0
		for _, c := range r.PerTemplate {
			if strings.HasSuffix(c.Result, "+") {
				found++
			}
		}
		if found != 1 {
			t.Errorf("%s: %d templates found repairs, want 1 (%+v)", name, found, r.PerTemplate)
		}
	}
	t.Logf("\n%s", Table5String(rows))
}

// TestTable5CellsIndependentOfWorkers checks that Table 5's per-template
// cells come from standalone runs: the same cells at any worker count,
// one repairing template for each orthogonality design, and no cell
// that reports a cancelled attempt as a timeout.
func TestTable5CellsIndependentOfWorkers(t *testing.T) {
	for _, name := range []string{"counter_k1", "flop_w1", "mux_w2"} {
		b := bench.ByName(name)
		var results [2][]string
		for i, workers := range []int{1, 4} {
			opts := quickOpts()
			opts.Workers = workers
			for _, c := range templateCells(b, opts) {
				results[i] = append(results[i], c.Template+": "+c.Result)
			}
		}
		if !slices.Equal(results[0], results[1]) {
			t.Errorf("%s: cells differ between workers 1 %v and workers 4 %v", name, results[0], results[1])
		}
		found := 0
		for _, c := range results[0] {
			if strings.HasSuffix(c, "+") {
				found++
			}
			if strings.HasSuffix(c, "timeout") {
				t.Errorf("%s: %s", name, c)
			}
		}
		if found != 1 {
			t.Errorf("%s: %d templates found repairs, want 1 (%v)", name, found, results[0])
		}
	}
}
