package core

import (
	"slices"
	"strings"
	"testing"
	"time"

	"rtlrepair/internal/bv"
	"rtlrepair/internal/sim"
	"rtlrepair/internal/smt"
	"rtlrepair/internal/synth"
	"rtlrepair/internal/trace"
)

// buildSynth instruments a module with a template and prepares a
// synthesizer over a recorded trace.
func buildSynth(t *testing.T, buggySrc, goldenSrc string, tmpl Template,
	ins, outs []trace.Signal, rows [][]bv.XBV) (*Synthesizer, *VarTable) {
	t.Helper()
	tr := recordGolden(t, goldenSrc, ins, outs, rows)
	m := mustParse(t, buggySrc)
	ctx := smt.NewContext()
	counter := 0
	vars := NewVarTable(&counter)
	info := elaborateInfo(ctx, m, nil)
	instr, err := tmpl.Instrument(m, &Env{Info: info}, vars)
	if err != nil {
		t.Fatal(err)
	}
	isys, _, err := synth.Elaborate(ctx, instr, synth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts := SynthOptions{MaxSamples: samplesPerWindow}
	opts.Seed = 3
	init, ctr := Concretize(isys, tr, sim.Randomize, opts.Seed)
	return NewSynthesizer(ctx, isys, vars, ctr, init, opts), vars
}

func TestSolveWindowSamplesDistinctSolutions(t *testing.T) {
	// A bug with several minimal fixes: the constant 2 must become 1,
	// but alpha has freedom in the unchecked high bits? No — with full
	// checking the minimal solution is unique, so sampling must stop
	// after one solution.
	buggy := strings.Replace(goodCounter, "count + 1", "count + 2", 1)
	ins, outs := counterIO()
	s, vars := buildSynth(t, buggy, goodCounter, ReplaceLiterals{}, ins, outs, counterRows())
	sols, err := s.solveWindow(0, s.tr.Len(), s.init)
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) == 0 {
		t.Fatal("no solutions")
	}
	seen := map[string]bool{}
	for _, sol := range sols {
		key := ""
		for _, p := range vars.Phis {
			key += sol.Assign[p.Name].BinaryString()
		}
		for _, a := range vars.Alphas {
			key += ":" + sol.Assign[a.Name].BinaryString()
		}
		if seen[key] {
			t.Fatal("duplicate sampled solution (blocking clause failed)")
		}
		seen[key] = true
		if sol.Changes != sols[0].Changes {
			t.Fatalf("non-minimal sample: %d vs %d", sol.Changes, sols[0].Changes)
		}
	}
}

func TestSolveWindowUnsatForImpossibleWindow(t *testing.T) {
	// Force expected outputs no repair can produce: count must equal two
	// different values in one cycle... emulate by conflicting rows.
	ins, outs := counterIO()
	tr := trace.New(ins, outs)
	tr.AddRow([]bv.XBV{bv.KU(1, 1), bv.KU(1, 0)}, []bv.XBV{bv.X(4), bv.X(1)})
	// After reset, demand count == 5 with no enable: unreachable for any
	// single-literal change while also demanding overflow == 1.
	tr.AddRow([]bv.XBV{bv.KU(1, 1), bv.KU(1, 0)}, []bv.XBV{bv.KU(4, 5), bv.KU(1, 1)})
	tr.AddRow([]bv.XBV{bv.KU(1, 1), bv.KU(1, 0)}, []bv.XBV{bv.KU(4, 9), bv.KU(1, 0)})

	m := mustParse(t, goodCounter)
	ctx := smt.NewContext()
	counter := 0
	vars := NewVarTable(&counter)
	instr, err := (ReplaceLiterals{}).Instrument(m, &Env{Info: elaborateInfo(ctx, m, nil)}, vars)
	if err != nil {
		t.Fatal(err)
	}
	isys, _, err := synth.Elaborate(ctx, instr, synth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts := SynthOptions{MaxSamples: samplesPerWindow}
	init, ctr := Concretize(isys, tr, sim.Randomize, 1)
	s := NewSynthesizer(ctx, isys, vars, ctr, init, opts)
	sols, err := s.solveWindow(0, ctr.Len(), s.init)
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 0 {
		t.Fatalf("impossible trace produced %d solutions", len(sols))
	}
}

// Every prefix source must match a manual φ = 0 simulation of the
// instrumented system: the synthesizer's private cache; a cache over the
// uninstrumented system, which is what the portfolio shares; and the
// private cache a synthesizer falls back to when its shared cache does
// not cover its state space, which must never read that cache.
func TestPrefixStateMatchesSimulation(t *testing.T) {
	ins, outs := counterIO()
	s, _ := buildSynth(t, buggyCounter, goodCounter, ReplaceLiterals{}, ins, outs, counterRows())
	sys, _, err := synth.Elaborate(smt.NewContext(), mustParse(t, buggyCounter), synth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	shared, _ := NewPrefixCache(sys, s.tr, s.init).StateAt(3)
	osys, _, err := synth.Elaborate(smt.NewContext(), mustParse(t, `
module other(input clk, output reg [7:0] r);
always @(posedge clk) r <= r + 8'd1;
endmodule`), synth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	oinit, _ := Concretize(osys, s.tr, sim.Randomize, 1)
	foreign := NewPrefixCache(osys, s.tr, oinit)
	opts := s.opts
	opts.SharedPrefix = foreign
	fallback := NewSynthesizer(s.ctx, s.sys, s.vars, s.tr, s.init, opts).prefixState(3)
	if cycles, hits := foreign.Counters(); cycles != 0 || hits != 0 {
		t.Fatalf("uncovering shared cache served %d cycles and %d hits", cycles, hits)
	}

	cs := s.newSim(zeroAssignment(s))
	for c := 0; c < 3; c++ {
		in := map[string]bv.XBV{}
		for i, sig := range s.tr.Inputs {
			in[sig.Name] = s.tr.InputRows[c][i]
		}
		cs.Step(in)
	}
	sources := map[string]map[string]bv.XBV{"private": s.prefixState(3), "shared": shared, "fallback": fallback}
	for src, snap := range sources {
		for name, v := range cs.Snapshot() {
			if !snap[name].SameAs(v) {
				t.Fatalf("%s prefix state mismatch on %s: %v vs %v", src, name, snap[name], v)
			}
		}
	}
}

func zeroAssignment(s *Synthesizer) Assignment {
	a := Assignment{}
	for _, p := range s.vars.Phis {
		a[p.Name] = bv.Zero(1)
	}
	for _, al := range s.vars.Alphas {
		a[al.Name] = bv.Zero(al.Width)
	}
	return a
}

// The Σφ > 3 rule: a template producing a large repair is kept only as a
// fallback; when no smaller repair exists it is still returned.
func TestLargeRepairUsedAsFallback(t *testing.T) {
	// Four separate literal errors need 4 changes (> 3).
	golden := `
module quad(input clk, input [7:0] a, output reg [7:0] w, x, y, z);
always @(posedge clk) begin
  w <= a + 8'd1;
  x <= a + 8'd2;
  y <= a + 8'd3;
  z <= a + 8'd4;
end
endmodule`
	buggy := `
module quad(input clk, input [7:0] a, output reg [7:0] w, x, y, z);
always @(posedge clk) begin
  w <= a + 8'd11;
  x <= a + 8'd12;
  y <= a + 8'd13;
  z <= a + 8'd14;
end
endmodule`
	ins := []trace.Signal{{Name: "a", Width: 8}}
	outs := []trace.Signal{{Name: "w", Width: 8}, {Name: "x", Width: 8},
		{Name: "y", Width: 8}, {Name: "z", Width: 8}}
	var rows [][]bv.XBV
	for i := 0; i < 6; i++ {
		rows = append(rows, []bv.XBV{bv.KU(8, uint64(i*31))})
	}
	tr := recordGolden(t, golden, ins, outs, rows)
	res := Repair(mustParse(t, buggy), tr, repairOpts())
	if res.Status != StatusRepaired {
		t.Fatalf("status = %v (%s)", res.Status, res.Reason)
	}
	if res.Changes != 4 {
		t.Fatalf("changes = %d, want 4", res.Changes)
	}
	checkRepairPasses(t, res, tr)
}

func TestRepairTimeoutStatus(t *testing.T) {
	ins, outs := counterIO()
	tr := recordGolden(t, goodCounter, ins, outs, counterRows())
	opts := repairOpts()
	opts.Timeout = 1 * time.Nanosecond
	res := Repair(mustParse(t, buggyCounter), tr, opts)
	if res.Status != StatusTimeout && res.Status != StatusCannotRepair {
		t.Fatalf("status = %v", res.Status)
	}
}

func TestValidateAgreesWithEngineChecks(t *testing.T) {
	ins, outs := counterIO()
	s, vars := buildSynth(t, buggyCounter, goodCounter, CondOverwrite{}, ins, outs, counterRows())
	sol, err := s.Windowed(1)
	if err != nil {
		t.Fatal(err)
	}
	if sol == nil {
		t.Fatal("no solution")
	}
	if !s.Validate(sol.Assign).Passed() {
		t.Fatal("returned solution does not validate")
	}
	if got := vars.Changes(sol.Assign); got != sol.Changes {
		t.Fatalf("change accounting mismatch: %d vs %d", got, sol.Changes)
	}
}

// TestConcretizeSharesKnownRows: Concretize copies only the input rows
// it fills. An all-known trace comes back with every row shared; with
// one X cell exactly that row is copied, and the caller's trace keeps
// its X.
func TestConcretizeSharesKnownRows(t *testing.T) {
	ins, outs := counterIO()
	tr := recordGolden(t, goodCounter, ins, outs, counterRows())
	sys, _, err := synth.Elaborate(smt.NewContext(), mustParse(t, goodCounter), synth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b []bv.XBV) bool { return &a[0] == &b[0] }

	_, ctr := Concretize(sys, tr, sim.Randomize, 1)
	for i := range tr.InputRows {
		if !same(ctr.InputRows[i], tr.InputRows[i]) || !same(ctr.OutputRows[i], tr.OutputRows[i]) {
			t.Fatalf("all-known trace: row %d was copied, want it shared", i)
		}
	}

	const xRow = 3
	xtr := &trace.Trace{Inputs: tr.Inputs, Outputs: tr.Outputs,
		InputRows: slices.Clone(tr.InputRows), OutputRows: tr.OutputRows}
	xtr.InputRows[xRow] = []bv.XBV{bv.KU(1, 0), bv.X(1)}
	_, ctr = Concretize(sys, xtr, sim.Randomize, 1)
	if &ctr.InputRows[0] == &xtr.InputRows[0] {
		t.Fatal("filling a row wrote into the caller's row list")
	}
	for i := range xtr.InputRows {
		if shared := same(ctr.InputRows[i], xtr.InputRows[i]); shared != (i != xRow) {
			t.Errorf("row %d shared = %v, want %v", i, shared, i != xRow)
		}
		if !same(ctr.OutputRows[i], xtr.OutputRows[i]) {
			t.Errorf("output row %d was copied, want it shared", i)
		}
	}
	if !ctr.InputRows[xRow][1].IsFullyKnown() || ctr.InputRows[xRow][0].String() != xtr.InputRows[xRow][0].String() {
		t.Errorf("filled row = %v, want the X resolved and the known cell kept", ctr.InputRows[xRow])
	}
	if xtr.InputRows[xRow][1].IsFullyKnown() {
		t.Error("Concretize filled the caller's X cell")
	}
}
