package netlist

import (
	"strings"
	"testing"

	"rtlrepair/internal/sim"

	"rtlrepair/internal/bv"
	"rtlrepair/internal/smt"
	"rtlrepair/internal/synth"
	"rtlrepair/internal/trace"
	"rtlrepair/internal/tsys"
	"rtlrepair/internal/verilog"
)

func buildFrom(t *testing.T, src string) (*tsys.System, *Netlist) {
	t.Helper()
	m, err := verilog.ParseModule(src)
	if err != nil {
		t.Fatal(err)
	}
	sys, _, err := synth.Elaborate(smt.NewContext(), m, synth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	nl, err := Build(sys)
	if err != nil {
		t.Fatal(err)
	}
	return sys, nl
}

const counterSrc = `
module c(input clock, input reset, input enable,
         output reg [3:0] count, output reg overflow);
always @(posedge clock) begin
  if (reset) begin count <= 4'b0; overflow <= 1'b0; end
  else if (enable) count <= count + 1;
  if (count == 4'b1111) overflow <= 1'b1;
end
endmodule`

func TestGateSimMatchesWordSim(t *testing.T) {
	_, nl := buildFrom(t, counterSrc)
	g := NewGateSim(nl, PolicyZero, 0)
	in := func(r, e uint64) map[string]bv.XBV {
		return map[string]bv.XBV{"reset": bv.KU(1, r), "enable": bv.KU(1, e)}
	}
	g.Step(in(1, 0))
	for i := 0; i < 5; i++ {
		g.Step(in(0, 1))
	}
	outs := g.Step(in(0, 0))
	if outs["count"].Val.Uint64() != 5 {
		t.Fatalf("count = %v, want 5", outs["count"])
	}
}

func TestGateCountReasonable(t *testing.T) {
	_, nl := buildFrom(t, counterSrc)
	if nl.NumGates() == 0 || nl.NumGates() > 500 {
		t.Fatalf("gates = %d", nl.NumGates())
	}
}

func TestGateXPropagationWithoutReset(t *testing.T) {
	_, nl := buildFrom(t, counterSrc)
	g := NewGateSim(nl, PolicyKeepX, 0)
	outs := g.Step(map[string]bv.XBV{"reset": bv.KU(1, 0), "enable": bv.KU(1, 1)})
	if !outs["count"].HasUnknown() {
		t.Fatalf("count should be X before reset, got %v", outs["count"])
	}
	g.Step(map[string]bv.XBV{"reset": bv.KU(1, 1), "enable": bv.KU(1, 0)})
	outs = g.Step(map[string]bv.XBV{"reset": bv.KU(1, 0), "enable": bv.KU(1, 0)})
	if outs["count"].HasUnknown() || outs["count"].Val.Uint64() != 0 {
		t.Fatalf("count after reset = %v", outs["count"])
	}
}

func TestRunGateTrace(t *testing.T) {
	_, nl := buildFrom(t, counterSrc)
	ins := []trace.Signal{{Name: "reset", Width: 1}, {Name: "enable", Width: 1}}
	outs := []trace.Signal{{Name: "count", Width: 4}}
	tr := trace.New(ins, outs)
	tr.AddRow([]bv.XBV{bv.KU(1, 1), bv.KU(1, 0)}, []bv.XBV{bv.X(4)})
	tr.AddRow([]bv.XBV{bv.KU(1, 0), bv.KU(1, 1)}, []bv.XBV{bv.KU(4, 0)})
	tr.AddRow([]bv.XBV{bv.KU(1, 0), bv.KU(1, 1)}, []bv.XBV{bv.KU(4, 1)})
	if cyc, sig := RunGateTrace(nl, tr, PolicyZero, 0); cyc != -1 {
		t.Fatalf("trace failed at %d (%s)", cyc, sig)
	}
	// Break the expectation.
	tr.OutputRows[2][0] = bv.KU(4, 9)
	if cyc, _ := RunGateTrace(nl, tr, PolicyZero, 0); cyc != 2 {
		t.Fatalf("expected failure at 2, got %d", cyc)
	}
}

func TestDivByGates(t *testing.T) {
	_, nl := buildFrom(t, `
module d(input [7:0] a, b, output [7:0] q, r);
assign q = a / b;
assign r = a % b;
endmodule`)
	g := NewGateSim(nl, PolicyZero, 0)
	outs := g.Step(map[string]bv.XBV{"a": bv.KU(8, 200), "b": bv.KU(8, 7)})
	if outs["q"].Val.Uint64() != 28 || outs["r"].Val.Uint64() != 4 {
		t.Fatalf("q=%v r=%v", outs["q"], outs["r"])
	}
}

func TestWriteVerilog(t *testing.T) {
	_, nl := buildFrom(t, counterSrc)
	src := nl.WriteVerilog("gates")
	for _, want := range []string{"module gates", "always @(posedge clk)", "assign count"} {
		if !strings.Contains(src, want) {
			t.Fatalf("missing %q in gate-level output", want)
		}
	}
}

func TestGateXPessimismVsWordMerge(t *testing.T) {
	// y = sel ? a : a. The word-level simulator merges to a; gate level
	// with an X select keeps X (mux reconvergence pessimism). Using two
	// separate input words prevents the AIG structural hash from
	// collapsing the mux.
	src := `
module p(input sel, input a, input b, output y);
assign y = sel ? a : b;
endmodule`
	_, nl := buildFrom(t, src)
	g := NewGateSim(nl, PolicyKeepX, 0)
	outs := g.Step(map[string]bv.XBV{"sel": bv.X(1), "a": bv.KU(1, 1), "b": bv.KU(1, 1)})
	if !outs["y"].HasUnknown() {
		t.Fatalf("gate-level y = %v, want X (pessimism)", outs["y"])
	}
}

// TestMuxOfSharedBitNeedsNoGate: a mux whose two data bits are the same
// literal is that literal, in the netlist as in the bit-blaster, so y[1]
// is a and stays known under an X select while y[0] keeps the gate-level
// X. Only y[0]'s mux of b and c takes gates.
func TestMuxOfSharedBitNeedsNoGate(t *testing.T) {
	_, nl := buildFrom(t, `
module p(input sel, input a, input b, input c, output [1:0] y);
assign y = sel ? {a, b} : {a, c};
endmodule`)
	if got := nl.NumGates(); got != 3 {
		t.Errorf("gates = %d, want 3 (one mux)", got)
	}
	g := NewGateSim(nl, PolicyKeepX, 0)
	outs := g.Step(map[string]bv.XBV{"sel": bv.X(1), "a": bv.KU(1, 1), "b": bv.KU(1, 1), "c": bv.KU(1, 1)})
	y := outs["y"]
	if !y.Known.Bit(1) || !y.Val.Bit(1) {
		t.Fatalf("y = %v, want y[1] known 1", y)
	}
	if y.Known.Bit(0) {
		t.Fatalf("y = %v, want y[0] X (pessimism)", y)
	}
}

func TestBuildRejectsFreeVariable(t *testing.T) {
	ctx := smt.NewContext()
	a, v := ctx.Var("a", 4), ctx.Var("v", 4)
	sys := &tsys.System{Name: "p", Inputs: []*smt.Term{a},
		Outputs: []tsys.Output{{Name: "y", Expr: ctx.Add(a, v)}}}
	if _, err := Build(sys); err == nil || !strings.Contains(err.Error(), `"v"`) {
		t.Fatalf("Build = %v, want a free-variable error naming v", err)
	}
}

func TestBuildRejectsParams(t *testing.T) {
	ctx := smt.NewContext()
	phi := ctx.Var("phi", 1)
	sys := &tsys.System{Name: "p", Params: []*smt.Term{phi},
		Outputs: []tsys.Output{{Name: "y", Expr: phi}}}
	if _, err := Build(sys); err == nil {
		t.Fatal("expected error for unresolved synthesis parameters")
	}
}

// TestGateLevelVerilogRoundTrip closes the loop: the emitted gate-level
// Verilog must re-parse and re-elaborate in this framework's own
// frontend and behave exactly like the original word-level design —
// which is precisely what the paper's gate-level simulation check
// assumes about the synthesis output.
func TestGateLevelVerilogRoundTrip(t *testing.T) {
	sys, nl := buildFrom(t, counterSrc)
	src := nl.WriteVerilog("gates")
	m, err := verilog.ParseModule(src)
	if err != nil {
		t.Fatalf("gate-level Verilog does not parse: %v\n%s", err, src)
	}
	gsys, _, err := synth.Elaborate(smt.NewContext(), m, synth.Options{})
	if err != nil {
		t.Fatalf("gate-level Verilog does not elaborate: %v", err)
	}
	// Co-simulate from the zero state.
	a := newZeroedSim(sys)
	b := newZeroedSim(gsys)
	in := func(r, e uint64) map[string]bv.XBV {
		return map[string]bv.XBV{"reset": bv.KU(1, r), "enable": bv.KU(1, e)}
	}
	seq := [][2]uint64{{1, 0}, {0, 1}, {0, 1}, {0, 0}, {0, 1}, {1, 0}, {0, 1}}
	for i, s := range seq {
		oa := a.Step(in(s[0], s[1]))
		ob := b.Step(in(s[0], s[1]))
		for _, name := range []string{"count", "overflow"} {
			if !oa[name].SameAs(ob[name]) {
				t.Fatalf("cycle %d %s: word %v vs gates-as-verilog %v", i, name, oa[name], ob[name])
			}
		}
	}
}

func newZeroedSim(sys *tsys.System) *sim.CycleSim {
	s := sim.NewCycleSim(sys, sim.Zero, 0)
	return s
}
