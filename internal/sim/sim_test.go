package sim

import (
	"strings"
	"testing"

	"rtlrepair/internal/bv"
	"rtlrepair/internal/smt"
	"rtlrepair/internal/synth"
	"rtlrepair/internal/trace"
	"rtlrepair/internal/tsys"
	"rtlrepair/internal/verilog"
)

const goodCounter = `
module first_counter(input clock, input reset, input enable,
                     output reg [3:0] count, output reg overflow);
always @(posedge clock) begin
  if (reset == 1'b1) begin
    count <= 4'b0;
    overflow <= 1'b0;
  end else if (enable == 1'b1) begin
    count <= count + 1;
  end
  if (count == 4'b1111) begin
    overflow <= 1'b1;
  end
end
endmodule`

const buggyCounter = `
module first_counter(input clock, input reset, input enable,
                     output reg [3:0] count, output reg overflow);
always @(posedge clock) begin
  if (reset == 1'b1) begin
    overflow <= 1'b0;
  end else if (enable == 1'b1) begin
    count <= count + 1;
  end
  if (count == 4'b1111) begin
    overflow <= 1'b1;
  end
end
endmodule`

func elaborate(t *testing.T, src string) *tsys.System {
	t.Helper()
	m, err := verilog.ParseModule(src)
	if err != nil {
		t.Fatal(err)
	}
	sys, _, err := synth.Elaborate(smt.NewContext(), m, synth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// counterTrace drives reset then counts, checking count values.
func counterTrace() *trace.Trace {
	ins := []trace.Signal{{Name: "reset", Width: 1}, {Name: "enable", Width: 1}}
	outs := []trace.Signal{{Name: "count", Width: 4}, {Name: "overflow", Width: 1}}
	tr := trace.New(ins, outs)
	// cycle 0: reset, don't check outputs
	tr.AddRow([]bv.XBV{bv.KU(1, 1), bv.X(1)}, []bv.XBV{bv.X(4), bv.X(1)})
	// cycle 1..4: enable, expect count 0,1,2,3
	for i := 0; i < 4; i++ {
		tr.AddRow([]bv.XBV{bv.KU(1, 0), bv.KU(1, 1)},
			[]bv.XBV{bv.KU(4, uint64(i)), bv.KU(1, 0)})
	}
	return tr
}

func TestCycleSimGoodCounterPasses(t *testing.T) {
	sys := elaborate(t, goodCounter)
	res := RunTrace(sys, counterTrace(), RunOptions{Policy: Randomize, Seed: 1})
	if !res.Passed() {
		t.Fatalf("good counter failed at cycle %d (%s)", res.FirstFailure, res.FailedSignal)
	}
}

func TestCycleSimBuggyCounterFails(t *testing.T) {
	sys := elaborate(t, buggyCounter)
	// Randomized initial state: count starts at some random value != 0
	// with overwhelming probability; after reset it must still be wrong.
	res := RunTrace(sys, counterTrace(), RunOptions{Policy: Randomize, Seed: 3})
	if res.Passed() {
		t.Fatal("buggy counter unexpectedly passed")
	}
	if res.FirstFailure != 1 {
		t.Fatalf("first failure at %d, want 1", res.FirstFailure)
	}
	if res.FailedSignal != "count" {
		t.Fatalf("failed signal %q", res.FailedSignal)
	}
}

func TestCycleSimKeepXRevealsMissingReset(t *testing.T) {
	sys := elaborate(t, buggyCounter)
	res := RunTrace(sys, counterTrace(), RunOptions{Policy: KeepX})
	if res.Passed() {
		t.Fatal("buggy counter passed under KeepX")
	}
}

func TestCycleSimSnapshotRestore(t *testing.T) {
	sys := elaborate(t, goodCounter)
	s := NewCycleSim(sys, Zero, 0)
	s.Step(map[string]bv.XBV{"reset": bv.KU(1, 1), "enable": bv.KU(1, 0)})
	s.Step(map[string]bv.XBV{"reset": bv.KU(1, 0), "enable": bv.KU(1, 1)})
	snap := s.Snapshot()
	if snap["count"].Val.Uint64() != 1 {
		t.Fatalf("count = %v", snap["count"])
	}
	s.Step(map[string]bv.XBV{"reset": bv.KU(1, 0), "enable": bv.KU(1, 1)})
	for name, v := range snap {
		s.SetState(name, v)
	}
	if s.State("count").Val.Uint64() != 1 {
		t.Fatal("restore failed")
	}
}

func TestSetStateRejectsNonRegister(t *testing.T) {
	sys := elaborate(t, goodCounter)
	s := NewCycleSim(sys, Zero, 0)
	for _, tc := range []struct {
		name string
		v    bv.XBV
	}{
		{"enable", bv.KU(1, 1)}, // an input: would shadow it
		{"nosuch", bv.KU(1, 1)},
		{"count", bv.KU(3, 1)}, // a register at the wrong width
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetState(%q, %v) did not panic", tc.name, tc.v)
				}
			}()
			s.SetState(tc.name, tc.v)
		}()
	}
}

func newEventSim(t *testing.T, src string) *EventSim {
	t.Helper()
	m, err := verilog.ParseModule(src)
	if err != nil {
		t.Fatal(err)
	}
	es, err := NewEventSim(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	return es
}

func TestEventSimCounter(t *testing.T) {
	es := newEventSim(t, goodCounter)
	res := RunEventTrace(es, counterTrace(), RunOptions{Policy: Zero})
	if !res.Passed() {
		t.Fatalf("good counter failed event sim at %d (%s)", res.FirstFailure, res.FailedSignal)
	}
}

func TestEventSimBuggyCounterXOnOutput(t *testing.T) {
	es := newEventSim(t, buggyCounter)
	res := RunEventTrace(es, counterTrace(), RunOptions{Policy: Zero})
	if res.Passed() {
		t.Fatal("buggy counter passed event sim (count should be X)")
	}
}

func TestEventSimXOptimismDiffersFromCycleSim(t *testing.T) {
	// if (sel) y = 1; else y = 0; with sel unknown: event sim takes the
	// else branch (X-optimism, y=0), while the cycle simulator merges
	// branches (y stays X). This is the seed of synthesis-simulation
	// mismatch detection.
	src := `
module xo(input sel, output reg y);
always @(*) begin
  if (sel) y = 1'b1;
  else y = 1'b0;
end
endmodule`
	es := newEventSim(t, src)
	es.SetInput("sel", bv.X(1))
	es.Reset()
	if got := es.Value("y"); got.HasUnknown() || got.Val.Uint64() != 0 {
		t.Fatalf("event sim y = %v, want known 0 (X-optimism)", got)
	}

	sys := elaborate(t, src)
	cs := NewCycleSim(sys, KeepX, 0)
	outs := cs.Peek(map[string]bv.XBV{"sel": bv.X(1)})
	if !outs["y"].HasUnknown() {
		t.Fatalf("cycle sim y = %v, want X", outs["y"])
	}
}

func TestEventSimIncompleteSenseListStaleValue(t *testing.T) {
	// y is sensitive only to a; changing b alone does not update y.
	// (Synthesis would treat this as pure combinational logic.)
	src := `
module stale(input a, input b, output reg y);
always @(a) y = a & b;
endmodule`
	es := newEventSim(t, src)
	es.SetInput("a", bv.KU(1, 1))
	es.SetInput("b", bv.KU(1, 1))
	es.settle()
	if es.Value("y").Val.Uint64() != 1 {
		t.Fatalf("y = %v after a=b=1", es.Value("y"))
	}
	es.SetInput("b", bv.KU(1, 0))
	es.settle()
	if es.Value("y").Val.Uint64() != 1 {
		t.Fatalf("y = %v; should be stale 1 because b is not in the sense list", es.Value("y"))
	}
	es.SetInput("a", bv.KU(1, 0))
	es.settle()
	if es.Value("y").Val.Uint64() != 0 {
		t.Fatalf("y = %v after a changes", es.Value("y"))
	}
}

func TestEventSimNonBlockingSwap(t *testing.T) {
	src := `
module swap(input clk, output reg a, output reg b);
initial a = 1;
initial b = 0;
always @(posedge clk) begin
  a <= b;
  b <= a;
end
endmodule`
	es := newEventSim(t, src)
	es.Step(nil, nil)
	if es.Value("a").Val.Uint64() != 0 || es.Value("b").Val.Uint64() != 1 {
		t.Fatalf("swap failed: a=%v b=%v", es.Value("a"), es.Value("b"))
	}
}

func TestEventSimBlockingInClockedBlockRace(t *testing.T) {
	// Blocking assignment in a clocked block: the read of tmp later in
	// the same block sees the new value.
	src := `
module r(input clk, input [3:0] d, output reg [3:0] q);
reg [3:0] tmp;
always @(posedge clk) begin
  tmp = d + 4'd1;
  q <= tmp;
end
endmodule`
	es := newEventSim(t, src)
	es.Step(map[string]bv.XBV{"d": bv.KU(4, 3)}, nil)
	if es.Value("q").Val.Uint64() != 4 {
		t.Fatalf("q = %v, want 4", es.Value("q"))
	}
}

func TestEventSimCaseIdentityMatchesX(t *testing.T) {
	// case (sel) with an x subject falls to default in 2-state labels.
	src := `
module cm(input [1:0] sel, output reg [1:0] y);
always @(*) begin
  case (sel)
    2'b00: y = 2'd1;
    2'b01: y = 2'd2;
    default: y = 2'd3;
  endcase
end
endmodule`
	es := newEventSim(t, src)
	es.SetInput("sel", bv.X(2))
	es.settle()
	if es.Value("y").Val.Uint64() != 3 {
		t.Fatalf("y = %v, want default 3", es.Value("y"))
	}
	es.SetInput("sel", bv.KU(2, 1))
	es.settle()
	if es.Value("y").Val.Uint64() != 2 {
		t.Fatalf("y = %v, want 2", es.Value("y"))
	}
}

func TestEventSimOscillationDetected(t *testing.T) {
	src := `
module osc(input a, output reg y);
initial y = 0;
always @(y or a) begin
  if (a) y = ~y;
  else y = 1'b0;
end
endmodule`
	m, err := verilog.ParseModule(src)
	if err != nil {
		t.Fatal(err)
	}
	es, err := NewEventSim(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	es.SetInput("a", bv.KU(1, 1))
	es.settle()
	if es.OscErr == nil {
		t.Fatal("oscillation not detected")
	}
}

func TestRecordTrace(t *testing.T) {
	sys := elaborate(t, goodCounter)
	cs := NewCycleSim(sys, Zero, 0)
	ins := []trace.Signal{{Name: "reset", Width: 1}, {Name: "enable", Width: 1}}
	outs := []trace.Signal{{Name: "count", Width: 4}, {Name: "overflow", Width: 1}}
	rows := [][]bv.XBV{
		{bv.KU(1, 1), bv.KU(1, 0)},
		{bv.KU(1, 0), bv.KU(1, 1)},
		{bv.KU(1, 0), bv.KU(1, 1)},
	}
	tr := RecordTrace(cs, ins, outs, rows)
	if tr.Len() != 3 {
		t.Fatalf("len = %d", tr.Len())
	}
	// Recorded trace must pass on a fresh simulation of the same design.
	res := RunTrace(sys, tr, RunOptions{Policy: Zero})
	if !res.Passed() {
		t.Fatalf("recorded trace does not pass: cycle %d %s", res.FirstFailure, res.FailedSignal)
	}
	// count at cycle 2 should be 1 (reset at 0, first increment visible
	// pre-edge at cycle 2).
	if got := tr.OutputRows[2][0]; got.Val.Uint64() != 1 {
		t.Fatalf("recorded count@2 = %v", got)
	}
}

func TestTraceCSVRoundTrip(t *testing.T) {
	tr := counterTrace()
	var sb strings.Builder
	if err := tr.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadCSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("%v\ncsv:\n%s", err, sb.String())
	}
	if back.Len() != tr.Len() || len(back.Inputs) != 2 || len(back.Outputs) != 2 {
		t.Fatalf("shape mismatch: %d rows", back.Len())
	}
	for i := 0; i < tr.Len(); i++ {
		for j := range tr.Inputs {
			if !back.InputRows[i][j].SameAs(tr.InputRows[i][j]) {
				t.Fatalf("input cell %d/%d: %v vs %v", i, j, back.InputRows[i][j], tr.InputRows[i][j])
			}
		}
		for j := range tr.Outputs {
			if !back.OutputRows[i][j].SameAs(tr.OutputRows[i][j]) {
				t.Fatalf("output cell %d/%d: %v vs %v", i, j, back.OutputRows[i][j], tr.OutputRows[i][j])
			}
		}
	}
}
