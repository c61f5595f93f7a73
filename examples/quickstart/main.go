// The quickstart example walks through the paper's running example
// (Figures 1 and 2): the first_counter circuit with a missing count
// reset is repaired from a tiny I/O trace. It prints each artifact of
// the flow: the buggy source, the transition system the synthesizer
// sees, the I/O trace, and finally the repair diff.
package main

import (
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"rtlrepair/internal/btor2"
	"rtlrepair/internal/bv"
	"rtlrepair/internal/core"
	"rtlrepair/internal/eval"
	"rtlrepair/internal/sim"
	"rtlrepair/internal/smt"
	"rtlrepair/internal/synth"
	"rtlrepair/internal/trace"
	"rtlrepair/internal/verilog"
)

// buggyCounter is Figure 1a: the count reset is missing.
const buggyCounter = `
module first_counter(input clock, input reset, input enable,
                     output reg [3:0] count, output reg overflow);
always @(posedge clock) begin
  if (reset == 1'b1) begin
    // count reset is missing:
    // count <= 4'b0000;
    overflow <= 1'b0;
  end else if (enable == 1'b1) begin
    count <= count + 1;
  end
  if (count == 4'b1111) begin
    overflow <= 1'b1;
  end
end
endmodule`

func main() {
	fmt.Println("=== 1. The buggy design (Figure 1a) ===")
	fmt.Println(strings.TrimSpace(buggyCounter))

	m, err := verilog.ParseModule(buggyCounter)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n=== 2. Transition-system encoding (Figure 1b) ===")
	sys, _, err := synth.Elaborate(smt.NewContext(), m, synth.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if err := btor2.Write(os.Stdout, sys); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n=== 3. The I/O trace (Figure 2a) ===")
	// After reset, count must be zero; later cycles pin down the
	// increment and hold behaviour so overfitting repairs are rejected.
	ins := []trace.Signal{{Name: "reset", Width: 1}, {Name: "enable", Width: 1}}
	outs := []trace.Signal{{Name: "count", Width: 4}, {Name: "overflow", Width: 1}}
	tr := trace.New(ins, outs)
	tr.AddRow([]bv.XBV{bv.KU(1, 1), bv.X(1)}, []bv.XBV{bv.X(4), bv.X(1)})         // reset, outputs don't care
	tr.AddRow([]bv.XBV{bv.KU(1, 0), bv.KU(1, 0)}, []bv.XBV{bv.KU(4, 0), bv.X(1)}) // count must be 0
	tr.AddRow([]bv.XBV{bv.KU(1, 0), bv.KU(1, 1)}, []bv.XBV{bv.KU(4, 0), bv.X(1)}) // still 0 pre-edge
	tr.AddRow([]bv.XBV{bv.KU(1, 0), bv.KU(1, 1)}, []bv.XBV{bv.KU(4, 1), bv.X(1)}) // incremented
	tr.AddRow([]bv.XBV{bv.KU(1, 0), bv.KU(1, 0)}, []bv.XBV{bv.KU(4, 2), bv.X(1)}) // hold
	tr.AddRow([]bv.XBV{bv.KU(1, 0), bv.KU(1, 0)}, []bv.XBV{bv.KU(4, 2), bv.X(1)}) // hold
	var csv strings.Builder
	if err := tr.WriteCSV(&csv); err != nil {
		log.Fatal(err)
	}
	fmt.Print(csv.String())

	fmt.Println("\n=== 4. Repair (Figures 2b-2d: templates + minimal-change synthesis) ===")
	res := core.Repair(m, tr, core.Options{
		Policy:  sim.Randomize,
		Seed:    1,
		Timeout: 30 * time.Second,
	})
	fmt.Printf("status:   %s in %s\n", res.Status, res.Duration.Round(time.Millisecond))
	if res.Status != core.StatusRepaired {
		log.Fatalf("unexpected status (reason: %s)", res.Reason)
	}
	fmt.Printf("template: %s\nchanges:  %d (the minimal solution, Figure 2d)\n", res.Template, res.Changes)
	for _, d := range res.ChangeDescs {
		fmt.Printf("  - %s\n", d)
	}

	fmt.Println("\n=== 5. The repaired source and its diff ===")
	fmt.Println(verilog.Print(res.Repaired))
	fmt.Println("--- diff buggy vs. repaired ---")
	fmt.Print(eval.DiffLines(verilog.Print(m), verilog.Print(res.Repaired)))
}
