package sim

import (
	"math/rand"

	"rtlrepair/internal/bv"
	"rtlrepair/internal/trace"
)

// RunEventTrace executes a trace on the event simulator and checks
// expected outputs, mirroring RunTrace for the cycle simulator. Unknown
// input cells are concretized per policy (KeepX leaves them X, which is
// what a testbench that does not drive a signal does).
func RunEventTrace(es *EventSim, tr *trace.Trace, opts RunOptions) *RunResult {
	es.Reset()
	rng := rand.New(rand.NewSource(opts.Seed))
	res := &RunResult{FirstFailure: -1}
	outNames := make([]string, len(tr.Outputs))
	for i, o := range tr.Outputs {
		outNames[i] = o.Name
	}
	for cycle := 0; cycle < tr.Len(); cycle++ {
		inputs := map[string]bv.XBV{}
		for i, sig := range tr.Inputs {
			v := tr.InputRows[cycle][i]
			if v.HasUnknown() {
				switch opts.Policy {
				case Randomize:
					v = bv.K(v.Resolve(bv.FromWords(sig.Width, []uint64{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()})))
				case Zero:
					v = bv.K(v.Resolve(bv.Zero(sig.Width)))
				}
			}
			inputs[sig.Name] = v
		}
		outs := es.Step(inputs, outNames)
		if es.OscErr != nil {
			// An oscillating simulation fails at this cycle.
			res.FirstFailure = cycle
			res.FailedSignal = "<oscillation>"
			res.Cycles++
			return res
		}
		row := make([]bv.XBV, len(tr.Outputs))
		for i, sig := range tr.Outputs {
			row[i] = outs[sig.Name]
		}
		res.Outputs = append(res.Outputs, row)
		res.Cycles++
		if res.FirstFailure < 0 {
			for i, sig := range tr.Outputs {
				if !outputMatches(tr.OutputRows[cycle][i], outs[sig.Name]) {
					res.FirstFailure = cycle
					res.FailedSignal = sig.Name
					break
				}
			}
			if res.FirstFailure >= 0 && !opts.RunAll {
				return res
			}
		}
	}
	return res
}

// RecordTrace simulates sys-like behaviour via the cycle simulator to
// produce a golden trace: it drives the given input rows and records the
// simulated outputs as the expected outputs. This is how benchmark
// testbenches are converted into I/O traces from ground-truth designs,
// as described in §6.1.
func RecordTrace(sim *CycleSim, inputs []trace.Signal, outputs []trace.Signal, rows [][]bv.XBV) *trace.Trace {
	tr := trace.New(inputs, outputs)
	sim.bind(tr)
	outs := sim.p.outputSlots(outputs)
	for _, row := range rows {
		sim.inRow = row
		sim.tick()
		tr.AddRow(append([]bv.XBV{}, row...), sim.outputRow(outs))
	}
	return tr
}
