package main

// workload is one set of corpus designs the benchmark repairs, with the
// engine settings under which it runs them.
type workload struct {
	name string
	// designs are benchmark names from the corpus registry.
	designs []string
	// workers is the portfolio worker count (capped at the host's CPUs).
	workers int
	// certify runs every solver verdict through the DRUP checker and
	// model re-evaluation (core.Options.Certify).
	certify bool
}

// workloads pull apart the three layers that dominate different
// designs. Together repair and search cover the corpus exactly once,
// split by golden verdict; certify re-runs a subset in proof-logging
// mode.
var workloads = []workload{
	{
		// Designs the engine repairs (or finds need none). Time goes to
		// cycle simulation during validation and to the portfolio's
		// speculation and cancellation; SAT is a small share. sha3_r1 is
		// a repair but 94% SAT, so it sits in search where it cannot
		// hide simulator gains.
		name: "repair",
		designs: []string{
			"decoder_w1", "decoder_w2", "counter_k1", "counter_w2",
			"flop_w1", "flop_w2", "fsm_s1", "fsm_s2", "fsm_w2",
			"shift_k1", "shift_w1", "shift_w2", "mux_w1", "mux_w2",
			"i2c_k1", "sha3_w1", "sha3_s1", "pairing_w1",
			"sdram_k2", "sdram_w1", "sdram_w2",
			"C1", "C4", "D8", "D11", "D12", "D13", "S1.B", "S1.R", "S2", "S3",
		},
		workers: 2,
	},
	{
		// Designs proven unrepairable, plus sha3_r1. SAT search and
		// window encoding dominate; validation is about 0% of wall, so a
		// simulator change should not move this workload.
		name: "search",
		designs: []string{
			"counter_w1", "fsm_w1", "i2c_w1", "i2c_w2", "mux_k1",
			"sha3_w2", "pairing_k1", "pairing_w2", "reed_b1", "reed_o1",
			"C3", "D4", "D9", "sha3_r1",
		},
		workers: 2,
	},
	{
		// The corpus certification configuration: every Unsat verdict
		// is DRUP-checked, so the proof checker is a large share of
		// wall. One worker keeps scheduler changes out of it. Each
		// design logs at least 20k proof steps.
		name: "certify",
		designs: []string{
			"fsm_w1", "i2c_w2", "sha3_s1", "pairing_w1", "pairing_w2",
			"reed_b1", "D4", "S1.R", "sha3_w2",
		},
		workers: 1,
		certify: true,
	},
}

// knownWrongRepairs are golden repairs that pass the recorded trace but
// fail the independent event-driven simulator, the paper's Table 4
// column. The check runs on every verdict; a design entering or leaving
// this set counts as a failure until the set is updated with the goldens.
var knownWrongRepairs = map[string]bool{
	"pairing_w1": true,
}

// workloadByName returns the named workload, or nil.
func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
