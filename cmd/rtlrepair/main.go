// Command rtlrepair repairs a buggy Verilog design against an I/O trace:
//
//	rtlrepair -design buggy.v -trace testbench.csv [-out repaired.v]
//
// The trace CSV is self-describing (header cells are name:width:dir, see
// internal/trace). The repaired design is written to -out (default
// stdout) together with a unified diff of the change.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rtlrepair/internal/core"
	"rtlrepair/internal/eval"
	"rtlrepair/internal/obs"
	"rtlrepair/internal/sim"
	"rtlrepair/internal/trace"
	"rtlrepair/internal/verilog"
)

func main() {
	var (
		designPath = flag.String("design", "", "buggy Verilog file (required)")
		tracePath  = flag.String("trace", "", "I/O trace CSV (required)")
		outPath    = flag.String("out", "", "output file for the repaired design (default stdout)")
		timeout    = flag.Duration("timeout", 60*time.Second, "repair budget")
		seed       = flag.Int64("seed", 1, "seed for randomized unknown values")
		zeroInit   = flag.Bool("zero-init", false, "zero unknown values instead of randomizing (Verilator mode)")
		basic      = flag.Bool("basic", false, "disable adaptive windowing (basic synthesizer)")
		workers    = flag.Int("workers", 0, "portfolio workers (0 = one per CPU, 1 = sequential)")
		certify    = flag.Bool("certify", false, "self-certify every solver verdict (DRUP-check Unsat answers, re-evaluate Sat models)")
		verbose    = flag.Bool("v", false, "print per-template progress")
	)
	var ocli obs.CLI
	ocli.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if *designPath == "" || *tracePath == "" {
		flag.Usage()
		os.Exit(2)
	}
	check(ocli.Start())

	src, err := os.ReadFile(*designPath)
	check(err)
	mods, err := verilog.Parse(string(src))
	check(err)
	top := mods[len(mods)-1]
	lib := map[string]*verilog.Module{}
	for _, m := range mods[:len(mods)-1] {
		lib[m.Name] = m
	}

	tf, err := os.Open(*tracePath)
	check(err)
	tr, err := trace.ReadCSV(tf)
	check(err)
	tf.Close()

	policy := sim.Randomize
	if *zeroInit {
		policy = sim.Zero
	}
	// SIGINT/SIGTERM cancel the repair cooperatively: the SAT searches
	// stop at their next poll and the partial statistics still print.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res := core.RepairCtx(obs.NewContext(ctx, ocli.Scope()), top, tr, core.Options{
		Policy:  policy,
		Seed:    *seed,
		Timeout: *timeout,
		Basic:   *basic,
		Lib:     lib,
		Workers: *workers,
		Certify: *certify,
	})
	check(ocli.Finish())

	fmt.Fprintf(os.Stderr, "status:   %s (%.2fs)\n", res.Status, res.Duration.Seconds())
	if *verbose {
		for _, tr := range res.PerTemplate {
			pass := "pruned"
			if !tr.Localized {
				pass = "full"
			}
			fmt.Fprintf(os.Stderr, "  %-22s %-7s w%d  %-12s %s\n",
				tr.Template, pass, tr.Worker, attemptState(tr), tr.Duration.Round(time.Millisecond))
			st := tr.Stats.SAT
			if st.Conflicts+st.Decisions+st.Propagations > 0 {
				fmt.Fprintf(os.Stderr, "    sat: %d vars %d clauses | %d conflicts %d decisions %d propagations %d restarts %d learned\n",
					st.Vars, st.Clauses, st.Conflicts, st.Decisions, st.Propagations, st.Restarts, st.Learned)
			}
			if *certify {
				ct := tr.Stats.Certify
				fmt.Fprintf(os.Stderr, "    certify: %d models validated, %d unsat proofs checked (%d steps, %d learned clauses RUP-verified) in %s\n",
					ct.ModelsValidated, ct.UnsatsCertified, ct.ProofSteps, ct.LearnedChecked, ct.CheckTime.Round(time.Millisecond))
			}
		}
		// The aggregates live on the Result (and the metrics registry)
		// whether or not -v is set; -v only controls printing them.
		st := res.SAT
		if st.Conflicts+st.Decisions+st.Propagations > 0 {
			fmt.Fprintf(os.Stderr, "  total sat: %d conflicts %d decisions %d propagations %d restarts %d learned\n",
				st.Conflicts, st.Decisions, st.Propagations, st.Restarts, st.Learned)
		}
		if ct := res.Certify; ct.ModelsValidated+ct.UnsatsCertified > 0 {
			fmt.Fprintf(os.Stderr, "  total certify: %d models validated, %d unsat proofs checked in %s\n",
				ct.ModelsValidated, ct.UnsatsCertified, ct.CheckTime.Round(time.Millisecond))
		}
		fmt.Fprintln(os.Stderr, "  --- phase summary ---")
		if n := ocli.Rec.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "  (the flight-recorder ring wrapped: %d early events are missing; -trace-out keeps them all)\n", n)
		}
		obs.WriteSummary(os.Stderr, ocli.Rec.Events())
	}
	switch res.Status {
	case core.StatusRepaired, core.StatusPreprocessed:
		fmt.Fprintf(os.Stderr, "template: %s\nchanges:  %d\n", orPre(res.Template), res.Changes)
		for _, d := range res.ChangeDescs {
			fmt.Fprintf(os.Stderr, "  - %s\n", d)
		}
		out := verilog.Print(res.Repaired)
		if *outPath != "" {
			check(os.WriteFile(*outPath, []byte(out), 0o644))
		} else {
			fmt.Println(out)
		}
		fmt.Fprintf(os.Stderr, "--- diff buggy vs. repaired ---\n%s", eval.DiffLines(verilog.Print(top), out))
	case core.StatusNoRepairNeeded:
		fmt.Fprintln(os.Stderr, "the design already passes the trace; no repair necessary")
	default:
		fmt.Fprintf(os.Stderr, "reason:   %s\n", res.Reason)
		os.Exit(1)
	}
}

// attemptState is the outcome column of a -v attempt line.
func attemptState(tr core.TemplateResult) string {
	switch {
	case errors.Is(tr.Err, core.ErrSameSites):
		return "same sites as pruned pass"
	case tr.Err != nil:
		return tr.Err.Error()
	case tr.Found:
		return fmt.Sprintf("%d changes", tr.Changes)
	}
	return "no repair"
}

func orPre(t string) string {
	if t == "" {
		return "preprocessing"
	}
	return t
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtlrepair:", err)
		os.Exit(1)
	}
}
