// Command benchrepair tracks the repair engine's performance across PRs:
//
//	benchrepair [-designs counter_k1,sdram_w1] [-workers 4] [-reps 3] [-out BENCH_repair.json]
//	benchrepair -designs counter_k1,fsm_w1 -gate BENCH_repair.json   # CI perf gate
//
// For each design it runs the full repair flow sequentially (workers=1)
// and with the parallel portfolio, and records wall-clock times plus a
// modeled portfolio makespan derived from the sequential per-attempt
// durations (greedy list scheduling onto the requested worker count).
// The model matters on hosts with fewer cores than workers — there the
// speculation throttle serializes attempts and the measured parallel
// time converges to the sequential time, not the overlap a multi-core
// machine would get. The -gomaxprocs matrix re-measures the
// parallel/sequential pair under each GOMAXPROCS setting so the
// scaling (or the lack of cores) is visible in one report.
//
// With -gate the tool compares a fresh measurement against a pinned
// baseline report and exits nonzero on a per-phase wall-clock
// regression beyond -gate-slack, or a total measured speedup below
// -speedup-floor.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"rtlrepair/internal/bench"
	"rtlrepair/internal/core"
	"rtlrepair/internal/obs"
	"rtlrepair/internal/sim"
	"rtlrepair/internal/trace"
	"rtlrepair/internal/verilog"
)

type designReport struct {
	Name    string  `json:"name"`
	Status  string  `json:"status"`
	SeqMS   float64 `json:"sequential_ms"`
	ParMS   float64 `json:"parallel_ms"`
	Workers int     `json:"workers"`
	// AttemptMS is the sequential duration of each (pass, template)
	// attempt, in portfolio order; AttemptState says whether that
	// attempt actually ran ("ran"), was cancelled mid-search
	// ("cancelled"), or never started ("skipped"). Skipped attempts
	// report ~0 ms — excluding them keeps the modeled makespan and the
	// speedup math free of phantom work.
	AttemptMS    []float64 `json:"attempt_ms"`
	AttemptState []string  `json:"attempt_state"`
	// ModeledParMS schedules the sequential attempt durations (ran
	// attempts only) onto `workers` idealized cores (greedy, portfolio
	// order).
	ModeledParMS    float64 `json:"modeled_parallel_ms"`
	MeasuredSpeedup float64 `json:"measured_speedup"`
	ModeledSpeedup  float64 `json:"modeled_speedup"`
	// Portfolio scheduler and clause-exchange counters from the
	// parallel run.
	Steals         int64   `json:"steals"`
	SharedExported int64   `json:"shared_exported"`
	SharedImported int64   `json:"shared_imported"`
	SharedRejected int64   `json:"shared_rejected"`
	UtilizationPct float64 `json:"utilization_pct"`
	// CNF size and search effort aggregated over every solver of the
	// sequential run, with the abstract-interpretation simplifier on
	// (default) and off — the A/B that prices the absint pass. The
	// no-absint numbers come from passive shadow encoders riding the
	// same run (core.Options.ShadowCNF), so both sides of the A/B see
	// the identical sequence of window encodings.
	CNFVars            int64   `json:"cnf_vars"`
	CNFClauses         int64   `json:"cnf_clauses"`
	CNFVarsNoAbsint    int64   `json:"cnf_vars_no_absint"`
	CNFClausesNoAbsint int64   `json:"cnf_clauses_no_absint"`
	CNFVarReduction    float64 `json:"cnf_var_reduction_pct"`
	CNFClauseReduction float64 `json:"cnf_clause_reduction_pct"`
	SATConflicts       int64   `json:"sat_conflicts"`
	SATPropagations    int64   `json:"sat_propagations"`
	// PhaseMS is the median total time per observability phase (span
	// name) across `reps` traced sequential runs, in milliseconds. The
	// traced runs are separate from the timing runs, so the reported
	// wall-clock numbers stay free of tracing overhead.
	PhaseMS map[string]float64 `json:"phase_ms"`
}

// matrixDesign is one design's timing under one GOMAXPROCS setting.
type matrixDesign struct {
	Name            string  `json:"name"`
	SeqMS           float64 `json:"sequential_ms"`
	ParMS           float64 `json:"parallel_ms"`
	MeasuredSpeedup float64 `json:"measured_speedup"`
	ModeledSpeedup  float64 `json:"modeled_speedup"`
	Steals          int64   `json:"steals"`
	SharedExported  int64   `json:"shared_exported"`
	SharedImported  int64   `json:"shared_imported"`
	UtilizationPct  float64 `json:"utilization_pct"`
}

// matrixEntry is the full design set measured at one GOMAXPROCS value.
type matrixEntry struct {
	GOMAXPROCS int `json:"gomaxprocs"`
	// Capacity is the speculation throttle min(NumCPU, GOMAXPROCS):
	// when it is 1 the portfolio serializes in sequential order and the
	// honest expectation for measured_speedup is ~1.0.
	Capacity             int            `json:"speculation_capacity"`
	Designs              []matrixDesign `json:"designs"`
	TotalSeqMS           float64        `json:"total_sequential_ms"`
	TotalParMS           float64        `json:"total_parallel_ms"`
	TotalMeasuredSpeedup float64        `json:"total_measured_speedup"`
	TotalModeledSpeedup  float64        `json:"total_modeled_speedup"`
}

type report struct {
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"num_cpu"`
	Workers    int            `json:"workers"`
	Reps       int            `json:"reps"`
	Designs    []designReport `json:"designs"`
	// Matrix re-measures each design's sequential/parallel pair under
	// each requested GOMAXPROCS value.
	Matrix []matrixEntry `json:"matrix,omitempty"`
	// Summary speedups aggregate total sequential vs. parallel time.
	TotalSeqMS             float64 `json:"total_sequential_ms"`
	TotalParMS             float64 `json:"total_parallel_ms"`
	TotalMeasuredSpeedup   float64 `json:"total_measured_speedup"`
	TotalModeledSpeedup    float64 `json:"total_modeled_speedup"`
	MeasurementLimitations string  `json:"measurement_limitations,omitempty"`
}

func main() {
	var (
		designs    = flag.String("designs", "counter_k1,sdram_w1,fsm_w1,i2c_w2", "comma-separated benchmark names")
		workers    = flag.Int("workers", 4, "portfolio workers for the parallel runs")
		reps       = flag.Int("reps", 3, "repetitions per configuration (median reported)")
		out        = flag.String("out", "BENCH_repair.json", "output JSON path")
		matrixList = flag.String("gomaxprocs", "1,4,8", "comma-separated GOMAXPROCS values for the scaling matrix (empty disables)")
		gate       = flag.String("gate", "", "baseline BENCH_repair.json: compare instead of just writing, exit 1 on regression")
		gateSlack  = flag.Float64("gate-slack", 25, "absolute per-phase slack in ms before the 20% gate applies")
		floor      = flag.Float64("speedup-floor", 0, "fail the gate when total_measured_speedup drops below this (0 disables)")
	)
	var ocli obs.CLI
	ocli.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if err := ocli.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "benchrepair:", err)
		os.Exit(1)
	}

	rep := report{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Workers: *workers, Reps: *reps}
	if runtime.NumCPU() < *workers {
		rep.MeasurementLimitations = fmt.Sprintf(
			"host exposes %d CPU(s) for %d workers: the speculation throttle serializes attempts, so measured parallel times converge to sequential (~1.0x) rather than showing overlap; use modeled_speedup for the multi-core win",
			runtime.NumCPU(), *workers)
	}

	var modeledTotal float64
	for _, name := range strings.Split(*designs, ",") {
		name = strings.TrimSpace(name)
		bm := bench.ByName(name)
		if bm == nil {
			fmt.Fprintf(os.Stderr, "benchrepair: unknown design %s\n", name)
			os.Exit(1)
		}
		dr := measure(bm, *workers, *reps, ocli.Scope(), *gate != "")
		rep.Designs = append(rep.Designs, dr)
		rep.TotalSeqMS += dr.SeqMS
		rep.TotalParMS += dr.ParMS
		modeledTotal += dr.ModeledParMS
		fmt.Fprintf(os.Stderr, "%-12s seq %8.1fms  par %8.1fms  modeled %8.1fms  (measured %.2fx, modeled %.2fx)  steals %d  shared %d/%d\n",
			name, dr.SeqMS, dr.ParMS, dr.ModeledParMS, dr.MeasuredSpeedup, dr.ModeledSpeedup,
			dr.Steals, dr.SharedImported, dr.SharedExported)
		fmt.Fprintf(os.Stderr, "%-12s cnf %d vars %d clauses (absint off: %d / %d, reduction %.1f%% / %.1f%%)\n",
			"", dr.CNFVars, dr.CNFClauses, dr.CNFVarsNoAbsint, dr.CNFClausesNoAbsint,
			dr.CNFVarReduction, dr.CNFClauseReduction)
	}
	if rep.TotalParMS > 0 {
		rep.TotalMeasuredSpeedup = rep.TotalSeqMS / rep.TotalParMS
	}
	if modeledTotal > 0 {
		rep.TotalModeledSpeedup = rep.TotalSeqMS / modeledTotal
	}

	if *matrixList != "" {
		rep.Matrix = runMatrix(*designs, *matrixList, *workers, *reps)
	}

	if err := ocli.Finish(); err != nil {
		fmt.Fprintln(os.Stderr, "benchrepair:", err)
		os.Exit(1)
	}

	if *gate != "" {
		if err := runGate(*gate, &rep, *gateSlack, *floor); err != nil {
			fmt.Fprintln(os.Stderr, "benchrepair: perf gate FAILED:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "benchrepair: perf gate passed")
		return
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrepair:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchrepair:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
}

// runMatrix re-times every design's sequential/parallel pair under each
// requested GOMAXPROCS value. GOMAXPROCS is restored afterwards.
func runMatrix(designs, list string, workers, reps int) []matrixEntry {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var out []matrixEntry
	for _, f := range strings.Split(list, ",") {
		g, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || g < 1 {
			fmt.Fprintf(os.Stderr, "benchrepair: bad -gomaxprocs entry %q\n", f)
			os.Exit(1)
		}
		runtime.GOMAXPROCS(g)
		capacity := runtime.NumCPU()
		if g < capacity {
			capacity = g
		}
		me := matrixEntry{GOMAXPROCS: g, Capacity: capacity}
		var modeledTotal float64
		for _, name := range strings.Split(designs, ",") {
			name = strings.TrimSpace(name)
			bm := bench.ByName(name)
			md, modeled := matrixMeasure(bm, workers, reps)
			me.Designs = append(me.Designs, md)
			me.TotalSeqMS += md.SeqMS
			me.TotalParMS += md.ParMS
			modeledTotal += modeled
			fmt.Fprintf(os.Stderr, "gomaxprocs=%d %-12s seq %8.1fms  par %8.1fms  (measured %.2fx, modeled %.2fx)\n",
				g, name, md.SeqMS, md.ParMS, md.MeasuredSpeedup, md.ModeledSpeedup)
		}
		if me.TotalParMS > 0 {
			me.TotalMeasuredSpeedup = me.TotalSeqMS / me.TotalParMS
		}
		if modeledTotal > 0 {
			me.TotalModeledSpeedup = me.TotalSeqMS / modeledTotal
		}
		out = append(out, me)
	}
	return out
}

func loadBench(bm *bench.Benchmark) (*verilog.Module, *trace.Trace, core.Options) {
	tr, err := bm.Trace()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchrepair: %s: %v\n", bm.Name, err)
		os.Exit(1)
	}
	m, err := bm.BuggyModule()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchrepair: %s: %v\n", bm.Name, err)
		os.Exit(1)
	}
	lib, _ := bm.LibModules()
	return m, tr, core.Options{
		Policy:  sim.Randomize,
		Seed:    1,
		Timeout: 120 * time.Second,
		Lib:     lib,
	}
}

// timedRun reports the median wall clock of `reps` repairs at the given
// worker count, the last run's result, and the last run's metrics
// registry (for the scheduler/exchange counters).
func timedRun(m *verilog.Module, tr *trace.Trace, opts core.Options, w, reps int, sc obs.Scope) (float64, *core.Result, *obs.Registry) {
	o := opts
	o.Workers = w
	var times []float64
	var last *core.Result
	var reg *obs.Registry
	for i := 0; i < reps; i++ {
		reg = obs.NewRegistry()
		s := sc
		s.Metrics = reg
		start := time.Now()
		last = core.RepairCtx(obs.NewContext(context.Background(), s), m, tr, o)
		times = append(times, float64(time.Since(start).Microseconds())/1000)
	}
	sort.Float64s(times)
	return times[len(times)/2], last, reg
}

func matrixMeasure(bm *bench.Benchmark, workers, reps int) (matrixDesign, float64) {
	m, tr, opts := loadBench(bm)
	seqMS, seqRes, _ := timedRun(m, tr, opts, 1, reps, obs.Scope{})
	parMS, _, reg := timedRun(m, tr, opts, workers, reps, obs.Scope{})
	md := matrixDesign{
		Name:           bm.Name,
		SeqMS:          seqMS,
		ParMS:          parMS,
		Steals:         reg.Counter("portfolio.steals"),
		SharedExported: reg.Counter("sat.share.exported"),
		SharedImported: reg.Counter("sat.share.imported"),
		UtilizationPct: reg.Gauge("portfolio.utilization_pct"),
	}
	modeled := makespan(ranDurations(seqRes), workers)
	if parMS > 0 {
		md.MeasuredSpeedup = seqMS / parMS
	}
	if modeled > 0 {
		md.ModeledSpeedup = seqMS / modeled
	}
	return md, modeled
}

func measure(bm *bench.Benchmark, workers, reps int, sc obs.Scope, gating bool) designReport {
	m, tr, opts := loadBench(bm)

	// The timing runs honor an explicitly requested -trace-out scope;
	// with the flags unset sc is zero and tracing stays disabled, so the
	// default timings carry only the (negligible) metrics overhead.
	seqMS, seqRes, _ := timedRun(m, tr, opts, 1, reps, sc)
	parMS, _, reg := timedRun(m, tr, opts, workers, reps, sc)

	dr := designReport{
		Name:           bm.Name,
		Status:         seqRes.Status.String(),
		SeqMS:          seqMS,
		ParMS:          parMS,
		Workers:        workers,
		Steals:         reg.Counter("portfolio.steals"),
		SharedExported: reg.Counter("sat.share.exported"),
		SharedImported: reg.Counter("sat.share.imported"),
		SharedRejected: reg.Counter("sat.share.rejected"),
		UtilizationPct: reg.Gauge("portfolio.utilization_pct"),
		PhaseMS:        phaseTotals(m, tr, opts, reps, gating),
	}
	for _, at := range seqRes.PerTemplate {
		dr.AttemptMS = append(dr.AttemptMS, float64(at.Duration.Microseconds())/1000)
		dr.AttemptState = append(dr.AttemptState, at.State)
	}
	dr.ModeledParMS = makespan(ranDurations(seqRes), workers)
	if parMS > 0 {
		dr.MeasuredSpeedup = seqMS / parMS
	}
	if dr.ModeledParMS > 0 {
		dr.ModeledSpeedup = seqMS / dr.ModeledParMS
	}

	dr.CNFVars, dr.CNFClauses, dr.SATConflicts, dr.SATPropagations = aggregateSAT(seqRes)

	// One untimed sequential run with passive shadow encoders prices the
	// simplifier: each shadow re-blasts the identical assert stream with
	// abstract interpretation off, so the columns compare the same
	// search path rather than two separately scheduled repairs.
	shOpts := opts
	shOpts.Workers = 1
	shOpts.ShadowCNF = true
	shRes := core.Repair(m, tr, shOpts)
	// Take the live CNF size from the shadow run too, so the reduction
	// columns divide numbers from the very same encodings.
	liveVars, liveClauses, _, _ := aggregateSAT(shRes)
	dr.CNFVars, dr.CNFClauses = liveVars, liveClauses
	na := shRes.Shadow
	dr.CNFVarsNoAbsint, dr.CNFClausesNoAbsint = na.Vars, na.Clauses
	if na.Vars > 0 {
		dr.CNFVarReduction = 100 * (1 - float64(liveVars)/float64(na.Vars))
	}
	if na.Clauses > 0 {
		dr.CNFClauseReduction = 100 * (1 - float64(liveClauses)/float64(na.Clauses))
	}
	return dr
}

// ranDurations extracts the durations of the attempts that actually ran
// in a sequential result. Skipped attempts (cancelled before starting)
// report ~0 ms and would otherwise deflate the modeled makespan.
func ranDurations(res *core.Result) []float64 {
	var out []float64
	for _, at := range res.PerTemplate {
		if at.State == core.AttemptSkipped {
			continue
		}
		out = append(out, float64(at.Duration.Microseconds())/1000)
	}
	return out
}

// runGate compares a fresh report against the pinned baseline. A phase
// regresses when its median exceeds the baseline by >20% AND more than
// slackMS in absolute terms (tiny phases jitter by whole multiples).
// Designs or phases absent from the baseline are skipped — the gate
// never blocks adding coverage.
func runGate(baselinePath string, fresh *report, slackMS, floor float64) error {
	buf, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base report
	if err := json.Unmarshal(buf, &base); err != nil {
		return fmt.Errorf("parse baseline %s: %w", baselinePath, err)
	}
	basePhases := map[string]map[string]float64{}
	for _, d := range base.Designs {
		basePhases[d.Name] = d.PhaseMS
	}
	var violations []string
	for _, d := range fresh.Designs {
		bp, ok := basePhases[d.Name]
		if !ok {
			continue
		}
		for phase, ms := range d.PhaseMS {
			b, ok := bp[phase]
			if !ok || b <= 0 {
				continue
			}
			if ms > b*1.2 && ms-b > slackMS {
				violations = append(violations,
					fmt.Sprintf("%s/%s: %.1fms vs baseline %.1fms (+%.0f%%)", d.Name, phase, ms, b, 100*(ms/b-1)))
			}
		}
	}
	if floor > 0 && fresh.TotalMeasuredSpeedup < floor {
		violations = append(violations,
			fmt.Sprintf("total_measured_speedup %.3f below floor %.3f", fresh.TotalMeasuredSpeedup, floor))
	}
	if len(violations) > 0 {
		return fmt.Errorf("%d violation(s):\n  %s", len(violations), strings.Join(violations, "\n  "))
	}
	return nil
}

// phaseTotals runs `reps` traced sequential repairs and reports the
// total time of each observability phase (per span name): the median
// across reps for published reports, the minimum when gating (the min
// is the standard low-noise estimator — scheduling interference only
// ever adds time, so a regression gate comparing mins sees the code's
// cost, not the machine's mood). These runs are separate from the
// timing runs so that tracing overhead never pollutes the reported
// wall-clock numbers.
func phaseTotals(m *verilog.Module, tr *trace.Trace, opts core.Options, reps int, useMin bool) map[string]float64 {
	opts.Workers = 1
	samples := map[string][]float64{}
	for i := 0; i < reps; i++ {
		t := obs.New()
		ctx := obs.NewContext(context.Background(), obs.Scope{Tracer: t})
		core.RepairCtx(ctx, m, tr, opts)
		for name, ps := range t.PhaseTotals() {
			samples[name] = append(samples[name], float64(ps.Total.Microseconds())/1000)
		}
	}
	out := map[string]float64{}
	for name, times := range samples {
		sort.Float64s(times)
		if useMin {
			out[name] = times[0]
		} else {
			out[name] = times[len(times)/2]
		}
	}
	return out
}

// aggregateSAT sums the CNF size and search counters over every template
// attempt of a repair run.
func aggregateSAT(res *core.Result) (vars, clauses, conflicts, props int64) {
	for _, at := range res.PerTemplate {
		vars += at.Stats.SAT.Vars
		clauses += at.Stats.SAT.Clauses
		conflicts += at.Stats.SAT.Conflicts
		props += at.Stats.SAT.Propagations
	}
	return
}

// makespan greedily schedules attempt durations onto w idealized cores in
// portfolio order: each attempt starts on the earliest-free core, and the
// makespan is the latest completion. This is the wall-clock a w-core host
// would see with perfect overlap and the sequential engine's work set.
func makespan(durations []float64, w int) float64 {
	if len(durations) == 0 || w < 1 {
		return 0
	}
	cores := make([]float64, w)
	for _, d := range durations {
		min := 0
		for i := 1; i < w; i++ {
			if cores[i] < cores[min] {
				min = i
			}
		}
		cores[min] += d
	}
	max := cores[0]
	for _, c := range cores[1:] {
		if c > max {
			max = c
		}
	}
	return max
}
