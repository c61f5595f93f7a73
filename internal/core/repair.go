package core

import (
	"context"
	"strconv"
	"sync/atomic"
	"time"

	"rtlrepair/internal/analysis"
	"rtlrepair/internal/bv"
	"rtlrepair/internal/lint"
	"rtlrepair/internal/obs"
	"rtlrepair/internal/sat"
	"rtlrepair/internal/sim"
	"rtlrepair/internal/smt"
	"rtlrepair/internal/synth"
	"rtlrepair/internal/trace"
	"rtlrepair/internal/tsys"
	"rtlrepair/internal/verilog"
)

// Status classifies a repair attempt, matching the paper's ✔/✖/○
// taxonomy at the tool level.
type Status int

// Repair statuses.
const (
	// StatusRepaired: a repair was found that passes the trace.
	StatusRepaired Status = iota
	// StatusPreprocessed: static-analysis preprocessing alone fixed it.
	StatusPreprocessed
	// StatusNoRepairNeeded: the design already passes the trace
	// (the tool reports zero changes, as for shift_k1 in §6.2).
	StatusNoRepairNeeded
	// StatusCannotRepair: no template produced a repair.
	StatusCannotRepair
	// StatusTimeout: the time budget expired.
	StatusTimeout
)

func (s Status) String() string {
	switch s {
	case StatusRepaired:
		return "repaired"
	case StatusPreprocessed:
		return "repaired-by-preprocessing"
	case StatusNoRepairNeeded:
		return "no-repair-needed"
	case StatusCannotRepair:
		return "cannot-repair"
	case StatusTimeout:
		return "timeout"
	}
	return "unknown"
}

// Options configures the end-to-end repair flow.
type Options struct {
	// Policy for unknown values; Randomize matches the CirFix-suite
	// setup, Zero matches Verilator-based testbenches (§4.3).
	Policy sim.UnknownPolicy
	Seed   int64
	// Timeout bounds the whole repair (default 60 s, as in §6.3).
	Timeout time.Duration
	// Basic disables adaptive windowing (ablation of §4.4).
	Basic bool
	// NoPreprocess disables static-analysis preprocessing (ablation).
	NoPreprocess bool
	// NoLocalize disables fault localization, so templates instrument
	// every site (ablation).
	NoLocalize bool
	// NoMinimize disables the minimal-change search (ablation of §4.3).
	NoMinimize bool
	// Templates overrides the template sequence (default: all three).
	Templates []Template
	// Lib provides instantiated modules.
	Lib map[string]*verilog.Module
	// MaxAcceptableChanges: larger repairs are kept only as fallbacks
	// while smaller templates are tried (Σφ > 3 rule, Figure 3).
	MaxAcceptableChanges int
	// Frozen names signals whose driving logic must not be repaired.
	// Used with BMC counterexample traces so the property expression
	// itself cannot be weakened (see internal/bmc).
	Frozen []string
	// Workers is the number of concurrent portfolio workers running the
	// (localization pass, template) attempts. 0 picks one worker per
	// available CPU; 1 runs the attempts on the exact sequential engine.
	// The selected repair is identical either way — only wall-clock time
	// changes.
	Workers int
	// Certify runs every SMT query in self-certifying mode: Unsat
	// verdicts are re-checked against a DRUP proof by an independent
	// forward checker, and Sat models are re-evaluated by the reference
	// interpreter. A failed check panics, since it means the solver gave
	// an unsound answer.
	Certify bool
	// NoAbsint disables the abstract-interpretation term simplifier
	// (ablation / A/B measurement of its CNF impact).
	NoAbsint bool
	// ShadowCNF attaches a passive no-absint shadow encoder to every
	// window solver: it receives the same asserts along the identical
	// search path but never solves, yielding an apples-to-apples CNF size
	// delta for the simplifier in Result.Shadow.
	ShadowCNF bool
	// Frontend, when non-nil, supplies a pre-built preprocess+elaborate
	// artifact for this exact design (see NewFrontend): the repair skips
	// the frontend phases and reuses the artifact's elaborated system and
	// template-analysis info. The serving layer caches Frontends by
	// content hash so re-repairs of the same design with a new trace pay
	// no frontend cost. The artifact must have been built from the same
	// module and lib with the same NoPreprocess setting.
	Frontend *Frontend
}

// frozenSet converts the Frozen option into the template Env form.
func (o *Options) frozenSet() map[string]bool {
	if len(o.Frozen) == 0 {
		return nil
	}
	m := map[string]bool{}
	for _, name := range o.Frozen {
		m[name] = true
	}
	return m
}

// DefaultTemplates is the paper's template sequence.
func DefaultTemplates() []Template {
	return []Template{ReplaceLiterals{}, AddGuard{}, CondOverwrite{}}
}

// Attempt states, reported per TemplateResult so downstream consumers
// (benchmarks, the serving layer) can tell real work from phantom
// entries that never started.
const (
	// AttemptRan: the attempt executed its synthesis to completion
	// (found a repair, proved none exists, or errored on its own).
	AttemptRan = "ran"
	// AttemptCancelled: the attempt started but was stopped mid-search
	// because a sibling's repair made its outcome irrelevant (or the
	// caller cancelled the repair).
	AttemptCancelled = "cancelled"
	// AttemptSkipped: the attempt never started — it was cancelled or
	// the deadline expired before a worker picked it up. Its Duration
	// is scheduling noise, not work, and must be excluded from speedup
	// math.
	AttemptSkipped = "skipped"
)

// TemplateResult records one template's attempt (for Table 5).
type TemplateResult struct {
	Template string
	Found    bool
	Changes  int
	// Sites is the number of φ variables the template instrumented
	// (after fault-localization pruning, when active).
	Sites int
	// Localized is true when the attempt ran with localization pruning.
	Localized bool
	Duration  time.Duration
	Err       error
	Stats     SynthStats
	// Worker is the portfolio worker that ran the attempt (0 when
	// sequential).
	Worker int
	// Cancelled is true when the portfolio stopped the attempt because a
	// sibling's repair made its outcome irrelevant.
	Cancelled bool
	// State is AttemptRan, AttemptCancelled, or AttemptSkipped.
	State string
	// Stolen is true when a work-stealing worker executed an attempt
	// seeded to another worker's deque.
	Stolen bool
}

// Result is the outcome of a repair run.
type Result struct {
	Status   Status
	Repaired *verilog.Module // repaired source (nil unless repaired)
	Changes  int
	Template string // template that produced the repair ("" for preprocessing)
	Fixes    []lint.Fix
	// ChangeDescs describes the enabled changes.
	ChangeDescs []string
	// FirstFailure is the original trace failure cycle (-1 if passing).
	FirstFailure int
	// PerTemplate holds each template attempt in order.
	PerTemplate []TemplateResult
	// Window is the final (k_past, k_future) of the successful synth.
	Window   [2]int
	Duration time.Duration
	// Reason explains CannotRepair (e.g. a synthesis error).
	Reason string
	// Diagnostics is the static-analysis report of the preprocessed
	// design (nil when preprocessing was disabled).
	Diagnostics *analysis.Report
	// Localization is the fault localization used to prune template
	// sites (nil when disabled or when the design passed).
	Localization *analysis.Localization
	// SAT aggregates the CDCL statistics of every solver across every
	// template attempt. Always populated — regardless of verbosity — so
	// -metrics-out and the -v summary report the same numbers.
	SAT sat.Statistics
	// Certify aggregates the certification work (model validations, DRUP
	// checks) across the same solvers. Always populated.
	Certify smt.CertifyStats
	// Abs aggregates abstract-interpretation statistics (facts learned,
	// rewrites, never-worse guard fallbacks) across the same solvers.
	Abs smt.AbsStats
	// Shadow aggregates the CNF statistics of the passive no-absint
	// shadow encoders (Options.ShadowCNF) across the same solvers. Zero
	// unless ShadowCNF was set.
	Shadow sat.Statistics
}

// Frontend is the reusable result of the repair pipeline's frontend:
// static-analysis preprocessing plus elaboration of one design. Every
// field is read-only after construction — the verilog AST is never
// mutated by templates (Instrument deep-copies), simulation evaluates
// the elaborated term DAG without creating terms, and the artifact's
// private smt.Context is never handed to a term-producing phase — so a
// single Frontend is safe for concurrent use by any number of RepairCtx
// calls. The serving layer caches Frontends by design content hash.
type Frontend struct {
	// Fixed is the preprocessed module (== the input module when
	// preprocessing was disabled or fixed nothing).
	Fixed       *verilog.Module
	Fixes       []lint.Fix
	Diagnostics *analysis.Report
	Lib         map[string]*verilog.Module
	// Sys is the elaborated transition system of Fixed, bound to a
	// private context that is frozen after construction. Nil when the
	// frontend failed (see Reason).
	Sys *tsys.System
	// Info is the template-analysis info from the same elaboration.
	Info *synth.Info
	// Reason is the CannotRepair reason when the frontend failed
	// (preprocessing error or unsynthesizable design); "" on success.
	Reason string

	// ctx is the private context Sys is bound to, frozen at
	// construction. Portfolio attempts layer their own contexts on top
	// of it (smt.Context.Clone), so the instrument/elaborate step of
	// each attempt reuses the frontend's hash-consed term DAG instead of
	// rebuilding it from an empty table.
	ctx *smt.Context
}

// NewFrontend runs the frontend phases (preprocess, elaborate) once and
// returns the shareable artifact. A failed frontend is still a valid —
// and cacheable — artifact: its Reason carries the CannotRepair reason
// RepairCtx will report.
func NewFrontend(m *verilog.Module, lib map[string]*verilog.Module, noPreprocess bool) *Frontend {
	return newFrontend(obs.Scope{}, m, lib, noPreprocess)
}

// newFrontend is NewFrontend with the phase spans recorded under sc.
func newFrontend(sc obs.Scope, m *verilog.Module, lib map[string]*verilog.Module, noPreprocess bool) *Frontend {
	fe := &Frontend{Fixed: m, Lib: lib}

	// 1. Static-analysis preprocessing (§4.1).
	if !noPreprocess {
		span := sc.Start("preprocess")
		var err error
		fe.Fixed, fe.Fixes, fe.Diagnostics, err = lint.PreprocessWithReport(m, lib)
		span.End(obs.Int("fixes", int64(len(fe.Fixes))))
		if err != nil {
			fe.Reason = "preprocessing failed: " + err.Error()
			return fe
		}
	}

	// 2. Elaborate the preprocessed design. Elaboration stays the
	// authority on synthesizability; the analysis report only explains
	// the failure in more detail (it sees all problems at once where
	// elaboration stops at the first).
	span := sc.Start("elaborate")
	sctx := smt.NewContext()
	sys, info, err := synth.Elaborate(sctx, fe.Fixed, synth.Options{Lib: lib})
	if err == nil {
		span.End(obs.Int("states", int64(len(sys.States))), obs.Int("outputs", int64(len(sys.Outputs))))
	} else {
		span.End()
	}
	if err != nil {
		fe.Reason = "not synthesizable: " + err.Error()
		if fe.Diagnostics != nil {
			if errs := fe.Diagnostics.Errors(); len(errs) > 0 {
				fe.Reason += "; static analysis: " + errs[0].String()
				if len(errs) > 1 {
					fe.Reason += " (and " + strconv.Itoa(len(errs)-1) + " more)"
				}
			}
		}
		return fe
	}
	fe.Sys = sys
	fe.Info = info
	// Freeze the elaboration context now, on the constructing goroutine:
	// portfolio attempts — possibly of many concurrent repairs sharing
	// one cached Frontend — clone it without further writes.
	sctx.Freeze()
	fe.ctx = sctx
	return fe
}

// RehydrateFrontend rebuilds a Frontend from a previously preprocessed
// design — e.g. one deserialized from the server's on-disk artifact cache.
// The lint transform is skipped: fixed and fixes come verbatim from the
// original preprocessing (they are inputs to the repair verdict), while
// the static-analysis report and the elaboration are recomputed here.
// Both are pure functions of the preprocessed module, so a rehydrated
// frontend behaves byte-for-byte like the one NewFrontend built. A
// non-empty reason short-circuits to a failed frontend (fixed may be
// nil in that case), mirroring how the failure was first recorded.
func RehydrateFrontend(fixed *verilog.Module, lib map[string]*verilog.Module, fixes []lint.Fix, reason string) *Frontend {
	fe := &Frontend{Fixed: fixed, Fixes: fixes, Lib: lib}
	if fixed != nil {
		fe.Diagnostics = analysis.Analyze(fixed, analysis.Options{Lib: lib})
	}
	if reason != "" {
		fe.Reason = reason
		return fe
	}
	sctx := smt.NewContext()
	sys, info, err := synth.Elaborate(sctx, fixed, synth.Options{Lib: lib})
	if err != nil {
		// Unreachable for docs written by a healthy node (elaboration
		// failures are stored with their reason), but a recomputed
		// failure must still match the cold path's reporting.
		fe.Reason = "not synthesizable: " + err.Error()
		return fe
	}
	fe.Sys = sys
	fe.Info = info
	sctx.Freeze()
	fe.ctx = sctx
	return fe
}

// Repair runs the full RTL-Repair flow of Figure 3 on a buggy module and
// an I/O trace.
func Repair(m *verilog.Module, tr *trace.Trace, opts Options) *Result {
	return RepairCtx(context.Background(), m, tr, opts)
}

// cancelReason renders a context error as a Result reason.
func cancelReason(err error) string {
	if err == context.Canceled {
		return "cancelled"
	}
	return "timeout"
}

// watchCancel mirrors ctx cancellation onto a cooperative stop flag so
// the SAT search loops (which poll the flag) notice immediately. The
// returned release func stops the watcher; callers must invoke it.
func watchCancel(ctx context.Context, flag *atomic.Bool) (release func()) {
	if ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			flag.Store(true)
		case <-done:
		}
	}()
	return func() { close(done) }
}

// RepairCtx is Repair with two context roles. First, cancellation: a
// cancelled or deadline-expired ctx stops the repair promptly — the
// cancellation is mirrored onto the portfolio attempts' cooperative
// stop flags, which the SAT search loops poll — and the result reports
// StatusTimeout with whatever solver statistics had accumulated. The
// effective deadline is the earlier of ctx's deadline and
// opts.Timeout. Second, observability (see obs.NewContext): each
// pipeline phase — preprocess, elaborate, concretize, localize,
// portfolio — records a span under a per-call "repair" root in the
// scope's flight recorder, and the repair outcome and aggregate solver
// counters land in the scope's metrics registry. A context without a
// recorder (or context.Background()) records into obs.Default().
func RepairCtx(ctx context.Context, m *verilog.Module, tr *trace.Trace, opts Options) *Result {
	sc := obs.FromContext(ctx)
	if sc.Rec == nil {
		// The flight recorder is always on: callers that did not thread a
		// scope still feed the process-wide ring.
		sc.Rec = obs.Default()
	}
	sc = sc.WithLabel(m.Name).Start("repair")
	startTime := time.Now()
	if opts.Timeout == 0 {
		opts.Timeout = 60 * time.Second
	}
	if opts.Templates == nil {
		opts.Templates = DefaultTemplates()
	}
	if opts.MaxAcceptableChanges == 0 {
		opts.MaxAcceptableChanges = 3
	}
	deadline := startTime.Add(opts.Timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	res := &Result{FirstFailure: -1}
	finish := func() *Result {
		res.Duration = time.Since(startTime)
		attrs := []obs.Attr{obs.Str("design", m.Name), obs.Str("status", res.Status.String()),
			obs.Int("changes", int64(res.Changes))}
		if res.Template != "" {
			attrs = append(attrs, obs.Str("template", res.Template))
		}
		sc.End(attrs...)
		recordRepairMetrics(sc.Metrics, res)
		return res
	}

	// 1+2. Frontend: static-analysis preprocessing (§4.1) plus
	// elaboration, possibly served from a shared pre-built artifact (the
	// serving layer's content-addressed cache).
	fe := opts.Frontend
	if fe == nil {
		fe = newFrontend(sc, m, opts.Lib, opts.NoPreprocess)
	}
	res.Fixes, res.Diagnostics = fe.Fixes, fe.Diagnostics
	if fe.Reason != "" {
		res.Status = StatusCannotRepair
		res.Reason = fe.Reason
		return finish()
	}
	fixed, sys := fe.Fixed, fe.Sys
	if err := ctx.Err(); err != nil {
		res.Status = StatusTimeout
		res.Reason = cancelReason(err)
		return finish()
	}

	// 3. Concretize unknowns and check the current behaviour.
	span := sc.Start("concretize")
	init, ctr := Concretize(sys, tr, opts.Policy, opts.Seed)
	baseRun := runConcrete(sys, ctr, init)
	span.End(obs.Int("cycles", int64(ctr.Len())), obs.Int("first_failure", int64(baseRun.FirstFailure)))
	if baseRun.Passed() {
		if len(res.Fixes) > 0 {
			res.Status = StatusPreprocessed
			res.Repaired = fixed
			res.Changes = len(res.Fixes)
			for _, f := range res.Fixes {
				res.ChangeDescs = append(res.ChangeDescs, f.Desc)
			}
		} else {
			// The synthesized circuit already passes: report "no repair
			// needed" with zero changes (this is how the tool behaves on
			// shift_k1, where it is in fact wrong — see §6.2).
			res.Status = StatusNoRepairNeeded
			res.Repaired = fixed
		}
		return finish()
	}
	res.FirstFailure = baseRun.FirstFailure
	if err := ctx.Err(); err != nil {
		res.Status = StatusTimeout
		res.Reason = cancelReason(err)
		return finish()
	}

	// 4. Fault localization: the cone of influence of the failing
	// output columns, ranked by the static-analysis diagnostics.
	// Templates prune instrumentation sites outside the cone. If the
	// pruned search fails, a second unpruned pass runs, so localization
	// can shrink the SMT problem but never lose a repair.
	if !opts.NoLocalize {
		span := sc.Start("localize")
		res.Localization = analysis.Localize(fixed, opts.Lib,
			failingOutputs(baseRun, ctr), res.Diagnostics)
		if loc := res.Localization; loc != nil {
			span.End(obs.Int("cone", int64(len(loc.Cone))), obs.Int("flagged", int64(len(loc.Flagged))))
		} else {
			span.End()
		}
	}
	passes := []*analysis.Localization{res.Localization}
	if res.Localization != nil {
		passes = append(passes, nil)
	}

	// 5. Template loop (Figure 3): every (localization pass, template)
	// pair is one portfolio attempt. With Workers=1 the attempts run in
	// order on this goroutine — the sequential engine — and with more
	// workers they run concurrently with shared cancellation; the
	// selected repair is identical either way because every attempt is
	// computed on its own context and the selection is a deterministic
	// function of the attempt results.
	runPortfolio(ctx, res, fe, ctr, init, baseRun, deadline, opts, passes, opts.workerCount(), sc)
	return finish()
}

// recordRepairMetrics rolls one repair outcome into a metrics registry.
// The always-aggregated Result.SAT/Result.Certify fields are the source,
// so the registry is complete even when no verbose printing happened.
func recordRepairMetrics(r *obs.Registry, res *Result) {
	r.Add("repair.runs", 1)
	r.Add("repair.status."+res.Status.String(), 1)
	r.ObserveDuration("repair.duration", res.Duration)
	r.Add("sat.conflicts", res.SAT.Conflicts)
	r.Add("sat.decisions", res.SAT.Decisions)
	r.Add("sat.propagations", res.SAT.Propagations)
	r.Add("sat.learned", res.SAT.Learned)
	r.Add("certify.proof_steps", int64(res.Certify.ProofSteps))
	r.Add("certify.check_time_us", res.Certify.CheckTime.Microseconds())
}

// runConcrete executes a trace with a fixed concrete initial state.
// RunAll records every cycle so fault localization can see all
// mismatching output columns, not just the first.
func runConcrete(sys *tsys.System, tr *trace.Trace, init map[string]bv.XBV) *sim.RunResult {
	cs := sim.NewCycleSim(sys, sim.Zero, 0)
	for name, v := range init {
		cs.SetState(name, v)
	}
	return sim.RunTraceFrom(cs, tr, 0, sim.RunOptions{Policy: sim.Zero, RunAll: true})
}

// failingOutputs lists the trace output columns that mismatch in any
// cycle of a RunAll result — the starting points of the cone of
// influence.
func failingOutputs(run *sim.RunResult, tr *trace.Trace) []string {
	var out []string
	for i, sig := range tr.Outputs {
		for c := 0; c < len(run.Outputs) && c < len(tr.OutputRows); c++ {
			if !sim.OutputMatches(tr.OutputRows[c][i], run.Outputs[c][i]) {
				out = append(out, sig.Name)
				break
			}
		}
	}
	return out
}

// verifyRepaired re-elaborates a patched module and checks the trace.
func verifyRepaired(m *verilog.Module, tr *trace.Trace, init map[string]bv.XBV, lib map[string]*verilog.Module) bool {
	sys, _, err := synth.Elaborate(smt.NewContext(), m, synth.Options{Lib: lib})
	if err != nil {
		return false
	}
	// States may differ (e.g. pruning); keep matching names only.
	cs := sim.NewCycleSim(sys, sim.Zero, 0)
	for name, v := range init {
		if sys.StateByName(name) != nil {
			cs.SetState(name, v)
		}
	}
	return sim.RunTraceFrom(cs, tr, 0, sim.RunOptions{Policy: sim.Zero}).Passed()
}

// elaborateInfo re-elaborates just to get template analysis info.
func elaborateInfo(ctx *smt.Context, m *verilog.Module, lib map[string]*verilog.Module) *synth.Info {
	_, info, err := synth.Elaborate(ctx, m, synth.Options{Lib: lib})
	if err != nil {
		return &synth.Info{Widths: map[string]int{}, CombDeps: map[string]map[string]bool{}}
	}
	return info
}
