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
	// Frozen names signals whose driving logic must not be repaired.
	// Used with BMC counterexample traces so the property expression
	// itself cannot be weakened (see internal/bmc).
	Frozen []string
	// Workers is the number of concurrent portfolio workers running the
	// (localization pass, template) attempts. 0 picks one worker per
	// available CPU; 1 runs the attempts on the exact sequential engine.
	// At most min(NumCPU, GOMAXPROCS) workers start.
	// The selected repair is identical either way — only wall-clock time
	// changes.
	Workers int
	// Certify runs every SMT query in self-certifying mode: Unsat
	// verdicts are re-checked against a DRUP proof by an independent
	// forward checker, and Sat models are re-evaluated by the reference
	// interpreter. A failed check panics, since it means the solver gave
	// an unsound answer.
	Certify bool
	// Frontend, when non-nil, supplies a pre-built preprocess+elaborate
	// artifact for this exact design (see NewFrontend): the repair skips
	// the frontend phases and reuses the artifact's elaborated system and
	// template-analysis info. The serving layer caches Frontends by
	// content hash so re-repairs of the same design with a new trace pay
	// no frontend cost. The artifact must have been built from the same
	// module and lib with the same NoPreprocess setting.
	Frontend *Frontend
}

// maxAcceptableChanges is Figure 3's Σφ > 3 rule: larger repairs are
// kept only as fallbacks while smaller templates are tried.
const maxAcceptableChanges = 3

// prepare fills in the default timeout (60 s, as in §6.3) and template
// sequence, and returns the run's deadline: the earlier of ctx's
// deadline and start plus the timeout.
func (o *Options) prepare(ctx context.Context, start time.Time) time.Time {
	if o.Timeout == 0 {
		o.Timeout = 60 * time.Second
	}
	if o.Templates == nil {
		o.Templates = DefaultTemplates()
	}
	deadline := start.Add(o.Timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	return deadline
}

// synthOptions returns the synthesis options of one attempt of the run:
// its seed, deadline and stop flag, the minimization and certification
// switches, and the single-repair flow's sample budget.
func (o *Options) synthOptions(deadline time.Time, stop *atomic.Bool) SynthOptions {
	return SynthOptions{Seed: o.Seed, Deadline: deadline, MaxSamples: samplesPerWindow,
		NoMinimize: o.NoMinimize, Interrupt: stop, Certify: o.Certify}
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
	// AttemptSkipped: the attempt never searched. Either it was
	// cancelled or the deadline expired before a worker picked it up
	// (Err is ErrCancelled or ErrTimeout), or it is an unpruned retry
	// whose template kept the pruned attempt's sites (Err is
	// ErrSameSites). Its Duration is scheduling noise or
	// instrumentation, not search work, and must be excluded from
	// speedup math.
	AttemptSkipped = "skipped"
)

// TemplateResult records one portfolio attempt of a repair run: one
// (localization pass, template) pair, whether it ran, was cancelled by
// a sibling's repair, or was skipped.
type TemplateResult struct {
	Template string
	Found    bool
	Changes  int
	// Sites is the number of φ variables the template instrumented
	// (after fault-localization pruning, when active). A retry skipped
	// with ErrSameSites reports the sites it shares with its pruned
	// attempt; an attempt skipped before it started reports 0.
	Sites int
	// Localized is true when the attempt ran with localization pruning.
	Localized bool
	Duration  time.Duration
	Err       error
	Stats     SynthStats
	// Worker is the portfolio worker that ran the attempt (0 when
	// sequential).
	Worker int
	// State is AttemptRan, AttemptCancelled, or AttemptSkipped.
	State string
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
	// a failure in more detail (it sees all problems at once where
	// elaboration stops at the first).
	span := sc.Start("elaborate")
	sctx := smt.NewContext()
	sys, info, err := synth.Elaborate(sctx, fe.Fixed, synth.Options{Lib: fe.Lib})
	if err != nil {
		span.End()
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
	span.End(obs.Int("states", int64(len(sys.States))), obs.Int("outputs", int64(len(sys.Outputs))))
	fe.Sys = sys
	fe.Info = info
	// Freeze the elaboration context now, on the constructing goroutine:
	// portfolio attempts — possibly of many concurrent repairs sharing
	// one cached Frontend — clone it without further writes.
	sctx.Freeze()
	fe.ctx = sctx
	return fe
}

// instrumented is one template applied to a frontend's design: the
// instrumented source, the synthesis variables it introduced, and its
// elaboration.
type instrumented struct {
	tmpl Template
	src  *verilog.Module
	vars *VarTable
	ctx  *smt.Context
	sys  *tsys.System // nil when the template found no site
	lib  map[string]*verilog.Module
}

// instrument applies tmpl to the preprocessed design, with sites outside
// loc pruned (nil loc prunes nothing), under an "instrument" span. The
// result is nil only when instrumentation fails.
func (fe *Frontend) instrument(tmpl Template, loc *analysis.Localization, opts *Options, sc obs.Scope) (*instrumented, error) {
	span := sc.Start("instrument")
	src, vars, err := fe.sites(tmpl, loc, opts)
	span.End(obs.Int("sites", int64(len(vars.Phis))))
	if err != nil {
		return nil, err
	}
	return &instrumented{tmpl: tmpl, src: src, vars: vars, lib: opts.Lib}, nil
}

// sites runs tmpl's instrumentation pass on the preprocessed design,
// with sites outside loc pruned, and returns the instrumented source and
// the synthesis variables it introduced. Variable names are numbered
// from 0 on every call, so two calls that keep the same sites return
// equal tables.
func (fe *Frontend) sites(tmpl Template, loc *analysis.Localization, opts *Options) (*verilog.Module, *VarTable, error) {
	counter := 0
	vars := NewVarTable(&counter)
	env := &Env{Info: fe.Info, Lib: opts.Lib, Frozen: opts.frozenSet(), Loc: loc}
	src, err := tmpl.Instrument(fe.Fixed, env, vars)
	return src, vars, err
}

// elaborate elaborates the instrumented source, under an "elaborate"
// span, on a context layered over fe's frozen one, so elaboration
// re-interns only what the template changed and shares the rest of the
// term DAG. A template that found no site is not elaborated and keeps a
// nil sys.
func (in *instrumented) elaborate(fe *Frontend, sc obs.Scope) error {
	if in.vars.Empty() {
		return nil
	}
	in.ctx = fe.ctx.Clone()
	span := sc.Start("elaborate")
	sys, _, err := synth.Elaborate(in.ctx, in.src, synth.Options{Lib: in.lib})
	span.End()
	if err != nil {
		return err
	}
	in.sys = sys
	return nil
}

// candidate resolves a solution into the instrumented source and checks
// the patched module as the final guard: it must re-elaborate and pass
// every trace from the concrete initial state init. It returns nil when
// either fails.
func (in *instrumented) candidate(sol *Solution, init map[string]bv.XBV, traces ...*trace.Trace) *Candidate {
	repaired, err := Resolve(in.src, sol.Assign)
	if err != nil {
		return nil
	}
	sys, _, err := synth.Elaborate(smt.NewContext(), repaired, synth.Options{Lib: in.lib})
	if err != nil {
		return nil
	}
	prog := sim.Compile(sys)
	for _, tr := range traces {
		// States may differ (e.g. pruning); keep matching names only.
		cs := sim.NewSim(prog, sim.Zero, 0)
		for name, v := range init {
			if sys.StateByName(name) != nil {
				cs.SetState(name, v)
			}
		}
		if !sim.RunTraceFrom(cs, tr, 0, sim.RunOptions{Policy: sim.Zero}).Passed() {
			return nil
		}
	}
	return &Candidate{Repaired: repaired, Changes: sol.Changes, Template: in.tmpl.Name(),
		ChangeDescs: in.vars.EnabledDescs(sol.Assign)}
}

// setRepair records c as the run's repair.
func (res *Result) setRepair(c *Candidate) {
	res.Status = StatusRepaired
	res.Repaired, res.Changes, res.Template, res.ChangeDescs = c.Repaired, c.Changes, c.Template, c.ChangeDescs
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

// watchCancel mirrors ctx cancellation onto cooperative stop flags so
// the SAT search loops (which poll the flags) notice immediately rather
// than at the next wall-clock deadline check. The returned release func
// stops the watcher; callers must invoke it.
func watchCancel(ctx context.Context, flags ...*atomic.Bool) (release func()) {
	if ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			for _, flag := range flags {
				flag.Store(true)
			}
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
	r, done := startRun(ctx, m, []*trace.Trace{tr}, opts)
	if done {
		return r.finish()
	}
	res := r.res

	// 4. Fault localization: the cone of influence of the failing
	// output columns, ranked by the static-analysis diagnostics.
	// Templates prune instrumentation sites outside the cone. If the
	// pruned search fails, a second unpruned pass runs, so localization
	// can shrink the SMT problem but never lose a repair. A template
	// whose unpruned sites equal its pruned ones skips that retry: its
	// search would repeat the pruned one.
	if !r.opts.NoLocalize {
		span := r.sc.Start("localize")
		res.Localization = analysis.Localize(r.fe.Fixed, r.opts.Lib,
			failingOutputs(r.base, r.ctrs[0]), res.Diagnostics)
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
	r.runPortfolio(passes)
	return r.finish()
}

// run is the per-call state every repair entry shares: the options with
// their defaults filled in, the root "repair" span, the frontend, the
// traces concretized from trace 0's initial state, the base run of the
// first failing trace, and the result being built.
type run struct {
	ctx      context.Context
	design   string
	opts     Options
	sc       obs.Scope // the root "repair" span
	start    time.Time
	deadline time.Time
	fe       *Frontend
	init     map[string]bv.XBV
	ctrs     []*trace.Trace
	base     *sim.RunResult
	res      *Result
}

// startRun is the start step of every repair entry. It opens the root
// "repair" span under ctx's obs scope, fills in the option defaults,
// takes opts.Frontend or builds the frontend, concretizes every trace
// from trace 0's initial state and runs the base checks. It reports done
// when the verdict is settled before any template runs: CannotRepair on
// a failed frontend, Timeout on a done ctx, and Preprocessed or
// NoRepairNeeded when every trace passes.
func startRun(ctx context.Context, m *verilog.Module, traces []*trace.Trace, opts Options) (r *run, done bool) {
	sc := obs.FromContext(ctx)
	if sc.Rec == nil {
		// The flight recorder is always on: callers that did not thread a
		// scope still feed the process-wide ring.
		sc.Rec = obs.Default()
	}
	r = &run{ctx: ctx, design: m.Name, opts: opts, sc: sc.WithLabel(m.Name).Start("repair"),
		start: time.Now(), res: &Result{FirstFailure: -1}}
	r.deadline = r.opts.prepare(ctx, r.start)
	res := r.res

	// 1+2. Frontend: static-analysis preprocessing (§4.1) plus
	// elaboration, possibly served from a shared pre-built artifact (the
	// serving layer's content-addressed cache).
	if r.fe = opts.Frontend; r.fe == nil {
		r.fe = newFrontend(r.sc, m, opts.Lib, opts.NoPreprocess)
	}
	res.Fixes, res.Diagnostics = r.fe.Fixes, r.fe.Diagnostics
	if r.fe.Reason != "" {
		res.Status = StatusCannotRepair
		res.Reason = r.fe.Reason
		return r, true
	}
	if r.cancelled() {
		return r, true
	}

	// 3. Concretize unknowns and check the current behaviour on every
	// trace, each started from trace 0's initial state.
	span := r.sc.Start("concretize")
	cycles := 0
	for i, tr := range traces {
		init, ctr := Concretize(r.fe.Sys, tr, opts.Policy, opts.Seed)
		if i == 0 {
			r.init = init
		}
		r.ctrs = append(r.ctrs, ctr)
		cycles += ctr.Len()
	}
	for _, ctr := range r.ctrs {
		if r.base = runConcrete(r.fe.Sys, ctr, r.init); !r.base.Passed() {
			res.FirstFailure = r.base.FirstFailure
			break
		}
	}
	span.End(obs.Int("cycles", int64(cycles)), obs.Int("first_failure", int64(res.FirstFailure)))
	if res.FirstFailure < 0 {
		res.Repaired = r.fe.Fixed
		if len(res.Fixes) > 0 {
			res.Status = StatusPreprocessed
			res.Changes = len(res.Fixes)
			for _, f := range res.Fixes {
				res.ChangeDescs = append(res.ChangeDescs, f.Desc)
			}
		} else {
			// The synthesized circuit already passes: report "no repair
			// needed" with zero changes (this is how the tool behaves on
			// shift_k1, where it is in fact wrong — see §6.2).
			res.Status = StatusNoRepairNeeded
		}
		return r, true
	}
	return r, r.cancelled()
}

// cancelled settles Timeout and reports true once the run's ctx is done.
func (r *run) cancelled() bool {
	err := r.ctx.Err()
	if err != nil {
		r.res.Status = StatusTimeout
		r.res.Reason = cancelReason(err)
	}
	return err != nil
}

// finish is the finish step of every repair entry: it stamps the run's
// duration, ends the root span with the verdict and rolls the result
// into the scope's metrics registry.
func (r *run) finish() *Result {
	res := r.res
	res.Duration = time.Since(r.start)
	attrs := []obs.Attr{obs.Str("design", r.design), obs.Str("status", res.Status.String()),
		obs.Int("changes", int64(res.Changes))}
	if res.Template != "" {
		attrs = append(attrs, obs.Str("template", res.Template))
	}
	r.sc.End(attrs...)
	recordRepairMetrics(r.sc.Metrics, res)
	return res
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
