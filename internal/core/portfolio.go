package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rtlrepair/internal/analysis"
	"rtlrepair/internal/bv"
	"rtlrepair/internal/obs"
	"rtlrepair/internal/sim"
	"rtlrepair/internal/smt"
	"rtlrepair/internal/synth"
	"rtlrepair/internal/trace"
)

// The portfolio engine runs the template loop of Figure 3 as a set of
// concurrent attempts, one per (localization pass, template) pair. Each
// attempt owns its own smt.Context — layered on the frontend's frozen
// elaboration context, so shared subcircuits are reused by pointer
// rather than re-interned — and a cooperative stop flag that sibling
// attempts set once their result makes this one irrelevant:
//
//   - an acceptable repair (Σφ ≤ MaxAcceptableChanges) at (pass, i)
//     cancels the same pass's templates after i and every later pass;
//   - a large (fallback) repair cancels every later pass, because the
//     sequential engine never starts the unpruned pass once any repair
//     exists.
//
// Attempts are scheduled by a work-stealing scheduler with a
// speculation throttle (see steal.go) and share one prefix-snapshot
// cache (see prefix.go). Selection happens only after
// every attempt has finished (or been cancelled), by the sequential
// engine's precedence: earliest acceptable template of the earliest
// pass, else the smallest fallback. The outcome is therefore
// deterministic — independent of worker count and goroutine scheduling.

// attempt is one (localization pass, template) portfolio entry.
type attempt struct {
	pass    int
	tmplIdx int
	tmpl    Template
	loc     *analysis.Localization

	// stop cancels the attempt cooperatively; the SAT search loop polls
	// it. Siblings only ever set it to true.
	stop atomic.Bool

	tres      TemplateResult
	candidate *Result // verified repair (acceptable or fallback), nil otherwise
}

type portfolio struct {
	fe       *Frontend
	ctr      *trace.Trace
	init     map[string]bv.XBV
	baseRun  *sim.RunResult
	deadline time.Time
	opts     Options
	attempts []*attempt
	prefix   *PrefixCache // shared encode prefix (window start states)
	obs      obs.Scope    // the "portfolio" span's scope
}

// workerCount resolves the Workers knob: 0 picks one worker per
// available CPU; 1 selects the exact sequential engine.
func (o *Options) workerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// speculationCapacity is the most attempts worth running at once: one
// per core the Go scheduler may actually use. Beyond that, extra
// attempts cannot overlap — they only time-slice against the attempt
// that is about to win and cancel them.
func speculationCapacity() int {
	c := runtime.NumCPU()
	if g := runtime.GOMAXPROCS(0); g < c {
		c = g
	}
	return c
}

// runPortfolio fills res with the outcome of running every
// (pass, template) attempt concurrently on the given number of workers.
// res already carries the preprocessing/localization results. A
// cancelled ctx is mirrored onto every attempt's cooperative stop flag,
// so running SAT searches abort at their next poll; the per-attempt
// statistics accumulated up to that point still aggregate onto res.
func runPortfolio(ctx context.Context, res *Result, fe *Frontend,
	ctr *trace.Trace, init map[string]bv.XBV, baseRun *sim.RunResult,
	deadline time.Time, opts Options, passes []*analysis.Localization, workers int,
	sc obs.Scope) {

	p := &portfolio{
		fe:       fe,
		ctr:      ctr,
		init:     init,
		baseRun:  baseRun,
		deadline: deadline,
		opts:     opts,
		prefix:   NewPrefixCache(fe.Sys, ctr, init),
	}
	for pi, loc := range passes {
		for ti, tmpl := range opts.Templates {
			p.attempts = append(p.attempts, &attempt{pass: pi, tmplIdx: ti, tmpl: tmpl, loc: loc})
		}
	}
	if workers > len(p.attempts) {
		workers = len(p.attempts)
	}
	p.obs = sc.Start("portfolio")
	var steals int64
	defer func() {
		p.obs.End(obs.Int("workers", int64(workers)), obs.Int("attempts", int64(len(p.attempts))),
			obs.Int("steals", steals))
	}()

	// Mirror context cancellation onto every attempt's stop flag: the
	// SAT loops poll the flags, so cancellation is immediate rather than
	// waiting for the next wall-clock deadline check.
	if ctx != nil && ctx.Done() != nil {
		watcher := make(chan struct{})
		defer close(watcher)
		go func() {
			select {
			case <-ctx.Done():
				for _, at := range p.attempts {
					at.stop.Store(true)
				}
			case <-watcher:
			}
		}()
	}

	wallStart := time.Now()
	if workers <= 1 {
		// Sequential engine: attempts run in declaration order on this
		// goroutine. Cancellation still applies — an acceptable repair
		// marks every later same-pass template and every later pass, so
		// those attempts return immediately, reproducing the sequential
		// early exit.
		for _, at := range p.attempts {
			p.runAttempt(at, 0, false)
		}
	} else {
		sched := newStealScheduler(len(p.attempts), workers, speculationCapacity())
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for {
					idx, stolen, ok := sched.next(w)
					if !ok {
						return
					}
					p.runAttempt(p.attempts[idx], w, stolen)
					sched.finish()
				}
			}(w)
		}
		wg.Wait()
		steals = sched.stealCount()
	}
	wall := time.Since(wallStart)

	var busy time.Duration
	for _, at := range p.attempts {
		res.PerTemplate = append(res.PerTemplate, at.tres)
		res.SAT.Add(at.tres.Stats.SAT)
		res.Certify.Add(at.tres.Stats.Certify)
		res.Abs.Add(at.tres.Stats.Abs)
		res.Shadow.Add(at.tres.Stats.Shadow)
		if at.tres.State != AttemptSkipped {
			busy += at.tres.Duration
		}
	}
	// Scheduler health metrics: steals, the shared-prefix cache's work,
	// and worker utilization (busy attempt time over workers × wall).
	// These land in the run's metrics registry, so serve-mode exposes
	// them on /metricsz.
	p.obs.Metrics.Add("portfolio.steals", steals)
	sim, hits := p.prefix.Counters()
	p.obs.Metrics.Add("portfolio.prefix.cycles", sim)
	p.obs.Metrics.Add("portfolio.prefix.hits", hits)
	if wall > 0 && workers > 0 {
		util := 100 * float64(busy) / (float64(wall) * float64(workers))
		p.obs.Metrics.SetGauge("portfolio.utilization_pct", util)
	}

	// Deterministic selection, mirroring the sequential engine: within a
	// pass an acceptable repair beats any fallback; across passes the
	// earliest pass with any repair wins (the sequential engine breaks
	// before the unpruned pass once a fallback exists).
	for pi := range passes {
		var acc, fb *attempt
		for _, at := range p.attempts {
			if at.pass != pi || at.candidate == nil {
				continue
			}
			if at.candidate.Changes <= opts.MaxAcceptableChanges {
				if acc == nil {
					acc = at
				}
			} else if fb == nil || at.candidate.Changes < fb.candidate.Changes {
				fb = at
			}
		}
		pick := acc
		if pick == nil {
			pick = fb
		}
		if pick != nil {
			c := pick.candidate
			res.Status = StatusRepaired
			res.Repaired = c.Repaired
			res.Changes = c.Changes
			res.Template = c.Template
			res.ChangeDescs = c.ChangeDescs
			res.Window = c.Window
			return
		}
	}
	// No repair. A cancelled context, an expired deadline, or any attempt
	// that was cut short (solver deadline, cooperative cancellation) all
	// mean the search did not run to completion: report StatusTimeout,
	// with the partial SAT/certify statistics already aggregated above.
	// (Sibling cancellation cannot reach here — it only happens after a
	// candidate was stored, which returns StatusRepaired.)
	if ctx != nil && ctx.Err() != nil {
		res.Status = StatusTimeout
		res.Reason = cancelReason(ctx.Err())
		return
	}
	if time.Now().After(deadline) {
		res.Status = StatusTimeout
		res.Reason = "timeout"
		return
	}
	for _, at := range p.attempts {
		if errors.Is(at.tres.Err, ErrTimeout) || errors.Is(at.tres.Err, ErrCancelled) {
			res.Status = StatusTimeout
			res.Reason = "timeout"
			return
		}
	}
	res.Status = StatusCannotRepair
	res.Reason = "no template found a repair"
}

// runAttempt executes one attempt on its own smt.Context — a layer over
// the frontend's frozen context — and synthesis variable namespace. On
// success it stores a verified candidate and cancels the siblings the
// sequential engine would never have run.
func (p *portfolio) runAttempt(at *attempt, worker int, stolen bool) {
	at.tres = TemplateResult{Template: at.tmpl.Name(), Localized: at.loc != nil,
		Worker: worker, Stolen: stolen, State: AttemptRan}
	start := time.Now()
	// The attempt scope is labelled by (pass, template) — stable across
	// worker counts and scheduling — and carries the worker lane. Worker
	// busy time accumulates on a per-worker counter so the registry shows
	// the portfolio's load balance.
	key := fmt.Sprintf("p%d:%s", at.pass, at.tmpl.Name())
	psc := p.obs.WithLabel(key)
	psc.Worker = worker
	asc := psc.Start("attempt")
	defer func() {
		at.tres.Duration = time.Since(start)
		asc.End(obs.Str("template", at.tmpl.Name()), obs.Int("pass", int64(at.pass)),
			obs.Int("sites", int64(at.tres.Sites)), obs.Bool("found", at.tres.Found),
			obs.Bool("cancelled", at.tres.Cancelled), obs.Str("state", at.tres.State))
		p.obs.Metrics.Add(fmt.Sprintf("portfolio.worker.%d.busy_us", worker),
			at.tres.Duration.Microseconds())
		p.obs.Metrics.Add("portfolio.attempts", 1)
		p.obs.Metrics.Add("portfolio.attempts."+at.tres.State, 1)
	}()

	if at.stop.Load() {
		at.tres.State = AttemptSkipped
		at.tres.Cancelled = true
		at.tres.Err = ErrCancelled
		return
	}
	if time.Now().After(p.deadline) {
		at.tres.State = AttemptSkipped
		at.tres.Err = ErrTimeout
		return
	}

	ctx := smt.NewContext()
	if p.fe != nil && p.fe.ctx != nil {
		// Layer the attempt's context over the frontend's frozen one:
		// elaborating the instrumented module then re-interns only what
		// the template changed, sharing the rest of the term DAG.
		ctx = p.fe.ctx.Clone()
	}
	counter := 0
	vars := NewVarTable(&counter)
	env := &Env{Info: p.fe.Info, Lib: p.opts.Lib, Frozen: p.opts.frozenSet(), Loc: at.loc}
	ispan := asc.Start("instrument")
	instr, err := at.tmpl.Instrument(p.fe.Fixed, env, vars)
	ispan.End(obs.Int("sites", int64(len(vars.Phis))))
	if err != nil {
		at.tres.Err = err
		return
	}
	at.tres.Sites = len(vars.Phis)
	if vars.Empty() {
		return
	}
	espan := asc.Start("elaborate")
	isys, _, err := synth.Elaborate(ctx, instr, synth.Options{Lib: p.opts.Lib})
	espan.End()
	if err != nil {
		at.tres.Err = err
		return
	}
	sopts := DefaultSynthOptions()
	sopts.Policy = p.opts.Policy
	sopts.Seed = p.opts.Seed
	sopts.Deadline = p.deadline
	sopts.NoMinimize = p.opts.NoMinimize
	sopts.Interrupt = &at.stop
	sopts.Certify = p.opts.Certify
	sopts.NoAbsint = p.opts.NoAbsint
	sopts.ShadowCNF = p.opts.ShadowCNF
	sopts.SharedPrefix = p.prefix
	sopts.Obs = asc
	synthz := NewSynthesizer(ctx, isys, vars, p.ctr, p.init, sopts)
	var sol *Solution
	if p.opts.Basic {
		sol, err = synthz.Basic()
	} else {
		sol, err = synthz.Windowed(p.baseRun.FirstFailure)
	}
	at.tres.Stats = synthz.Stats
	if err != nil {
		at.tres.Err = err
		if errors.Is(err, ErrCancelled) {
			at.tres.Cancelled = true
			at.tres.State = AttemptCancelled
		}
		return
	}
	if sol == nil {
		return
	}
	at.tres.Found = true
	at.tres.Changes = sol.Changes

	repaired, rerr := Resolve(instr, sol.Assign)
	if rerr != nil {
		return
	}
	// Final guard: the patched source must re-elaborate and pass.
	if !verifyRepaired(repaired, p.ctr, p.init, p.opts.Lib) {
		return
	}
	at.candidate = &Result{
		Status:      StatusRepaired,
		Repaired:    repaired,
		Changes:     sol.Changes,
		Template:    at.tmpl.Name(),
		ChangeDescs: vars.EnabledDescs(sol.Assign),
		Window:      synthz.Stats.FinalWindow,
	}
	p.cancelSiblings(at)
}

// cancelSiblings stops every attempt whose result provably cannot win
// the selection once at's candidate exists. Attempts that might still
// beat it — earlier templates of the same pass, or any template of an
// earlier pass — keep running.
func (p *portfolio) cancelSiblings(at *attempt) {
	acceptable := at.candidate.Changes <= p.opts.MaxAcceptableChanges
	for _, other := range p.attempts {
		if other == at {
			continue
		}
		if other.pass > at.pass ||
			(acceptable && other.pass == at.pass && other.tmplIdx > at.tmplIdx) {
			other.stop.Store(true)
		}
	}
}
