package core

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rtlrepair/internal/analysis"
	"rtlrepair/internal/obs"
	"rtlrepair/internal/smt"
	"rtlrepair/internal/verilog"
)

// The portfolio engine runs the template loop of Figure 3 as a set of
// concurrent attempts, one per (localization pass, template) pair. Each
// attempt owns its own smt.Context — layered on the frontend's frozen
// elaboration context, so shared subcircuits are reused by pointer
// rather than re-interned — and a cooperative stop flag that sibling
// attempts set once their result makes this one irrelevant:
//
//   - an acceptable repair (Σφ ≤ maxAcceptableChanges) at (pass, i)
//     cancels the same pass's templates after i and every later pass;
//   - a large (fallback) repair cancels every later pass, because the
//     sequential engine never starts the unpruned pass once any repair
//     exists.
//
// An unpruned retry whose template keeps every site of its pruned
// attempt is skipped with ErrSameSites (see samePruned).
//
// Workers claim attempts in declaration order from one shared counter
// and share one prefix-snapshot cache (see prefix.go). Selection happens
// only after every attempt has finished (or been cancelled), by the
// sequential engine's precedence: earliest acceptable template of the
// earliest pass, else the smallest fallback. The outcome is therefore
// deterministic — independent of worker count and goroutine scheduling.

// Candidate is one verified repair: the patched module re-elaborates
// and passes every trace. Each portfolio attempt that finds a repair
// holds one, as does RepairMulti's template loop, and the selected one
// becomes the run's result.
type Candidate struct {
	Repaired    *verilog.Module
	Changes     int
	Template    string
	ChangeDescs []string
}

// ErrSameSites is the Err of an unpruned retry that was skipped because
// its template kept the same sites with and without localization: its
// search would repeat the pruned attempt's.
var ErrSameSites = errors.New("core: same sites as pruned pass")

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
	candidate *Candidate // verified repair (acceptable or fallback), nil otherwise
}

type portfolio struct {
	r        *run
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
	return min(runtime.NumCPU(), runtime.GOMAXPROCS(0))
}

// runPortfolio fills the run's result with the outcome of running
// every (pass, template) attempt concurrently on at most the run's
// worker count. The result already carries the preprocessing and
// localization results. A cancelled ctx is mirrored onto every attempt's
// cooperative stop flag, so running SAT searches abort at their next
// poll; the per-attempt statistics accumulated up to that point still
// aggregate onto the result.
func (r *run) runPortfolio(passes []*analysis.Localization) {
	res := r.res
	p := &portfolio{r: r, prefix: NewPrefixCache(r.fe.Sys, r.ctrs[0], r.init)}
	for pi, loc := range passes {
		for ti, tmpl := range r.opts.Templates {
			p.attempts = append(p.attempts, &attempt{pass: pi, tmplIdx: ti, tmpl: tmpl, loc: loc})
		}
	}
	// The goroutine count is the speculation throttle.
	workers := min(r.opts.workerCount(), speculationCapacity(), len(p.attempts))
	p.obs = r.sc.Start("portfolio")
	defer func() {
		p.obs.End(obs.Int("workers", int64(workers)), obs.Int("attempts", int64(len(p.attempts))))
	}()

	stops := make([]*atomic.Bool, len(p.attempts))
	for i, at := range p.attempts {
		stops[i] = &at.stop
	}
	defer watchCancel(r.ctx, stops...)()

	// In-order claiming: an idle worker always takes the highest-priority
	// pending attempt, so the attempts start in the sequential engine's
	// order. Worker 0 is this goroutine; with one worker the loop is the
	// sequential engine, where an acceptable repair marks every later
	// attempt stopped and they return immediately.
	wallStart := time.Now()
	var next atomic.Int64
	work := func(w int) {
		// The worker's one window solver: every attempt it claims resets
		// it rather than building a new one, so the solver's storage is
		// allocated once per worker, not once per attempt.
		solver := smt.NewSolver(r.fe.ctx)
		for {
			i := int(next.Add(1)) - 1
			if i >= len(p.attempts) {
				return
			}
			p.runAttempt(p.attempts[i], w, solver)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
	wall := time.Since(wallStart)

	var busy time.Duration
	for _, at := range p.attempts {
		res.PerTemplate = append(res.PerTemplate, at.tres)
		res.SAT.Add(at.tres.Stats.SAT)
		res.Certify.Add(at.tres.Stats.Certify)
		if at.tres.State != AttemptSkipped {
			busy += at.tres.Duration
		}
	}
	// Scheduler health metrics: the shared-prefix cache's work and
	// worker utilization (busy attempt time over workers × wall). These
	// land in the run's metrics registry, so serve-mode exposes them on
	// /metricsz.
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
			if at.candidate.Changes <= maxAcceptableChanges {
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
			res.setRepair(pick.candidate)
			res.Window = pick.tres.Stats.FinalWindow
			return
		}
	}
	// No repair. A cancelled context, an expired deadline, or any attempt
	// that was cut short (solver deadline, cooperative cancellation) all
	// mean the search did not run to completion: report StatusTimeout,
	// with the partial SAT/certify statistics already aggregated above.
	// (Sibling cancellation cannot reach here — it only happens after a
	// candidate was stored, which returns StatusRepaired.)
	if r.cancelled() {
		return
	}
	if time.Now().After(r.deadline) {
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
// the frontend's frozen context — and synthesis variable namespace, and
// on the worker's solver, which the attempt's window encoding resets.
// On success it stores a verified candidate and cancels the siblings the
// sequential engine would never have run.
func (p *portfolio) runAttempt(at *attempt, worker int, solver *smt.Solver) {
	at.tres = TemplateResult{Template: at.tmpl.Name(), Localized: at.loc != nil,
		Worker: worker, State: AttemptRan}
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
			obs.Str("state", at.tres.State))
		p.obs.Metrics.Add(fmt.Sprintf("portfolio.worker.%d.busy_us", worker),
			at.tres.Duration.Microseconds())
		p.obs.Metrics.Add("portfolio.attempts", 1)
		p.obs.Metrics.Add("portfolio.attempts."+at.tres.State, 1)
	}()

	if at.stop.Load() {
		at.tres.State = AttemptSkipped
		at.tres.Err = ErrCancelled
		return
	}
	r := p.r
	if time.Now().After(r.deadline) {
		at.tres.State = AttemptSkipped
		at.tres.Err = ErrTimeout
		return
	}

	in, err := r.fe.instrument(at.tmpl, at.loc, &r.opts, asc)
	if err != nil {
		at.tres.Err = err
		return
	}
	at.tres.Sites = len(in.vars.Phis)
	if at.pass > 0 && p.samePruned(at, in.vars) {
		at.tres.State = AttemptSkipped
		at.tres.Err = ErrSameSites
		return
	}
	if err = in.elaborate(r.fe, asc); err != nil || in.sys == nil {
		at.tres.Err = err
		return
	}
	sopts := r.opts.synthOptions(r.deadline, &at.stop)
	sopts.SharedPrefix = p.prefix
	sopts.Obs = asc
	synthz := NewSynthesizer(in.ctx, in.sys, in.vars, r.ctrs[0], r.init, sopts)
	var sol *Solution
	if r.opts.Basic {
		sol, err = synthz.Basic()
	} else {
		synthz.solver = solver
		sol, err = synthz.Windowed(r.res.FirstFailure)
	}
	at.tres.Stats = synthz.Stats
	if err != nil {
		at.tres.Err = err
		if errors.Is(err, ErrCancelled) {
			at.tres.State = AttemptCancelled
		}
		return
	}
	if sol == nil {
		return
	}
	at.tres.Found = true
	at.tres.Changes = sol.Changes
	if at.candidate = in.candidate(sol, r.init, r.ctrs[0]); at.candidate != nil {
		p.cancelSiblings(at)
	}
}

// samePruned reports whether the unpruned retry at, whose template
// instrumented vars, keeps exactly the sites of the same template's
// pruned attempt. Localization acts on a template only through
// Env.InCone, so equal φ and α lists mean an identical instrumented
// module and the same search as the pruned attempt, which selection
// always ranks ahead. The pruned site list is rebuilt here, inside the
// attempt, rather than read from the pruned attempt, which may not have
// run yet.
func (p *portfolio) samePruned(at *attempt, vars *VarTable) bool {
	_, pruned, err := p.r.fe.sites(at.tmpl, p.r.res.Localization, &p.r.opts)
	return err == nil && slices.Equal(pruned.Phis, vars.Phis) && slices.Equal(pruned.Alphas, vars.Alphas)
}

// cancelSiblings stops every attempt whose result provably cannot win
// the selection once at's candidate exists. Attempts that might still
// beat it — earlier templates of the same pass, or any template of an
// earlier pass — keep running.
func (p *portfolio) cancelSiblings(at *attempt) {
	acceptable := at.candidate.Changes <= maxAcceptableChanges
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
