package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"rtlrepair/internal/bv"
	"rtlrepair/internal/obs"
	"rtlrepair/internal/sat"
	"rtlrepair/internal/smt"
	"rtlrepair/internal/trace"
	"rtlrepair/internal/tsys"
	"rtlrepair/internal/verilog"
)

// RepairMulti repairs a design against several traces simultaneously:
// the synthesis variables are shared across one unrolling per trace, so
// the chosen repair must make every trace pass. Each trace restarts the
// design from its power-on state (this is the CEGIS building block used
// by internal/bmc — counterexample traces all start from reset). Because
// every trace is fully unrolled, this entry is meant for the short
// traces BMC produces, not for 100k-cycle testbenches.
func RepairMulti(m *verilog.Module, traces []*trace.Trace, opts Options) *Result {
	return RepairMultiCtx(context.Background(), m, traces, opts)
}

// RepairMultiCtx is RepairMulti with context-based cancellation: a
// cancelled or deadline-expired ctx interrupts the running SAT query
// (via the solver's cooperative interrupt flag) and the result reports
// StatusTimeout with the partial SAT/certify statistics accumulated so
// far aggregated onto it. The effective deadline is the earlier of
// ctx's deadline and opts.Timeout. It shares RepairCtx's start and
// finish steps, so it honours opts.Frontend and records under ctx's obs
// scope.
func RepairMultiCtx(ctx context.Context, m *verilog.Module, traces []*trace.Trace, opts Options) *Result {
	r, done := startRun(ctx, m, traces, opts)
	if done {
		return r.finish()
	}
	res := r.res
	// The templates run in order, unpruned, each under an "attempt" span
	// labelled p0:<template>, and the first verified repair wins. The
	// stop flag mirrors ctx, so cancelling ctx also interrupts a running
	// query.
	var stop atomic.Bool
	defer watchCancel(ctx, &stop)()
	for _, tmpl := range r.opts.Templates {
		if stop.Load() || ctx.Err() != nil || time.Now().After(r.deadline) {
			res.Status = StatusTimeout
			res.Reason = cancelReason(ctx.Err())
			return r.finish()
		}
		asc := r.sc.WithLabel("p0:" + tmpl.Name()).Start("attempt")
		in, err := r.fe.instrument(tmpl, nil, &r.opts, asc)
		sites := 0
		if err == nil {
			sites = len(in.vars.Phis)
			err = in.elaborate(r.fe, asc)
		}
		var c *Candidate
		if err == nil && in.sys != nil {
			sopts := r.opts.synthOptions(r.deadline, &stop)
			sopts.Obs = asc
			sol, err := solveMultiTrace(in, r.ctrs, r.init, sopts, res)
			if err != nil {
				// A timed-out or cancelled query ends the template loop:
				// the remaining templates share the same exhausted budget.
				// The solver statistics accumulated so far stay on res.
				res.Status = StatusTimeout
				res.Reason = cancelReason(ctx.Err())
			} else if sol != nil {
				c = in.candidate(sol, r.init, r.ctrs...)
			}
		}
		asc.End(obs.Str("template", tmpl.Name()), obs.Int("pass", 0), obs.Int("sites", int64(sites)))
		if c != nil {
			res.setRepair(c)
		}
		if c != nil || res.Status == StatusTimeout {
			return r.finish()
		}
	}
	res.Status = StatusCannotRepair
	res.Reason = "no template found a repair satisfying all traces"
	return r.finish()
}

// solveMultiTrace asserts every trace over its own tagged unrolling of
// the instrumented system and minimizes the shared change count. The
// solver's SAT/certify counters aggregate onto res whether or not a
// solution is found — partial work from a timed-out or cancelled query
// is reported, not dropped.
func solveMultiTrace(in *instrumented, traces []*trace.Trace, init map[string]bv.XBV, sopts SynthOptions, res *Result) (*Solution, error) {
	ctx := in.ctx
	solver := smt.NewSolver(ctx)
	defer func() {
		res.SAT.Add(solver.SATStats())
		res.Certify.Add(solver.CertifyStats())
	}()
	if sopts.Certify {
		solver.EnableCertification()
	}
	solver.SetDeadline(sopts.Deadline)
	solver.SetInterrupt(sopts.Interrupt)
	solver.SetObs(sopts.Obs)

	initTerms := map[*smt.Term]*smt.Term{}
	for _, st := range in.sys.States {
		v, ok := init[st.Var.Name]
		if !ok {
			return nil, fmt.Errorf("core: missing init for %q", st.Var.Name)
		}
		initTerms[st.Var] = ctx.Const(v.Val)
	}

	for ti, tr := range traces {
		u := tsys.UnrollTagged(ctx, in.sys, tr.Len()-1, initTerms, fmt.Sprintf("t%d", ti), traceInputs(ctx, tr, 0))
		for k := 0; k < tr.Len(); k++ {
			assertExpected(ctx, solver, tr, k, u, k)
		}
	}

	check := func(assumptions ...*smt.Term) (sat.Status, error) {
		st, err := solver.Check(assumptions...)
		return st, stopCause(err)
	}
	st, err := check()
	if err != nil {
		return nil, err
	}
	if st != sat.Sat {
		return nil, nil
	}
	best, _, err := minimalModel(ctx, solver, in.vars, sopts.NoMinimize, check)
	if err != nil {
		return nil, err
	}
	return &Solution{Assign: best, Changes: in.vars.Changes(best)}, nil
}
