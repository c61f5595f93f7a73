package core

import (
	"context"
	"sync/atomic"
	"time"

	"rtlrepair/internal/obs"
	"rtlrepair/internal/trace"
	"rtlrepair/internal/verilog"
)

// Candidate is one alternative repair produced by RepairAll.
type Candidate struct {
	Repaired    *verilog.Module
	Changes     int
	Template    string
	ChangeDescs []string
}

// RepairAll implements the extension suggested in §6.4: instead of
// returning the first minimal repair, it samples up to maxCandidates
// distinct trace-passing repairs across all templates so a user can pick
// the one matching their intent. Candidates are ordered by (changes,
// template order) and deduplicated by their repaired source text.
func RepairAll(m *verilog.Module, tr *trace.Trace, opts Options, maxCandidates int) []Candidate {
	return RepairAllCtx(context.Background(), m, tr, opts, maxCandidates)
}

// RepairAllCtx is RepairAll with context-based cancellation: a cancelled
// or deadline-expired ctx stops the sampling promptly (the cancellation
// trips the SAT search's cooperative interrupt flag) and the candidates
// collected so far are returned. The effective deadline is the earlier
// of ctx's deadline and opts.Timeout.
func RepairAllCtx(ctx context.Context, m *verilog.Module, tr *trace.Trace, opts Options, maxCandidates int) []Candidate {
	deadline := opts.prepare(ctx, time.Now())
	if maxCandidates <= 0 {
		maxCandidates = 4
	}
	var stop atomic.Bool
	defer watchCancel(ctx, &stop)()

	fe := newFrontend(obs.Scope{}, m, opts.Lib, opts.NoPreprocess)
	if fe.Reason != "" {
		return nil
	}
	init, ctr := Concretize(fe.Sys, tr, opts.Policy, opts.Seed)
	base := runConcrete(fe.Sys, ctr, init)
	if base.Passed() {
		return nil
	}
	ff := base.FirstFailure
	sopts := opts.synthOptions(deadline, &stop)
	// Sample more aggressively than the single-repair flow.
	sopts.MaxSamples = maxCandidates * 2

	var out []Candidate
	seen := map[string]bool{}
	for _, tmpl := range opts.Templates {
		if len(out) >= maxCandidates || stop.Load() || ctx.Err() != nil || time.Now().After(deadline) {
			break
		}
		in, err := fe.instrument(tmpl, nil, &opts, obs.Scope{})
		if err != nil || in.sys == nil {
			continue
		}
		// Keep every trace-passing repair of the first window that has
		// any, up to maxCandidates.
		synthz := NewSynthesizer(in.ctx, in.sys, in.vars, ctr, init, sopts)
		var found []*Solution
		err = synthz.growWindows(ff, func(sols []*Solution) (bool, int, error) {
			latestFuture := -1
			for _, sol := range sols {
				run := synthz.Validate(sol.Assign)
				if run.Passed() {
					found = append(found, sol)
				} else if run.FirstFailure > ff && run.FirstFailure > latestFuture {
					latestFuture = run.FirstFailure
				}
			}
			return len(found) > 0, latestFuture, nil
		})
		if err != nil {
			continue
		}
		for _, sol := range found[:min(len(found), maxCandidates)] {
			c := in.candidate(sol, init, ctr)
			if c == nil {
				continue
			}
			key := verilog.Print(c.Repaired)
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, *c)
			if len(out) >= maxCandidates {
				break
			}
		}
	}
	// Order by change count (stable within templates).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Changes < out[j-1].Changes; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
