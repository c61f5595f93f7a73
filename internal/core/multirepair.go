package core

import (
	"cmp"
	"context"
	"slices"

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
// of ctx's deadline and opts.Timeout. It shares RepairCtx's start and
// finish steps; the root span and metrics report repaired when any
// candidate is returned.
func RepairAllCtx(ctx context.Context, m *verilog.Module, tr *trace.Trace, opts Options, maxCandidates int) []Candidate {
	if maxCandidates <= 0 {
		maxCandidates = 4
	}
	r, done := startRun(ctx, m, []*trace.Trace{tr}, opts)
	if done {
		r.finish()
		return nil
	}
	ff, ctr := r.res.FirstFailure, r.ctrs[0]
	var out []Candidate
	seen := map[string]bool{}
	if !r.eachTemplate(func(in *instrumented, sopts SynthOptions) bool {
		// Sample more aggressively than the single-repair flow, and keep
		// every trace-passing repair of the first window that has any.
		sopts.MaxSamples = maxCandidates * 2
		synthz := NewSynthesizer(in.ctx, in.sys, in.vars, ctr, r.init, sopts)
		var found []*Solution
		err := synthz.growWindows(ff, func(sols []*Solution) (bool, int, error) {
			latestFuture := -1
			for _, sol := range sols {
				vr := synthz.Validate(sol.Assign)
				if vr.Passed() {
					found = append(found, sol)
				} else if vr.FirstFailure > ff && vr.FirstFailure > latestFuture {
					latestFuture = vr.FirstFailure
				}
			}
			return len(found) > 0, latestFuture, nil
		})
		if err != nil {
			return false
		}
		for _, sol := range found[:min(len(found), maxCandidates)] {
			c := in.candidate(sol, r.init, ctr)
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
				return true
			}
		}
		return false
	}) {
		r.res.Status = StatusCannotRepair
	}
	// Order by change count (stable within templates).
	slices.SortStableFunc(out, func(a, b Candidate) int { return cmp.Compare(a.Changes, b.Changes) })
	if len(out) > 0 {
		r.res.setRepair(&out[0])
	}
	r.finish()
	return out
}
