package core

import (
	"context"
	"sync/atomic"
	"time"

	"rtlrepair/internal/obs"
	"rtlrepair/internal/synth"
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
	if opts.Timeout == 0 {
		opts.Timeout = 60 * time.Second
	}
	if opts.Templates == nil {
		opts.Templates = DefaultTemplates()
	}
	if maxCandidates <= 0 {
		maxCandidates = 4
	}
	deadline := time.Now().Add(opts.Timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
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

	var out []Candidate
	seen := map[string]bool{}
	counter := 0
	for _, tmpl := range opts.Templates {
		if len(out) >= maxCandidates || stop.Load() || ctx.Err() != nil || time.Now().After(deadline) {
			break
		}
		vars := NewVarTable(&counter)
		env := &Env{Info: fe.Info, Lib: opts.Lib, Frozen: opts.frozenSet()}
		instr, err := tmpl.Instrument(fe.Fixed, env, vars)
		if err != nil || vars.Empty() {
			continue
		}
		ictx := fe.ctx.Clone()
		isys, _, err := synth.Elaborate(ictx, instr, synth.Options{Lib: opts.Lib})
		if err != nil {
			continue
		}
		sopts := DefaultSynthOptions()
		sopts.Policy = opts.Policy
		sopts.Seed = opts.Seed
		sopts.Deadline = deadline
		sopts.Interrupt = &stop
		sopts.Certify = opts.Certify
		// Sample more aggressively than the single-repair flow.
		sopts.MaxSamples = maxCandidates * 2
		synthz := NewSynthesizer(ictx, isys, vars, ctr, init, sopts)
		sols, err := synthz.SampleRepairs(base.FirstFailure, maxCandidates)
		if err != nil {
			continue
		}
		for _, sol := range sols {
			repaired, rerr := Resolve(instr, sol.Assign)
			if rerr != nil {
				continue
			}
			if !verifyRepaired(repaired, ctr, init, opts.Lib) {
				continue
			}
			key := verilog.Print(repaired)
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, Candidate{
				Repaired:    repaired,
				Changes:     sol.Changes,
				Template:    tmpl.Name(),
				ChangeDescs: vars.EnabledDescs(sol.Assign),
			})
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

// SampleRepairs runs the windowed synthesizer and keeps collecting
// validated repairs (not just the first) up to the limit.
func (s *Synthesizer) SampleRepairs(firstFailure, limit int) ([]*Solution, error) {
	kPast, kFuture := 0, 0
	var found []*Solution
	for {
		if s.expired() || s.interrupted() {
			return found, nil
		}
		if kPast+kFuture > s.opts.MaxWindow {
			return found, nil
		}
		s.Stats.Windows++
		start := firstFailure - kPast
		if start < 0 {
			start = 0
		}
		end := firstFailure + kFuture + 1
		if end > s.tr.Len() {
			end = s.tr.Len()
		}
		startState := s.prefixState(start)
		sols, err := s.solveWindow(start, end, startState)
		if err != nil {
			return found, nil
		}
		if len(sols) == 0 {
			kPast += s.opts.PastStep
			continue
		}
		latestFuture := -1
		for _, sol := range sols {
			res := s.Validate(sol.Assign)
			if res.Passed() {
				found = append(found, sol)
				if len(found) >= limit {
					return found, nil
				}
				continue
			}
			if res.FirstFailure > firstFailure && res.FirstFailure > latestFuture {
				latestFuture = res.FirstFailure
			}
		}
		if len(found) > 0 {
			// Enough context to find at least one repair: stop growing.
			return found, nil
		}
		if latestFuture > firstFailure && latestFuture-firstFailure > kFuture {
			kFuture = latestFuture - firstFailure
		} else {
			kPast += s.opts.PastStep
		}
	}
}
