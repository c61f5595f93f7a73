package sim_test

import (
	"math/rand"

	"rtlrepair/internal/bv"
	"rtlrepair/internal/sim"
	"rtlrepair/internal/smt"
	"rtlrepair/internal/trace"
	"rtlrepair/internal/tsys"
)

// refSim is the reference cycle simulator the compiled one must match
// bit for bit: one smt.EvalX call per root with its own memo, name-keyed
// state, and unknown input bits resolved once per cycle on first read.
type refSim struct {
	sys    *tsys.System
	state  map[string]bv.XBV
	params map[string]bv.BV
	policy sim.UnknownPolicy
	rng    *rand.Rand
}

func newRefSim(sys *tsys.System, policy sim.UnknownPolicy, seed int64) *refSim {
	s := &refSim{sys: sys, state: map[string]bv.XBV{}, params: map[string]bv.BV{},
		policy: policy, rng: rand.New(rand.NewSource(seed))}
	for _, st := range sys.States {
		if st.Init != nil {
			s.state[st.Var.Name] = bv.K(st.Init.Val)
		} else {
			s.state[st.Var.Name] = s.unknown(st.Var.Width)
		}
	}
	return s
}

func (s *refSim) unknown(width int) bv.XBV {
	switch s.policy {
	case sim.Randomize:
		return bv.K(bv.FromWords(width, []uint64{s.rng.Uint64(), s.rng.Uint64(), s.rng.Uint64(), s.rng.Uint64()}))
	case sim.Zero:
		return bv.K(bv.Zero(width))
	default:
		return bv.X(width)
	}
}

func (s *refSim) env(inputs map[string]bv.XBV) func(*smt.Term) bv.XBV {
	resolved := map[string]bv.XBV{}
	return func(v *smt.Term) bv.XBV {
		if val, ok := s.state[v.Name]; ok {
			return val
		}
		if val, ok := s.params[v.Name]; ok {
			return bv.K(val)
		}
		if val, ok := resolved[v.Name]; ok {
			return val
		}
		val, ok := inputs[v.Name]
		if !ok {
			val = bv.X(v.Width)
		}
		if val.HasUnknown() && s.policy != sim.KeepX {
			fill := s.unknown(v.Width)
			val = bv.XBV{Val: val.Resolve(fill.Val), Known: bv.Ones(v.Width)}
		}
		resolved[v.Name] = val
		return val
	}
}

func (s *refSim) Peek(inputs map[string]bv.XBV) map[string]bv.XBV {
	env := s.env(inputs)
	outs := map[string]bv.XBV{}
	for _, o := range s.sys.Outputs {
		outs[o.Name] = smt.EvalX(o.Expr, env)
	}
	return outs
}

func (s *refSim) Step(inputs map[string]bv.XBV) map[string]bv.XBV {
	env := s.env(inputs)
	outs := map[string]bv.XBV{}
	for _, o := range s.sys.Outputs {
		outs[o.Name] = smt.EvalX(o.Expr, env)
	}
	next := map[string]bv.XBV{}
	for _, st := range s.sys.States {
		next[st.Var.Name] = smt.EvalX(st.Next, env)
	}
	s.state = next
	return outs
}

// refRunTrace is sim.RunTrace on the reference simulator.
func refRunTrace(sys *tsys.System, tr *trace.Trace, opts sim.RunOptions) *sim.RunResult {
	s := newRefSim(sys, opts.Policy, opts.Seed)
	for k, v := range opts.Params {
		s.params[k] = v
	}
	res := &sim.RunResult{FirstFailure: -1}
	for cycle := 0; cycle < tr.Len(); cycle++ {
		inputs := map[string]bv.XBV{}
		for i, sig := range tr.Inputs {
			inputs[sig.Name] = tr.InputRows[cycle][i]
		}
		if opts.RecordStates {
			row := make([]bv.XBV, len(sys.States))
			for i, st := range sys.States {
				row[i] = s.state[st.Var.Name]
			}
			res.States = append(res.States, row)
		}
		outs := s.Step(inputs)
		row := make([]bv.XBV, len(tr.Outputs))
		for i, sig := range tr.Outputs {
			row[i] = outs[sig.Name]
		}
		res.Outputs = append(res.Outputs, row)
		res.Cycles++
		if res.FirstFailure < 0 {
			for i, sig := range tr.Outputs {
				if !sim.OutputMatches(tr.OutputRows[cycle][i], row[i]) {
					res.FirstFailure = cycle
					res.FailedSignal = sig.Name
					break
				}
			}
			if res.FirstFailure >= 0 && !opts.RunAll {
				return res
			}
		}
	}
	return res
}

// refRecordTrace is sim.RecordTrace on the reference simulator.
func refRecordTrace(s *refSim, inputs, outputs []trace.Signal, rows [][]bv.XBV) *trace.Trace {
	tr := trace.New(inputs, outputs)
	for _, row := range rows {
		in := map[string]bv.XBV{}
		for i, sig := range inputs {
			in[sig.Name] = row[i]
		}
		outs := s.Step(in)
		outRow := make([]bv.XBV, len(outputs))
		for i, sig := range outputs {
			outRow[i] = outs[sig.Name]
		}
		tr.AddRow(append([]bv.XBV{}, row...), outRow)
	}
	return tr
}

// countingSource counts the draws made from a math/rand source.
type countingSource struct {
	src rand.Source64
	n   int
}

func newCounting(seed int64) *countingSource {
	return &countingSource{src: rand.NewSource(seed).(rand.Source64)}
}

func (c *countingSource) Int63() int64   { c.n++; return c.src.Int63() }
func (c *countingSource) Uint64() uint64 { c.n++; return c.src.Uint64() }
func (c *countingSource) Seed(s int64)   { c.src.Seed(s) }
