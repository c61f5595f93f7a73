package sim_test

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"rtlrepair/internal/bench"
	"rtlrepair/internal/bv"
	"rtlrepair/internal/sim"
	"rtlrepair/internal/smt"
	"rtlrepair/internal/trace"
	"rtlrepair/internal/tsys"
)

// sysGen builds random transition systems whose term DAGs mix every
// operator at widths 1–130, so values cross the 64-bit fast-path
// boundary and span several words. Terms are shared between roots.
type sysGen struct {
	rng  *rand.Rand
	ctx  *smt.Context
	vars map[int][]*smt.Term // by width
	pool map[int][]*smt.Term // built terms, by width
	sys  *tsys.System
	regs []*smt.Term
}

var edgeWidths = []int{1, 2, 3, 7, 8, 31, 32, 33, 63, 64, 65, 100, 127, 128, 129, 130}

func (g *sysGen) width() int {
	if g.rng.Intn(2) == 0 {
		return edgeWidths[g.rng.Intn(len(edgeWidths))]
	}
	return 1 + g.rng.Intn(130)
}

func (g *sysGen) value(w int) bv.BV {
	return bv.FromWords(w, []uint64{g.rng.Uint64(), g.rng.Uint64(), g.rng.Uint64()})
}

// xvalue returns a random 4-state value: fully known, partly X, or
// (rarely) carrying value bits under its X bits.
func (g *sysGen) xvalue(w int) bv.XBV {
	val := g.value(w)
	switch g.rng.Intn(4) {
	case 0, 1:
		return bv.K(val)
	case 2:
		known := g.value(w)
		return bv.XBV{Val: val.And(known), Known: known}
	default:
		return bv.XBV{Val: val, Known: g.value(w)}
	}
}

func (g *sysGen) leaf(w int) *smt.Term {
	if vs := g.vars[w]; len(vs) > 0 && g.rng.Intn(3) > 0 {
		return vs[g.rng.Intn(len(vs))]
	}
	if g.rng.Intn(3) == 0 {
		return g.ctx.Const(g.value(w))
	}
	n := len(g.sys.Inputs) + len(g.sys.Params) + len(g.regs)
	if n >= 12 {
		return g.ctx.Const(g.value(w))
	}
	var v *smt.Term
	switch g.rng.Intn(3) {
	case 0:
		v = g.ctx.Var(fmt.Sprintf("in%d", n), w)
		g.sys.Inputs = append(g.sys.Inputs, v)
	case 1:
		v = g.ctx.Var(fmt.Sprintf("par%d", n), w)
		g.sys.Params = append(g.sys.Params, v)
	default:
		v = g.ctx.Var(fmt.Sprintf("reg%d", n), w)
		g.regs = append(g.regs, v)
	}
	g.vars[w] = append(g.vars[w], v)
	return v
}

func (g *sysGen) term(w, depth int) *smt.Term {
	if depth == 0 || g.rng.Intn(6) == 0 {
		return g.leaf(w)
	}
	if ts := g.pool[w]; len(ts) > 0 && g.rng.Intn(4) == 0 {
		return ts[g.rng.Intn(len(ts))]
	}
	c, d := g.ctx, depth-1
	var t *smt.Term
	for t == nil {
		switch g.rng.Intn(16) {
		case 0:
			t = c.Not(g.term(w, d))
		case 1:
			t = c.Neg(g.term(w, d))
		case 2:
			t = c.And(g.term(w, d), g.term(w, d))
		case 3:
			t = c.Or(g.term(w, d), g.term(w, d))
		case 4:
			t = c.Xor(g.term(w, d), g.term(w, d))
		case 5:
			ops := []func(a, b *smt.Term) *smt.Term{c.Add, c.Sub, c.Mul, c.Udiv, c.Urem}
			t = ops[g.rng.Intn(len(ops))](g.term(w, d), g.term(w, d))
		case 6:
			ops := []func(a, b *smt.Term) *smt.Term{c.Shl, c.Lshr, c.Ashr}
			amt := g.term(w, d)
			if g.rng.Intn(2) == 0 && w > 3 {
				amt = c.ZeroExt(g.term(3, d), w) // mostly in-range amounts
			}
			t = ops[g.rng.Intn(len(ops))](g.term(w, d), amt)
		case 7:
			if w == 1 {
				ow := g.width()
				ops := []func(a, b *smt.Term) *smt.Term{c.Eq, c.Ult, c.Slt}
				t = ops[g.rng.Intn(len(ops))](g.term(ow, d), g.term(ow, d))
			}
		case 8:
			if w == 1 {
				ops := []func(a *smt.Term) *smt.Term{c.RedOr, c.RedAnd, c.RedXor}
				t = ops[g.rng.Intn(len(ops))](g.term(g.width(), d))
			}
		case 9:
			if w >= 2 {
				hi := 1 + g.rng.Intn(w-1)
				t = c.Concat(g.term(hi, d), g.term(w-hi, d))
			}
		case 10, 11:
			sw := w + g.rng.Intn(131-w)
			lo := g.rng.Intn(sw - w + 1)
			t = c.Extract(g.term(sw, d), lo+w-1, lo)
		case 12:
			if w >= 2 {
				sw := 1 + g.rng.Intn(w-1)
				if g.rng.Intn(2) == 0 {
					t = c.ZeroExt(g.term(sw, d), w)
				} else {
					t = c.SignExt(g.term(sw, d), w)
				}
			}
		default:
			t = c.Ite(g.term(1, d), g.term(w, d), g.term(w, d))
		}
	}
	g.pool[w] = append(g.pool[w], t)
	return t
}

func genSystem(rng *rand.Rand) *tsys.System {
	g := &sysGen{rng: rng, ctx: smt.NewContext(), vars: map[int][]*smt.Term{},
		pool: map[int][]*smt.Term{}, sys: &tsys.System{Name: "fuzz"}}
	for i := 0; i < 1+rng.Intn(4); i++ {
		g.sys.Outputs = append(g.sys.Outputs, tsys.Output{Name: fmt.Sprintf("out%d", i), Expr: g.term(g.width(), 4)})
	}
	for i := 0; i < len(g.regs); i++ { // next functions may add registers
		r := g.regs[i]
		st := tsys.State{Var: r, Next: g.term(r.Width, 3)}
		if rng.Intn(3) == 0 {
			st.Init = g.ctx.Const(g.value(r.Width))
		}
		g.sys.States = append(g.sys.States, st)
	}
	return g.sys
}

// checkCompiledMatchesEvalX steps a random system on the compiled and
// the reference simulator side by side and fails on the first cycle
// whose outputs, next state or random draws differ.
func checkCompiledMatchesEvalX(t *testing.T, seed int64, policy sim.UnknownPolicy) {
	rng := rand.New(rand.NewSource(seed))
	sys := genSystem(rng)
	if err := sys.Validate(); err != nil {
		t.Fatalf("generated system invalid: %v", err)
	}
	g := &sysGen{rng: rng}
	cs := sim.NewCycleSim(sys, policy, seed)
	ref := newRefSim(sys, policy, seed)

	params := map[string]bv.BV{}
	for _, p := range sys.Params {
		if rng.Intn(3) > 0 { // an unset param falls through to the input lookup
			params[p.Name] = g.value(p.Width)
		}
	}
	cs.SetParams(params)
	for k, v := range params {
		ref.params[k] = v
	}
	for _, st := range sys.States {
		if rng.Intn(4) == 0 {
			v := g.xvalue(st.Var.Width)
			cs.SetState(st.Var.Name, v)
			ref.state[st.Var.Name] = v
		}
	}
	if !reflect.DeepEqual(cs.Snapshot(), ref.state) {
		t.Fatalf("seed %d: power-on state differs:\n got %v\nwant %v", seed, cs.Snapshot(), ref.state)
	}

	// Count the draws from here on: both sides use the same stream.
	csSrc, refSrc := newCounting(seed+1), newCounting(seed+1)
	if policy == sim.Randomize {
		sim.SetRNG(cs, rand.New(csSrc))
	}
	ref.rng = rand.New(refSrc)

	inputs := func() map[string]bv.XBV {
		in := map[string]bv.XBV{}
		for _, v := range append(append([]*smt.Term{}, sys.Inputs...), sys.Params...) {
			if rng.Intn(8) > 0 {
				in[v.Name] = g.xvalue(v.Width)
			}
		}
		return in
	}
	for cycle := 0; cycle < 12; cycle++ {
		in := inputs()
		step, peek := "Step", rng.Intn(4) == 0
		var got, want map[string]bv.XBV
		if peek {
			step = "Peek"
			got, want = cs.Peek(in), ref.Peek(in)
		} else {
			got, want = cs.Step(in), ref.Step(in)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d policy %d cycle %d: %s outputs differ:\n got %v\nwant %v", seed, policy, cycle, step, got, want)
		}
		if !reflect.DeepEqual(cs.Snapshot(), ref.state) {
			t.Fatalf("seed %d policy %d cycle %d: next state differs:\n got %v\nwant %v", seed, policy, cycle, cs.Snapshot(), ref.state)
		}
		if csSrc.n != refSrc.n {
			t.Fatalf("seed %d policy %d cycle %d: %d random draws, want %d", seed, policy, cycle, csSrc.n, refSrc.n)
		}
	}

	// The trace path: input columns bound once per run, outputs checked.
	ins := make([]trace.Signal, len(sys.Inputs))
	for i, v := range sys.Inputs {
		ins[i] = trace.Signal{Name: v.Name, Width: v.Width}
	}
	outs := make([]trace.Signal, len(sys.Outputs))
	for i, o := range sys.Outputs {
		outs[i] = trace.Signal{Name: o.Name, Width: o.Expr.Width}
	}
	outs = append(outs, trace.Signal{Name: "undriven", Width: 3})
	tr := trace.New(ins, outs)
	for c := 0; c < 10; c++ {
		in := make([]bv.XBV, len(ins))
		for i, s := range ins {
			in[i] = g.xvalue(s.Width)
		}
		out := make([]bv.XBV, len(outs))
		for i, s := range outs {
			out[i] = bv.XBV{Val: bv.Zero(s.Width), Known: bv.Zero(s.Width)}
			if rng.Intn(6) == 0 {
				out[i] = g.xvalue(s.Width)
			}
		}
		tr.AddRow(in, out)
	}
	opts := sim.RunOptions{Policy: policy, Seed: seed, Params: params, RecordStates: true, RunAll: rng.Intn(2) == 0}
	got := sim.RunTrace(sys, tr, opts)
	if !opts.RunAll {
		// A run that stops at its first failure records no outputs; the
		// simulator is deterministic, so a RunAll run's first rows are
		// the ones it executed.
		all := opts
		all.RunAll = true
		got.Outputs = sim.RunTrace(sys, tr, all).Outputs[:got.Cycles]
	}
	if want := refRunTrace(sys, tr, opts); !reflect.DeepEqual(got, want) {
		t.Fatalf("seed %d policy %d: RunTrace differs:\n got %+v\nwant %+v", seed, policy, got, want)
	}
}

func FuzzCompiledSimMatchesEvalX(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, policy uint8) {
		checkCompiledMatchesEvalX(t, seed, sim.UnknownPolicy(policy%3))
	})
}

func TestCompiledSimMatchesEvalXRandom(t *testing.T) {
	n := int64(300)
	if testing.Short() {
		n = 60
	}
	for seed := int64(100); seed < 100+n; seed++ {
		for _, p := range []sim.UnknownPolicy{sim.KeepX, sim.Zero, sim.Randomize} {
			checkCompiledMatchesEvalX(t, seed, p)
		}
	}
}

// TestCorpusMatchesEvalX replays every corpus trace on the buggy and the
// ground-truth system of every design, and records every trace, on both
// simulators: the results must be deep-equal.
func TestCorpusMatchesEvalX(t *testing.T) {
	for _, b := range bench.Registry() {
		t.Run(b.Name, func(t *testing.T) {
			tr, err := b.Trace()
			if err != nil {
				t.Fatal(err)
			}
			gt, err := b.GroundTruthSystem()
			if err != nil {
				t.Fatal(err)
			}
			got := sim.RecordTrace(sim.NewCycleSim(gt, sim.KeepX, 0), b.Inputs, b.Outputs, b.Stimulus())
			want := refRecordTrace(newRefSim(gt, sim.KeepX, 0), b.Inputs, b.Outputs, b.Stimulus())
			if !reflect.DeepEqual(got, want) {
				t.Fatal("RecordTrace differs from the reference")
			}
			systems := []*tsys.System{gt}
			if buggy, err := b.BuggySystem(); err == nil {
				systems = append(systems, buggy)
			}
			for _, sys := range systems {
				for _, opts := range []sim.RunOptions{
					{Policy: sim.Zero, RunAll: true, RecordStates: true},
					{Policy: sim.Randomize, Seed: 1, RunAll: true, RecordStates: true},
				} {
					got, want := sim.RunTrace(sys, tr, opts), refRunTrace(sys, tr, opts)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s policy %d: RunResult differs from the reference (first failure %d vs %d)",
							sys.Name, opts.Policy, got.FirstFailure, want.FirstFailure)
					}
				}
			}
		})
	}
}

// TestRunTraceSteadyStateAllocs pins the ≤64-bit path as allocation
// free: a run on a compiled, already-bound simulator allocates only its
// RunResult, one row per cycle and one value per output cell.
func TestRunTraceSteadyStateAllocs(t *testing.T) {
	b := bench.ByName("counter_k1")
	sys, err := b.GroundTruthSystem()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := b.Trace()
	if err != nil {
		t.Fatal(err)
	}
	cs := sim.NewSim(sim.Compile(sys), sim.Zero, 0)
	opts := sim.RunOptions{Policy: sim.Zero, RunAll: true}
	sim.RunTraceFrom(cs, tr, 0, opts) // binds the trace's columns
	cycles := tr.Len()
	got := testing.AllocsPerRun(20, func() { sim.RunTraceFrom(cs, tr, 0, opts) })
	// Per cycle: the row and one value per output. Per run: the result,
	// the output-slot map and the growth of res.Outputs.
	limit := float64(cycles*(1+len(tr.Outputs)) + bits.Len(uint(cycles)) + 4)
	if got > limit {
		t.Fatalf("RunTraceFrom allocated %.0f times over %d cycles, want ≤ %.0f", got, cycles, limit)
	}
}

// TestRunTraceCheckOnlyAllocs pins a run that records no outputs, as
// validation does, as O(1) allocations: the RunResult and the
// output-slot map, however many cycles it checks.
func TestRunTraceCheckOnlyAllocs(t *testing.T) {
	b := bench.ByName("counter_k1")
	sys, err := b.GroundTruthSystem()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := b.Trace()
	if err != nil {
		t.Fatal(err)
	}
	cs := sim.NewSim(sim.Compile(sys), sim.Zero, 0)
	opts := sim.RunOptions{Policy: sim.Zero}
	if res := sim.RunTraceFrom(cs, tr, 0, opts); !res.Passed() || res.Outputs != nil {
		t.Fatalf("ground truth: first failure %d, %d output rows; want a pass and none recorded",
			res.FirstFailure, len(res.Outputs))
	}
	got := testing.AllocsPerRun(20, func() { sim.RunTraceFrom(cs, tr, 0, opts) })
	if got > 2 {
		t.Fatalf("RunTraceFrom allocated %.0f times over %d cycles, want ≤ 2", got, tr.Len())
	}
}
