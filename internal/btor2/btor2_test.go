package btor2

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"rtlrepair/internal/bench"
	"rtlrepair/internal/bv"
	"rtlrepair/internal/sim"
	"rtlrepair/internal/smt"
	"rtlrepair/internal/tsys"
)

// roundTrip writes and re-reads a system.
func roundTrip(t *testing.T, sys *tsys.System) *tsys.System {
	t.Helper()
	var sb strings.Builder
	if err := Write(&sb, sys); err != nil {
		t.Fatalf("write: %v", err)
	}
	back, err := Read(strings.NewReader(sb.String()), smt.NewContext())
	if err != nil {
		t.Fatalf("read: %v\n%s", err, sb.String())
	}
	return back
}

// equivalentOnRandom co-simulates two systems from identical start
// states with identical inputs and compares all outputs.
func equivalentOnRandom(t *testing.T, a, b *tsys.System, cycles int, seed int64) {
	t.Helper()
	sa := sim.NewCycleSim(a, sim.Zero, 0)
	sb := sim.NewCycleSim(b, sim.Zero, 0)
	for _, st := range a.States {
		if b.StateByName(st.Var.Name) != nil {
			sb.SetState(st.Var.Name, sa.State(st.Var.Name))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for c := 0; c < cycles; c++ {
		ins := map[string]bv.XBV{}
		for _, in := range a.Inputs {
			ins[in.Name] = bv.KU(in.Width, rng.Uint64()&((1<<uint(min(in.Width, 16)))-1))
		}
		oa := sa.Step(ins)
		ob := sb.Step(ins)
		for _, o := range a.Outputs {
			bo, ok := ob[o.Name]
			if !ok {
				t.Fatalf("output %q missing after round trip", o.Name)
			}
			if !oa[o.Name].SameAs(bo) {
				t.Fatalf("cycle %d output %s: %v != %v", c, o.Name, oa[o.Name], bo)
			}
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Every benchmark ground truth must survive a btor2 round trip with
// identical behaviour.
func TestRoundTripBenchmarkGroundTruths(t *testing.T) {
	for _, b := range bench.CirFixSuite() {
		sys, err := b.GroundTruthSystem()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		back := roundTrip(t, sys)
		if len(back.States) != len(sys.States) {
			t.Fatalf("%s: states %d != %d", b.Name, len(back.States), len(sys.States))
		}
		equivalentOnRandom(t, sys, back, 50, 11)
	}
}

// Line ids must increase down the file, so every line refers only to
// ids declared above it, as btor2 requires.
func TestWriteIDsIncrease(t *testing.T) {
	for _, b := range bench.CirFixSuite() {
		sys, err := b.GroundTruthSystem()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		var sb strings.Builder
		if err := Write(&sb, sys); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		last := 0
		for _, line := range strings.Split(sb.String(), "\n") {
			if line == "" || line[0] == ';' {
				continue
			}
			id, err := strconv.Atoi(strings.Fields(line)[0])
			if err != nil || id <= last {
				t.Fatalf("%s: line %q follows id %d", b.Name, line, last)
			}
			last = id
		}
	}
}

func TestReadYosysStyleConstructs(t *testing.T) {
	src := `
; handwritten, yosys-flavoured
1 sort bitvec 1
2 sort bitvec 4
3 input 2 a
4 input 1 en
5 state 2 cnt
6 one 2
7 add 2 5 6
8 ite 2 4 7 5
9 next 2 5 8
10 zero 2
11 init 2 5 10
12 eq 1 5 3
13 output 12 match
14 constd 2 3
15 ugte 1 5 14
16 output 15 big
`
	sys, err := Read(strings.NewReader(src), smt.NewContext())
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Inputs) != 2 || len(sys.States) != 1 || len(sys.Outputs) != 2 {
		t.Fatalf("shape: %d inputs %d states %d outputs", len(sys.Inputs), len(sys.States), len(sys.Outputs))
	}
	// Simulate: cnt counts up while en; match fires when cnt == a.
	cs := sim.NewCycleSim(sys, sim.Zero, 0)
	ins := map[string]bv.XBV{"a": bv.KU(4, 2), "en": bv.KU(1, 1)}
	cs.Step(ins) // cnt: 0 -> 1
	outs := cs.Step(ins)
	if outs["match"].Val.Uint64() != 0 {
		t.Fatalf("match early: %v", outs)
	}
	outs = cs.Step(ins) // cnt now 2
	if outs["match"].Val.Uint64() != 1 {
		t.Fatalf("match = %v, want 1", outs["match"])
	}
}

func TestReadNegatedOperand(t *testing.T) {
	src := `
1 sort bitvec 1
2 input 1 a
3 and 1 2 -2
4 output 3 zero
`
	sys, err := Read(strings.NewReader(src), smt.NewContext())
	if err != nil {
		t.Fatal(err)
	}
	cs := sim.NewCycleSim(sys, sim.Zero, 0)
	outs := cs.Peek(map[string]bv.XBV{"a": bv.KU(1, 1)})
	if outs["zero"].Val.Uint64() != 0 {
		t.Fatalf("a & !a = %v", outs["zero"])
	}
}

func TestReadErrors(t *testing.T) {
	bad := []string{
		"1 sort array 2 3\n",
		"1 sort bitvec 4\n2 input 9\n",
		"1 sort bitvec 4\n2 next 1 5 6\n",
		"x sort bitvec 4\n",
		"1 sort bitvec 4\n2 frobnicate 1 1\n",
	}
	for _, src := range bad {
		if _, err := Read(strings.NewReader(src), smt.NewContext()); err == nil {
			t.Fatalf("expected error for %q", src)
		}
	}
}

func TestWriteRejectsFreeVars(t *testing.T) {
	ctx := smt.NewContext()
	free := ctx.Var("ghost", 4)
	sys := &tsys.System{Name: "bad", Outputs: []tsys.Output{{Name: "y", Expr: free}}}
	var sb strings.Builder
	if err := Write(&sb, sys); err == nil {
		t.Fatal("expected error for undeclared variable")
	}
}
