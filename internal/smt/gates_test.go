package smt

import (
	"fmt"
	"math/rand"
	"testing"

	"rtlrepair/internal/bv"
	"rtlrepair/internal/sat"
)

// TestGateTableMatchesMap replays random lookups and inserts on a
// gateTable and on a map keyed by the unpacked gate, through several
// growths: every lookup must agree, so the packing is injective and no
// growth loses a gate. Operands come from a small range, which repeats
// gates, and from the whole literal range, which fills every key bit.
func TestGateTableMatchesMap(t *testing.T) {
	type gate struct {
		xor  bool
		a, b sat.Lit
	}
	rng := rand.New(rand.NewSource(5))
	var g gateTable
	ref := map[gate]sat.Lit{}
	for i := 0; i < 20000; i++ {
		var a, b sat.Lit
		if rng.Intn(2) == 0 {
			a = sat.Lit(rng.Intn(60))
			b = a + 1 + sat.Lit(rng.Intn(60))
		} else {
			a = sat.Lit(rng.Int31n(1<<31 - 1))
			b = a + 1 + sat.Lit(rng.Int31n(1<<31-1-int32(a)))
		}
		gt := gate{rng.Intn(2) == 0, a, b}
		k := gateKey(gt.xor, a, b)
		got, ok := g.get(k)
		want, wok := ref[gt]
		if ok != wok || got != want {
			t.Fatalf("step %d: get %+v = (%d, %v), map says (%d, %v)", i, gt, got, ok, want, wok)
		}
		if !ok {
			g.put(k, sat.Lit(i))
			ref[gt] = sat.Lit(i)
		}
	}
	if g.n != len(ref) {
		t.Fatalf("table holds %d gates, map %d", g.n, len(ref))
	}
	if len(g.keys) < 64<<6 || 4*g.n > 3*len(g.keys) {
		t.Fatalf("%d gates in %d slots: want six growths and at most 3/4 load", g.n, len(g.keys))
	}
	for gt, want := range ref {
		if got, ok := g.get(gateKey(gt.xor, gt.a, gt.b)); !ok || got != want {
			t.Fatalf("after the growths, get %+v = (%d, %v), want %d", gt, got, ok, want)
		}
	}
}

// fullScanModel is the model snapshot as it was taken before the
// blaster listed its variables: a scan of every blasted term.
func fullScanModel(s *Solver) map[*Term]bv.BV {
	m := map[*Term]bv.BV{}
	for t, off := range s.low.bits {
		if t.Op != OpVar {
			continue
		}
		v := bv.Zero(t.Width)
		for i, l := range s.low.lits[off : off+uint32(t.Width)] {
			if s.sat.Value(l.Var()) != l.Neg() {
				v = v.WithBit(i, true)
			}
		}
		m[t] = v
	}
	return m
}

// TestModelMatchesFullScan checks Value on every variable after each Sat
// answer of an incremental session against the full scan, including
// variables that only an assumption or a later assertion mentions.
func TestModelMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	c := NewContext()
	s := NewSolver(c)
	var vars []*Term
	sats := 0
	for round := 0; round < 30; round++ {
		w := 1 + rng.Intn(8)
		vars = append(vars, c.Var(fmt.Sprintf("v%d", round), w))
		pick := func() *Term {
			v := vars[rng.Intn(len(vars))]
			return c.Resize(v, w)
		}
		// The newest variable can always satisfy the assertion.
		k := c.ConstU(w, rng.Uint64()%(1<<w))
		s.Assert(c.Or(c.Ne(randTerm(c, rng, []*Term{pick(), pick()}, 2), k), c.Eq(c.Resize(vars[round], w), k)))
		st, err := s.Check(c.Ult(pick(), c.Add(pick(), c.ConstU(w, 1))))
		if err != nil {
			t.Fatal(err)
		}
		if st != sat.Sat {
			continue
		}
		sats++
		want := fullScanModel(s)
		if len(want) != len(s.model) {
			t.Fatalf("round %d: model has %d vars, full scan %d", round, len(s.model), len(want))
		}
		for _, v := range vars {
			wv, ok := want[v]
			if !ok {
				wv = bv.Zero(v.Width)
			}
			if got := s.Value(v); !got.Eq(wv) {
				t.Fatalf("round %d: Value(%s) = %s, full scan %s", round, v.Name, got, wv)
			}
		}
	}
	if sats < 10 {
		t.Fatalf("only %d Sat answers", sats)
	}
}
