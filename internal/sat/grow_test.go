package sat

import (
	"math/bits"
	"testing"
)

// TestStorageGrowsByDoubling pins how solver and checker storage grows.
// Every slice that grows with the variables or the clauses doubles when
// it is full, so adding n variables and their clauses allocates
// O(log n) times per slice: at most bits.Len(4n) times for a slice of up
// to 4n elements. append, which grows a large slice by about 1.25×,
// takes about twice as many.
func TestStorageGrowsByDoubling(t *testing.T) {
	const n = 1 << 16
	perSlice := bits.Len(4 * n)

	// vals, phase, level, reason, activity, seen, the watch headers, and
	// the heap's two slices.
	const varSlices = 9
	vars := testing.AllocsPerRun(1, func() {
		s := New()
		for range n {
			s.NewVar()
		}
	})
	if limit := varSlices * perSlice; vars > float64(limit) {
		t.Errorf("adding %d variables allocated %.0f times, want at most %d", n, vars, limit)
	}

	// The solver's per-variable slices, clause arena, clause list and
	// watch pool; the proof's literals and steps; the checker's values,
	// marks, watch headers, watch pool, arena and deletion table.
	const allSlices = varSlices + 3 + 2 + 6
	var solver *Solver
	all := testing.AllocsPerRun(1, func() {
		solver = New()
		proof := solver.StartProof()
		for range n {
			solver.NewVar()
		}
		for v := 0; v+2 < n; v++ {
			solver.AddClause(NegLit(v), PosLit(v+1), PosLit(v+2))
		}
		if err := NewChecker(proof).advance(); err != nil {
			t.Fatal(err)
		}
	})
	if limit := allSlices * perSlice; all > float64(limit) {
		t.Errorf("adding %d variables and %d clauses, logged and checked, allocated %.0f times, want at most %d",
			n, len(solver.clauses), all, limit)
	}
}
