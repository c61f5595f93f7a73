package rtlrepair_test

import (
	"testing"
	"time"

	"rtlrepair/internal/bench"
	"rtlrepair/internal/core"
	"rtlrepair/internal/sim"
)

// TestIncrementalWindowReusesSolver pins the incremental re-encoding:
// every attempt that solves a window builds exactly one solver and grows
// it in place, whichever boundary moves. S1.R and S1.B widen k_future
// (cycles appended to the live solver); C3 is a cannot-repair design
// whose windows grow k_past to the window cap (cycles prepended).
func TestIncrementalWindowReusesSolver(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full benchmark repair")
	}
	for _, tc := range []struct {
		name   string
		status core.Status
	}{
		{"S1.R", core.StatusRepaired},
		{"S1.B", core.StatusRepaired},
		{"C3", core.StatusCannotRepair},
	} {
		b := bench.ByName(tc.name)
		if b == nil {
			t.Fatalf("benchmark %s missing from registry", tc.name)
		}
		t.Run(tc.name, func(t *testing.T) {
			tr, err := b.Trace()
			if err != nil {
				t.Fatal(err)
			}
			m, err := b.BuggyModule()
			if err != nil {
				t.Fatal(err)
			}
			lib, err := b.LibModules()
			if err != nil {
				t.Fatal(err)
			}
			res := core.Repair(m, tr, core.Options{
				Policy:  sim.Randomize,
				Seed:    1,
				Timeout: 120 * time.Second,
				Lib:     lib,
				Workers: 1,
			})
			if res.Status != tc.status {
				t.Fatalf("status = %v, want %v (%s)", res.Status, tc.status, res.Reason)
			}
			var windows, builds, extended, grown, pastCapped int
			for _, at := range res.PerTemplate {
				st := at.Stats
				windows += st.Windows
				builds += st.SolverBuilds
				extended += st.ExtendedCycles
				if st.Windows >= 1 && st.SolverBuilds != 1 {
					t.Errorf("%s (localized=%v): %d solver builds for %d windows, want exactly 1",
						at.Template, at.Localized, st.SolverBuilds, st.Windows)
				}
				if st.Windows >= 3 {
					grown++
				}
				if st.FinalWindow[0] >= core.MaxWindow {
					pastCapped++
				}
			}
			if grown == 0 {
				t.Fatalf("no attempt widened its window >= 2 times (windows=%d); design no longer exercises incremental growth", windows)
			}
			if extended == 0 {
				t.Errorf("no cycles were added to a live solver (ExtendedCycles = 0)")
			}
			if tc.status == core.StatusCannotRepair && pastCapped == 0 {
				t.Errorf("no attempt grew k_past to the window cap %d", core.MaxWindow)
			}
			t.Logf("%s: %d windows, %d solver builds, %d cycles added incrementally, %d attempts at the k_past cap",
				tc.name, windows, builds, extended, pastCapped)
		})
	}
}
