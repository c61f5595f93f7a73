package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rtlrepair/internal/bench"
	"rtlrepair/internal/obs"
	"rtlrepair/internal/sat"
	"rtlrepair/internal/sim"
	"rtlrepair/internal/verilog"
)

// resultKey renders the fields of a repair result that must be
// byte-identical across worker counts.
func resultKey(res *Result) string {
	var b strings.Builder
	b.WriteString(res.Status.String())
	b.WriteString("|")
	b.WriteString(res.Template)
	if res.Repaired != nil {
		b.WriteString("|")
		b.WriteString(verilog.Print(res.Repaired))
	}
	for _, d := range res.ChangeDescs {
		b.WriteString("|")
		b.WriteString(d)
	}
	return b.String()
}

// The portfolio must pick the same repair no matter how many workers
// race: selection is a pure function of the per-attempt results.
func TestPortfolioDeterministicAcrossWorkerCounts(t *testing.T) {
	ins, outs := counterIO()
	tr := recordGolden(t, goodCounter, ins, outs, counterRows())
	m := buggyCounter

	var want string
	for _, workers := range []int{1, 2, 4, 8} {
		opts := repairOpts()
		opts.Workers = workers
		res := Repair(mustParse(t, m), tr, opts)
		if res.Status != StatusRepaired {
			t.Fatalf("workers=%d: status = %v (%s)", workers, res.Status, res.Reason)
		}
		got := resultKey(res)
		if workers == 1 {
			want = got
			continue
		}
		if got != want {
			t.Errorf("workers=%d result differs from sequential:\n%s\nvs\n%s", workers, got, want)
		}
	}
}

// Every worker goroutine must exit once runPortfolio returns, even when
// cancellation stops attempts mid-solve.
func TestPortfolioNoGoroutineLeak(t *testing.T) {
	ins, outs := counterIO()
	tr := recordGolden(t, goodCounter, ins, outs, counterRows())
	// Warm up any lazily started runtime goroutines before measuring.
	opts := repairOpts()
	opts.Workers = 4
	Repair(mustParse(t, buggyCounter), tr, opts)

	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		Repair(mustParse(t, buggyCounter), tr, opts)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		after := runtime.NumGoroutine()
		if after <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, after)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A pre-set interrupt flag must abort the synthesizer with ErrCancelled
// instead of completing or timing out — this is the mechanism sibling
// attempts use to stop each other.
func TestSynthesizerInterrupt(t *testing.T) {
	buggy := strings.Replace(goodCounter, "count + 1", "count + 2", 1)
	ins, outs := counterIO()
	s, _ := buildSynth(t, buggy, goodCounter, ReplaceLiterals{}, ins, outs, counterRows())
	var stop atomic.Bool
	stop.Store(true)
	s.opts.Interrupt = &stop
	if _, err := s.Basic(); err != ErrCancelled {
		t.Fatalf("interrupted Basic() = %v, want ErrCancelled", err)
	}
	if _, err := s.Windowed(1); err != ErrCancelled {
		t.Fatalf("interrupted Windowed() = %v, want ErrCancelled", err)
	}
}

// TestEncodeStopsWithinOneCycle raises Interrupt from the encoder's
// per-cycle hook after a fixed number of encoded cycles, not after a
// timer: the full-trace encode of Basic must stop with ErrCancelled
// after at most one more cycle.
func TestEncodeStopsWithinOneCycle(t *testing.T) {
	buggy := strings.Replace(goodCounter, "count + 1", "count + 2", 1)
	ins, outs := counterIO()
	s, _ := buildSynth(t, buggy, goodCounter, ReplaceLiterals{}, ins, outs, counterRows())
	const raiseAfter = 3
	if s.tr.Len() < raiseAfter+2 {
		t.Fatalf("trace has %d cycles, want at least %d", s.tr.Len(), raiseAfter+2)
	}
	var stop atomic.Bool
	s.opts.Interrupt = &stop
	encoded := 0
	s.afterCycle = func(int) {
		encoded++
		if encoded == raiseAfter {
			stop.Store(true)
		}
	}
	if _, err := s.Basic(); err != ErrCancelled {
		t.Fatalf("Basic() = %v, want ErrCancelled", err)
	}
	if encoded > raiseAfter+1 {
		t.Fatalf("%d cycles encoded after raising Interrupt at %d", encoded, raiseAfter)
	}
	if s.win != nil {
		t.Fatal("a cancelled encode left a live window")
	}
}

// Cancelled attempts must report so: with one acceptable repair in the
// pruned pass, the unpruned pass never needs to run to completion.
func TestPortfolioRecordsAllAttempts(t *testing.T) {
	ins, outs := counterIO()
	tr := recordGolden(t, goodCounter, ins, outs, counterRows())
	opts := repairOpts()
	opts.Workers = 2
	res := Repair(mustParse(t, buggyCounter), tr, opts)
	if res.Status != StatusRepaired {
		t.Fatalf("status = %v (%s)", res.Status, res.Reason)
	}
	// Every (pass, template) attempt appears exactly once, in order.
	wantAttempts := len(opts.Templates)
	if wantAttempts == 0 {
		wantAttempts = len(DefaultTemplates())
	}
	if res.Localization != nil {
		wantAttempts *= 2 // pruned pass + full pass
	}
	if len(res.PerTemplate) != wantAttempts {
		t.Fatalf("PerTemplate has %d entries, want %d", len(res.PerTemplate), wantAttempts)
	}
}

// The portfolio starts at most speculationCapacity workers, whatever
// Workers asks for: under GOMAXPROCS=1 every attempt runs on worker 0.
func TestPortfolioWorkersCappedAtCapacity(t *testing.T) {
	ins, outs := counterIO()
	tr := recordGolden(t, goodCounter, ins, outs, counterRows())
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct{ procs, workers int }{{1, 4}, {4, 2}} {
		runtime.GOMAXPROCS(tc.procs)
		want := min(tc.workers, speculationCapacity())
		rec := obs.NewRecorder(0)
		opts := repairOpts()
		opts.Workers = tc.workers
		res := RepairCtx(obs.NewContext(context.Background(), obs.Scope{Rec: rec}),
			mustParse(t, buggyCounter), tr, opts)
		if res.Status != StatusRepaired {
			t.Fatalf("GOMAXPROCS=%d: status = %v (%s)", tc.procs, res.Status, res.Reason)
		}
		spanWorkers := int64(-1)
		for _, ev := range rec.Events() {
			if ev.Kind != obs.EvSpanEnd || ev.Name != "portfolio" {
				continue
			}
			for _, a := range ev.Attrs {
				if a.Key == "workers" {
					spanWorkers = a.Int
				}
			}
		}
		if spanWorkers != int64(want) {
			t.Errorf("GOMAXPROCS=%d Workers=%d: portfolio span workers = %d, want %d",
				tc.procs, tc.workers, spanWorkers, want)
		}
		for _, at := range res.PerTemplate {
			if at.Worker >= want {
				t.Errorf("GOMAXPROCS=%d Workers=%d: %s ran on worker %d, want < %d",
					tc.procs, tc.workers, at.Template, at.Worker, want)
			}
		}
	}
}

func TestWorkerCountKnob(t *testing.T) {
	if got := (&Options{Workers: 3}).workerCount(); got != 3 {
		t.Fatalf("workerCount(3) = %d", got)
	}
	if got := (&Options{}).workerCount(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("workerCount(0) = %d, want GOMAXPROCS", got)
	}
}

// An unpruned retry whose template keeps every site of its pruned
// attempt would repeat that attempt's search, so it is skipped with
// ErrSameSites. Localization prunes no site of fsm_w1, so every retry is
// skipped; it prunes some of D4's, so D4's retry runs. Both designs are
// cannot-repair, so no attempt is cancelled and the reported (pass,
// template, state, sites) tuples are the same at any worker count.
func TestPortfolioSkipsIdenticalRetry(t *testing.T) {
	for _, tc := range []struct {
		name     string
		skipsAll bool
	}{{"fsm_w1", true}, {"D4", false}} {
		t.Run(tc.name, func(t *testing.T) {
			b := bench.ByName(tc.name)
			if b == nil {
				t.Fatalf("benchmark %s missing from registry", tc.name)
			}
			tr, err := b.Trace()
			if err != nil {
				t.Fatal(err)
			}
			lib, err := b.LibModules()
			if err != nil {
				t.Fatal(err)
			}
			var want string
			for _, workers := range []int{1, 2, 4} {
				m, err := b.BuggyModule()
				if err != nil {
					t.Fatal(err)
				}
				res := Repair(m, tr, Options{Policy: sim.Randomize, Seed: 1, Timeout: 60 * time.Second,
					Lib: lib, Workers: workers})
				if res.Status != StatusCannotRepair || res.Localization == nil {
					t.Fatalf("workers=%d: status %v (%s), localized %v; want a localized cannot-repair",
						workers, res.Status, res.Reason, res.Localization != nil)
				}
				n := len(res.PerTemplate) / 2
				pruned, retry := res.PerTemplate[:n], res.PerTemplate[n:]
				skipped := 0
				for i, at := range retry {
					if at.State != AttemptSkipped {
						continue
					}
					skipped++
					if !errors.Is(at.Err, ErrSameSites) || at.Sites != pruned[i].Sites ||
						at.Stats.SAT != (sat.Statistics{}) {
						t.Errorf("workers=%d: skipped retry of %s has err %v, %d sites (pruned %d), SAT %+v; want ErrSameSites, the pruned sites and no SAT work",
							workers, at.Template, at.Err, at.Sites, pruned[i].Sites, at.Stats.SAT)
					}
				}
				if tc.skipsAll && skipped != n {
					t.Errorf("workers=%d: %d of %d retries skipped, want all", workers, skipped, n)
				}
				if !tc.skipsAll && skipped == n {
					t.Errorf("workers=%d: every retry skipped, want the retry to run", workers)
				}
				var key strings.Builder
				for _, at := range res.PerTemplate {
					fmt.Fprintf(&key, "%v %s %s %d\n", at.Localized, at.Template, at.State, at.Sites)
				}
				if workers == 1 {
					want = key.String()
				} else if key.String() != want {
					t.Errorf("workers=%d attempts differ from workers=1:\n%s\nvs\n%s", workers, key.String(), want)
				}
			}
		})
	}
}

// TestPortfolioWorkerSolverReuse: each portfolio worker owns one solver
// and resets it for every attempt it claims, so which attempts share a
// solver depends on the worker count and the schedule. A reset must
// leave nothing behind: on three cannot-repair designs, where no
// attempt is cancelled, every attempt's (pass, template, state, sites,
// SAT statistics) tuple at workers 2 and 4 equals the one at workers 1.
// D4 and pairing_w2 encode six windows each, more than the workers, so
// some worker encodes at least two attempts on one solver.
func TestPortfolioWorkerSolverReuse(t *testing.T) {
	for _, name := range []string{"fsm_w1", "D4", "pairing_w2"} {
		t.Run(name, func(t *testing.T) {
			b := bench.ByName(name)
			if b == nil {
				t.Fatalf("benchmark %s missing from registry", name)
			}
			tr, err := b.Trace()
			if err != nil {
				t.Fatal(err)
			}
			lib, err := b.LibModules()
			if err != nil {
				t.Fatal(err)
			}
			var want string
			for _, workers := range []int{1, 2, 4} {
				m, err := b.BuggyModule()
				if err != nil {
					t.Fatal(err)
				}
				res := Repair(m, tr, Options{Policy: sim.Randomize, Seed: 1, Timeout: 60 * time.Second,
					Lib: lib, Workers: workers})
				if res.Status != StatusCannotRepair {
					t.Fatalf("workers=%d: status %v (%s), want cannot-repair", workers, res.Status, res.Reason)
				}
				var key strings.Builder
				encoded := 0
				for _, at := range res.PerTemplate {
					fmt.Fprintf(&key, "%v %s %s %d %+v\n", at.Localized, at.Template, at.State, at.Sites, at.Stats.SAT)
					encoded += at.Stats.SolverBuilds
				}
				if lanes := min(workers, speculationCapacity()); name != "fsm_w1" && encoded <= lanes {
					t.Fatalf("workers=%d: %d attempts encoded a window on %d workers, want more attempts than workers",
						workers, encoded, lanes)
				}
				if workers == 1 {
					want = key.String()
				} else if key.String() != want {
					t.Errorf("workers=%d attempts differ from workers=1:\n%s\nvs\n%s", workers, key.String(), want)
				}
			}
		})
	}
}
