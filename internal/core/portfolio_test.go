package core

import (
	"context"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rtlrepair/internal/obs"
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
