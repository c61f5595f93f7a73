package rtlrepair_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"rtlrepair/internal/bench"
	"rtlrepair/internal/bv"
	"rtlrepair/internal/core"
	"rtlrepair/internal/obs"
	"rtlrepair/internal/sim"
	"rtlrepair/internal/trace"
	"rtlrepair/internal/verilog"
)

const obsCounterSrc = `
module first_counter(input clock, input reset, input enable,
                     output reg [3:0] count, output reg overflow);
always @(posedge clock) begin
  if (reset == 1'b1) begin
    count <= 4'b0000;
    overflow <= 1'b0;
  end else if (enable == 1'b1) begin
    count <= count + 1;
  end
  if (count == 4'b1111) begin
    overflow <= 1'b1;
  end
end
endmodule`

// contradictoryTrace demands a count that steps by two — which the
// literal-replacement template can produce — until cycle 7, where it
// steps by one. Windows over the early failure come back SAT, their
// candidates fail full-trace validation, the windows grow over the
// contradiction and the repair ends cannot-repair. With no candidate
// ever accepted there is no cross-attempt cancellation, which is what
// makes the recorded stream independent of the worker count. The reset
// cycle's outputs are unknown, so the randomized initial state is not
// itself a mismatch.
func contradictoryTrace() *trace.Trace {
	tr := trace.New(
		[]trace.Signal{{Name: "reset", Width: 1}, {Name: "enable", Width: 1}},
		[]trace.Signal{{Name: "count", Width: 4}, {Name: "overflow", Width: 1}},
	)
	want := []uint64{0, 0, 2, 4, 6, 8, 10, 11, 12}
	for i, w := range want {
		rst, en := uint64(0), uint64(1)
		count, overflow := bv.KU(4, w), bv.KU(1, 0)
		if i == 0 {
			rst, en = 1, 0
			count, overflow = bv.X(4), bv.X(1)
		}
		tr.AddRow([]bv.XBV{bv.KU(1, rst), bv.KU(1, en)}, []bv.XBV{count, overflow})
	}
	return tr
}

// tracedPhases are the pipeline phases that record their spans into the
// flight recorder; a certifying run of the contradictory trace reaches
// every one of them.
var tracedPhases = []string{
	"repair", "preprocess", "elaborate", "concretize", "localize", "portfolio",
	"attempt", "instrument", "window", "encode", "tsys.extend", "smt.check",
	"sat.solve", "certify", "validate",
}

// TestRingBytesIdenticalAcrossWorkers is the cross-worker determinism
// golden: the scrubbed stream of a cannot-repair run — span begin/end
// pairs with their attributes for every pipeline phase, window progress
// events, and SAT heartbeats — must be byte-identical at workers=1 and
// workers=4. Heartbeats are keyed on cumulative conflicts (not wall
// clock), so every attempt's event sequence depends only on the seed; ScrubRingJSONL strips the volatile
// fields (seq, span and parent ids, t_us, worker, time_*) and sorts
// lines, making the remainder a deterministic multiset.
func TestRingBytesIdenticalAcrossWorkers(t *testing.T) {
	m, err := verilog.ParseModule(obsCounterSrc)
	if err != nil {
		t.Fatal(err)
	}
	rings := func(workers int) []byte {
		rec := obs.NewRecorder(0)
		ctx := obs.NewContext(context.Background(), obs.Scope{Rec: rec})
		res := core.RepairCtx(ctx, m, contradictoryTrace(), core.Options{
			Policy:  sim.Randomize,
			Seed:    7,
			Timeout: 120 * time.Second,
			Workers: workers,
			Certify: true,
		})
		if res.Status != core.StatusCannotRepair {
			t.Fatalf("workers=%d: status = %v, want cannot-repair (fixture must stay unrepairable)", workers, res.Status)
		}
		totals := obs.PhaseTotals(rec.Events())
		for _, phase := range tracedPhases {
			if totals[phase].Count == 0 {
				t.Errorf("workers=%d: no %q span in the stream", workers, phase)
			}
		}
		var buf bytes.Buffer
		if err := rec.WriteRingJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		if err := obs.ValidateRingJSONL(buf.Bytes()); err != nil {
			t.Fatalf("workers=%d: invalid ring dump: %v", workers, err)
		}
		scrubbed, err := obs.ScrubRingJSONL(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return scrubbed
	}
	r1 := rings(1)
	r4 := rings(4)
	if !bytes.Equal(r1, r4) {
		t.Errorf("scrubbed ring differs between workers=1 and workers=4:\n--- w1 ---\n%s\n--- w4 ---\n%s", r1, r4)
	}
}

// TestTraceBytesIdenticalAcrossWorkers is the export-side twin of the
// ring golden above: it drives the command-line lifecycle (obs.CLI with
// -trace-out and -chrome-out) through the same cannot-repair run at
// workers=1 and workers=4 and checks that both written files are
// byte-identical once timestamps and worker placement are scrubbed.
func TestTraceBytesIdenticalAcrossWorkers(t *testing.T) {
	m, err := verilog.ParseModule(obsCounterSrc)
	if err != nil {
		t.Fatal(err)
	}
	exports := func(workers int) (trace, chrome []byte) {
		dir := t.TempDir()
		var cli obs.CLI
		fs := flag.NewFlagSet("rtlrepair", flag.ContinueOnError)
		cli.RegisterFlags(fs)
		if err := fs.Parse([]string{
			"-trace-out", filepath.Join(dir, "run.jsonl"),
			"-chrome-out", filepath.Join(dir, "run_trace.json"),
		}); err != nil {
			t.Fatal(err)
		}
		if err := cli.Start(); err != nil {
			t.Fatal(err)
		}
		if cli.Rec == obs.Default() {
			t.Fatal("export flags must select a private recorder, not the Default ring")
		}
		ctx := obs.NewContext(context.Background(), cli.Scope())
		res := core.RepairCtx(ctx, m, contradictoryTrace(), core.Options{
			Policy:  sim.Randomize,
			Seed:    7,
			Timeout: 120 * time.Second,
			Workers: workers,
		})
		if res.Status != core.StatusCannotRepair {
			t.Fatalf("workers=%d: status = %v, want cannot-repair (fixture must stay unrepairable)", workers, res.Status)
		}
		if err := cli.Finish(); err != nil {
			t.Fatal(err)
		}
		tb, err := os.ReadFile(filepath.Join(dir, "run.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		if err := obs.ValidateRingJSONL(tb); err != nil {
			t.Fatalf("workers=%d: invalid trace: %v", workers, err)
		}
		st, err := obs.ScrubRingJSONL(tb)
		if err != nil {
			t.Fatal(err)
		}
		cb, err := os.ReadFile(filepath.Join(dir, "run_trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		return st, scrubChrome(t, cb)
	}
	t1, c1 := exports(1)
	t4, c4 := exports(4)
	if !bytes.Equal(t1, t4) {
		t.Errorf("scrubbed -trace-out differs between workers=1 and workers=4:\n--- w1 ---\n%s\n--- w4 ---\n%s", t1, t4)
	}
	if !bytes.Equal(c1, c4) {
		t.Errorf("scrubbed -chrome-out differs between workers=1 and workers=4:\n--- w1 ---\n%s\n--- w4 ---\n%s", c1, c4)
	}
}

// scrubChrome canonicalizes a Chrome trace the way ScrubRingJSONL does
// a ring dump: the per-worker metadata lanes and each span's ts, dur and
// tid go, as do the args that vary with worker count or wall clock, and
// the remaining span lines are sorted.
func scrubChrome(t *testing.T, data []byte) []byte {
	t.Helper()
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("chrome trace does not parse: %v", err)
	}
	var lines []string
	for _, ev := range events {
		if ev["ph"] == "M" {
			continue
		}
		delete(ev, "ts")
		delete(ev, "dur")
		delete(ev, "tid")
		if args, ok := ev["args"].(map[string]any); ok {
			for k := range args {
				if k == "workers" || strings.HasPrefix(k, "time_") {
					delete(args, k)
				}
			}
		}
		b, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(b))
	}
	if len(lines) == 0 {
		t.Fatal("chrome trace holds no spans")
	}
	sort.Strings(lines)
	return []byte(strings.Join(lines, "\n"))
}

// TestPhaseCoverage checks the acceptance bar that the phase spans
// account for >=95% of the repair wall clock: the root "repair" span's
// direct children must own (nearly) all of its duration, so a reader of
// the recorder stream never stares at unexplained time.
func TestPhaseCoverage(t *testing.T) {
	var bm *bench.Benchmark
	for _, b := range bench.Registry() {
		if b.Name == "counter_k1" {
			bm = b
			break
		}
	}
	if bm == nil {
		t.Fatal("benchmark counter_k1 not in registry")
	}
	tr, err := bm.Trace()
	if err != nil {
		t.Fatal(err)
	}
	m, err := bm.BuggyModule()
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(0)
	reg := obs.NewRegistry()
	ctx := obs.NewContext(context.Background(), obs.Scope{Rec: rec, Metrics: reg})
	res := core.RepairCtx(ctx, m, tr, core.Options{
		Policy:  sim.Randomize,
		Seed:    goldenSeed(bm, tr, 1),
		Timeout: 120 * time.Second,
		Workers: 1,
	})
	if res.Status != core.StatusRepaired {
		t.Fatalf("status = %v (reason %s)", res.Status, res.Reason)
	}

	// Rebuild the root's direct children from the span and parent ids
	// the span_end events carry.
	events := rec.Events()
	var root obs.Event
	for _, ev := range events {
		if ev.Kind == obs.EvSpanEnd && ev.Name == "repair" && ev.Parent == 0 {
			if root.Span != 0 {
				t.Fatal("multiple repair root spans")
			}
			root = ev
		}
	}
	if root.Span == 0 {
		t.Fatal("no repair root span in the stream")
	}
	durUS := func(ev obs.Event) int64 {
		for _, a := range ev.Attrs {
			if a.Key == "time_dur_us" {
				return a.Int
			}
		}
		t.Fatalf("span_end %s carries no time_dur_us", ev.Name)
		return 0
	}
	rootDur := durUS(root)
	var childDur int64
	for _, ev := range events {
		if ev.Kind == obs.EvSpanEnd && ev.Parent == root.Span {
			childDur += durUS(ev)
		}
	}
	if rootDur <= 0 {
		t.Fatalf("repair span duration %dus", rootDur)
	}
	coverage := float64(childDur) / float64(rootDur)
	t.Logf("repair %dus, phases %dus, coverage %.2f%%", rootDur, childDur, 100*coverage)
	if coverage < 0.95 {
		t.Errorf("phase spans cover %.2f%% of repair wall clock, want >= 95%%", 100*coverage)
	}

	// The metrics registry must carry the run's aggregates without any
	// verbose flag: the counters are fed from the always-populated Result.
	if reg.Counter("repair.runs") != 1 {
		t.Errorf("repair.runs = %d, want 1", reg.Counter("repair.runs"))
	}
	if reg.Counter("sat.propagations") == 0 {
		t.Error("sat.propagations not aggregated into metrics")
	}
	var mbuf bytes.Buffer
	if err := reg.WriteJSON(&mbuf); err != nil {
		t.Fatal(err)
	}
	var metrics map[string]any
	if err := json.Unmarshal(mbuf.Bytes(), &metrics); err != nil {
		t.Fatalf("metrics JSON does not parse: %v", err)
	}
	for _, key := range []string{"counters", "gauges", "histograms"} {
		if _, ok := metrics[key]; !ok {
			t.Errorf("metrics JSON missing %q section", key)
		}
	}
}
