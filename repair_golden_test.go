package rtlrepair_test

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rtlrepair/internal/bench"
	"rtlrepair/internal/core"
	"rtlrepair/internal/obs"
	"rtlrepair/internal/sat"
	"rtlrepair/internal/sim"
	"rtlrepair/internal/trace"
	"rtlrepair/internal/verilog"
)

var updateGoldens = flag.Bool("update-goldens", false, "rewrite testdata/repair_goldens from the current engine")

// goldenSeed mirrors the evaluation's seed choice: the first seed under
// which the buggy design actually fails its testbench, so randomized
// unknown values cannot mask the bug.
func goldenSeed(b *bench.Benchmark, tr *trace.Trace, base int64) int64 {
	sys, err := b.BuggySystem()
	if err != nil {
		return base
	}
	for seed := base; seed < base+8; seed++ {
		init, ctr := core.Concretize(sys, tr, sim.Randomize, seed)
		cs := sim.NewCycleSim(sys, sim.Zero, 0)
		for name, v := range init {
			cs.SetState(name, v)
		}
		if !sim.RunTraceFrom(cs, ctr, 0, sim.RunOptions{Policy: sim.Zero}).Passed() {
			return seed
		}
	}
	return base
}

// goldenRepair runs one benchmark through the repair engine with the
// golden-test settings and renders the deterministic part of the result;
// the raw result is returned beside it for checks on its statistics.
// The obs scope is threaded through so golden runs can record into a
// private flight recorder; a zero scope records into obs.Default().
func goldenRepair(t *testing.T, b *bench.Benchmark, opts core.Options, sc obs.Scope) (string, *core.Result, time.Duration) {
	t.Helper()
	tr, err := b.Trace()
	if err != nil {
		t.Fatalf("%s: trace: %v", b.Name, err)
	}
	m, err := b.BuggyModule()
	if err != nil {
		t.Fatalf("%s: parse: %v", b.Name, err)
	}
	lib, err := b.LibModules()
	if err != nil {
		t.Fatalf("%s: lib: %v", b.Name, err)
	}
	opts.Policy = sim.Randomize
	opts.Seed = goldenSeed(b, tr, 1)
	opts.Lib = lib
	if opts.Timeout == 0 {
		opts.Timeout = 120 * time.Second
	}
	start := time.Now()
	res := core.RepairCtx(obs.NewContext(context.Background(), sc), m, tr, opts)
	dur := time.Since(start)
	var sb strings.Builder
	fmt.Fprintf(&sb, "status: %s\ntemplate: %s\nchanges: %d\n", res.Status, res.Template, res.Changes)
	for _, d := range res.ChangeDescs {
		fmt.Fprintf(&sb, "change: %s\n", d)
	}
	sb.WriteString("----\n")
	if res.Repaired != nil {
		sb.WriteString(verilog.Print(res.Repaired))
	}
	return sb.String(), res, dur
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "repair_goldens", name+".golden")
}

// satStatsPath pins the CDCL search itself, not only its verdicts: one
// line per design with the counters of every solver the workers=1 run
// built. A change to clause memory that keeps the search must leave
// every line as it is.
var satStatsPath = filepath.Join("testdata", "sat_stats.golden")

func satStatsLine(st sat.Statistics) string {
	return fmt.Sprintf("conflicts=%d decisions=%d propagations=%d restarts=%d learned=%d",
		st.Conflicts, st.Decisions, st.Propagations, st.Restarts, st.Learned)
}

// readSATStats parses satStatsPath into design → counters line. A
// missing file reads as empty so -update-goldens can create it.
func readSATStats(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(satStatsPath)
	if os.IsNotExist(err) {
		return map[string]string{}
	}
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, stats, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", satStatsPath, line)
		}
		out[name] = stats
	}
	return out
}

// writeSATStats rewrites satStatsPath in registry order.
func writeSATStats(t *testing.T, stats map[string]string) {
	t.Helper()
	var sb strings.Builder
	for _, b := range bench.Registry() {
		if line, ok := stats[b.Name]; ok {
			fmt.Fprintf(&sb, "%s %s\n", b.Name, line)
		}
	}
	if err := os.WriteFile(satStatsPath, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRepairGoldens pins the repair engine's output on every benchmark
// design: status, template, change count, change descriptions and the
// byte-exact repaired source. The goldens are captured from the unified
// per-attempt engine at workers=1 (see DESIGN.md for why the balanced
// encodings and incremental window reuse shifted a handful of designs
// to different equally-minimal repairs); workers=1 must reproduce them
// byte-for-byte, and the parallel portfolio must select the same result.
// The same sweep checks each design's aggregate SAT counters against
// testdata/sat_stats.golden, so the search that found the repair is
// pinned too.
func TestRepairGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full benchmark suite")
	}
	stats := readSATStats(t)
	if *updateGoldens {
		defer writeSATStats(t, stats)
	}
	for _, b := range bench.Registry() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			got, res, dur := goldenRepair(t, b, core.Options{Workers: 1}, obs.Scope{})
			if strings.Contains(got, "status: timeout") {
				t.Skipf("%s: timeout-bound design, not byte-comparable", b.Name)
			}
			path := goldenPath(b.Name)
			line := satStatsLine(res.SAT)
			if *updateGoldens {
				stats[b.Name] = line
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("updated %s (%.2fs)", path, dur.Seconds())
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update-goldens): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s: result differs from the pinned golden\n--- got ---\n%s\n--- want ---\n%s",
					b.Name, got, want)
			}
			if want, ok := stats[b.Name]; !ok {
				t.Errorf("%s: no line in %s (run with -update-goldens)", b.Name, satStatsPath)
			} else if line != want {
				t.Errorf("%s: SAT search differs from %s\n got: %s\nwant: %s", b.Name, satStatsPath, line, want)
			}
			t.Logf("%s: %.2fs", b.Name, dur.Seconds())
		})
	}
}

// TestPortfolioMatchesSequential runs the parallel portfolio on every
// benchmark design and requires the selected repair to be byte-identical
// to the sequential engine's golden output: same status, template,
// change count, change descriptions and repaired source. Every run
// records into a private recorder that never wraps, which doubles as the
// suite-wide check that recording never perturbs repair results, that
// every design yields a schema-valid stream with no dropped event, and
// that no span or solver cell is left open once RepairCtx returns.
func TestPortfolioMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full benchmark suite")
	}
	for _, b := range bench.Registry() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			rec := obs.NewRecorder(0)
			got, _, dur := goldenRepair(t, b, core.Options{Workers: 4}, obs.Scope{Rec: rec})
			if n := rec.Dropped(); n != 0 {
				t.Errorf("%s: recorder dropped %d events", b.Name, n)
			}
			if live := rec.LiveSpans(); len(live) != 0 {
				t.Errorf("%s: %d spans left open after the run, first %q", b.Name, len(live), live[0].Name)
			}
			if cells := rec.Solvers(); len(cells) != 0 {
				t.Errorf("%s: %d solver cells left open after the run", b.Name, len(cells))
			}
			var buf bytes.Buffer
			if err := rec.WriteRingJSONL(&buf); err != nil {
				t.Fatal(err)
			}
			if err := obs.ValidateRingJSONL(buf.Bytes()); err != nil {
				t.Errorf("%s: portfolio run recorded an invalid stream: %v", b.Name, err)
			}
			if strings.Contains(got, "status: timeout") {
				t.Skipf("%s: timeout-bound design, not byte-comparable", b.Name)
			}
			want, err := os.ReadFile(goldenPath(b.Name))
			if err != nil {
				t.Fatalf("missing golden (run TestRepairGoldens with -update-goldens): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s: portfolio result differs from sequential engine\n--- got ---\n%s\n--- want ---\n%s",
					b.Name, got, want)
			}
			t.Logf("%s: %.2fs", b.Name, dur.Seconds())
		})
	}
}
