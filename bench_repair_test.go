package rtlrepair_test

import (
	"testing"
	"time"

	"rtlrepair/internal/bench"
	"rtlrepair/internal/core"
	"rtlrepair/internal/sim"
)

// benchOpts are the per-design repair settings shared by all benchmarks;
// the worker count is the variable under measurement.
func benchOpts(bm *bench.Benchmark, workers int) core.Options {
	lib, _ := bm.LibModules()
	return core.Options{
		Policy:  sim.Randomize,
		Seed:    1,
		Timeout: 120 * time.Second,
		Lib:     lib,
		Workers: workers,
	}
}

// runRepair executes one repair of the named design, with the trace
// recording (cached in the registry) warmed up outside the timer.
func runRepair(b *testing.B, name string, opts func(*bench.Benchmark) core.Options) {
	b.Helper()
	bm := bench.ByName(name)
	if bm == nil {
		b.Fatalf("unknown benchmark %s", name)
	}
	tr, err := bm.Trace()
	if err != nil {
		b.Fatal(err)
	}
	m, err := bm.BuggyModule()
	if err != nil {
		b.Fatal(err)
	}
	o := opts(bm)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := core.Repair(m, tr, o)
		if res.Status == core.StatusTimeout {
			b.Fatalf("%s: status = %v (%s)", name, res.Status, res.Reason)
		}
	}
}

// BenchmarkSingleTemplate measures one template's instrument + encode +
// solve cycle with no portfolio around it.
func BenchmarkSingleTemplate(b *testing.B) {
	runRepair(b, "counter_w2", func(bm *bench.Benchmark) core.Options {
		o := benchOpts(bm, 1)
		o.Templates = []core.Template{core.ReplaceLiterals{}}
		return o
	})
}

// BenchmarkPortfolio measures the full repair flow on CirFix designs
// where several templates do comparable solving work — counter_k1 and
// sdram_w1 repair via the last template in sequence, fsm_w1 and i2c_w2
// exhaust every attempt — so the sequential engine pays for each attempt
// in turn while the parallel portfolio overlaps them. On hosts with
// fewer cores than workers the parallel numbers reflect time-slicing;
// benchmark/ (the benchmark of record) measures real wall time at
// workers 2.
func BenchmarkPortfolio(b *testing.B) {
	for _, name := range []string{"counter_k1", "sdram_w1", "fsm_w1", "i2c_w2"} {
		for _, workers := range []int{1, 4} {
			b.Run(name+"/workers="+itoa(workers), func(b *testing.B) {
				runRepair(b, name, func(bm *bench.Benchmark) core.Options {
					return benchOpts(bm, workers)
				})
			})
		}
	}
}

// BenchmarkWindowedVsBasic compares the adaptive window search against
// the basic whole-trace encoding (§4.4 ablation) on a design with a long
// testbench and a late first failure.
func BenchmarkWindowedVsBasic(b *testing.B) {
	for _, mode := range []struct {
		name  string
		basic bool
	}{{"windowed", false}, {"basic", true}} {
		b.Run(mode.name, func(b *testing.B) {
			runRepair(b, "decoder_w1", func(bm *bench.Benchmark) core.Options {
				o := benchOpts(bm, 1)
				o.Basic = mode.basic
				return o
			})
		})
	}
}

func itoa(n int) string {
	if n < 10 {
		return string(rune('0' + n))
	}
	return string(rune('0'+n/10)) + string(rune('0'+n%10))
}
