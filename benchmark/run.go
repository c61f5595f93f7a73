package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"rtlrepair/internal/bench"
	"rtlrepair/internal/core"
	"rtlrepair/internal/eval"
	"rtlrepair/internal/sim"
	"rtlrepair/internal/trace"
	"rtlrepair/internal/verilog"
)

// Golden-test settings: every verdict is compared byte for byte with
// testdata/repair_goldens, which were captured under these options.
const (
	repairTimeout = 120 * time.Second
	seedBase      = 1
	// eventCheckCycles truncates the trace for the independent event
	// simulator, as the evaluation's Table 4 checks do.
	eventCheckCycles = 3000
	// The set-up is repeated at least minSetupReps times and until
	// setupBudget has been spent, at most maxSetupReps times; setup_s is
	// the median, so cheap set-ups get more samples.
	minSetupReps = 3
	maxSetupReps = 9
	setupBudget  = 2 * time.Second
)

// design is one corpus design prepared for repeated repair.
type design struct {
	b      *bench.Benchmark
	tr     *trace.Trace
	lib    map[string]*verilog.Module
	seed   int64
	golden string

	// gtEvent caches whether the ground truth passes the event simulator
	// on the check trace; nil until first needed.
	gtEvent *bool
}

// verdict is one repair of one design.
type verdict struct {
	res *core.Result
	dur time.Duration
	// peakMB is the process's peak resident set during the repair.
	peakMB float64
	// failure is empty when the verdict matched its golden and the
	// event-simulator check agreed with knownWrongRepairs.
	failure string
	// wrong is set when a reported repair fails the event simulator on
	// a design whose ground truth passes it.
	wrong bool
}

// loadGoldens reads each design's golden verdict from the repository.
func loadGoldens(root string, names []string) (map[string]string, error) {
	out := map[string]string{}
	for _, name := range names {
		buf, err := os.ReadFile(filepath.Join(root, "testdata", "repair_goldens", name+".golden"))
		if err != nil {
			return nil, fmt.Errorf("golden for %s: %w", name, err)
		}
		out[name] = string(buf)
	}
	return out, nil
}

// setup prepares the workload's designs and times the preparation. The
// first repetition goes through the registry, which records each trace
// from the ground truth once and caches it; later repetitions record the
// traces again through the same public calls, so each sample is the
// set-up a fresh process pays. Every repetition also chooses each
// design's concretization seed.
func setup(root string, w *workload) ([]*design, []float64, error) {
	goldens, err := loadGoldens(root, w.designs)
	if err != nil {
		return nil, nil, err
	}
	var ds []*design
	var samples []float64
	var spent time.Duration
	for rep := 0; rep < maxSetupReps && (rep < minSetupReps || spent < setupBudget); rep++ {
		start := time.Now()
		for i, name := range w.designs {
			b := bench.ByName(name)
			if b == nil {
				return nil, nil, fmt.Errorf("design %s is not in the corpus", name)
			}
			var tr *trace.Trace
			if rep == 0 {
				tr, err = b.Trace()
			} else {
				tr, err = recordTrace(b)
			}
			if err != nil {
				return nil, nil, fmt.Errorf("%s: trace: %w", name, err)
			}
			seed := eval.ChooseSeed(b, seedBase)
			if rep > 0 {
				if ds[i].seed != seed || ds[i].tr.Len() != tr.Len() {
					return nil, nil, fmt.Errorf("%s: set-up is not deterministic", name)
				}
				continue
			}
			lib, err := b.LibModules()
			if err != nil {
				return nil, nil, err
			}
			ds = append(ds, &design{b: b, tr: tr, lib: lib, seed: seed, golden: goldens[name]})
		}
		d := time.Since(start)
		spent += d
		samples = append(samples, d.Seconds())
	}
	return ds, samples, nil
}

// recordTrace repeats the registry's trace recording: simulate the
// ground truth on the testbench stimulus (and the extended one, if any).
func recordTrace(b *bench.Benchmark) (*trace.Trace, error) {
	gt, err := b.GroundTruthSystem()
	if err != nil {
		return nil, err
	}
	tr := sim.RecordTrace(sim.NewCycleSim(gt, sim.KeepX, 0), b.Inputs, b.Outputs, b.Stimulus())
	if b.ExtStimulus != nil {
		sim.RecordTrace(sim.NewCycleSim(gt, sim.KeepX, 0), b.Inputs, b.Outputs, b.ExtStimulus())
	}
	return tr, nil
}

// options returns the golden-test repair settings for d.
func (d *design) options(w *workload) core.Options {
	return core.Options{
		Policy:  sim.Randomize,
		Seed:    d.seed,
		Timeout: repairTimeout,
		Lib:     d.lib,
		Workers: workerCount(w),
		Certify: w.certify,
	}
}

// workerCount caps the workload's portfolio width at the host's CPUs, so
// the benchmark never runs more solver goroutines than there are cores.
func workerCount(w *workload) int {
	return min(w.workers, runtime.NumCPU())
}

// repair parses the buggy source and times one RepairCtx call on it,
// starting from a collected heap with its free memory returned to the
// system, as a one-design rtlrepair process starts; so a design's time
// and memory do not depend on the design before it. A panic on the
// calling goroutine is reported as a failed verdict.
func (d *design) repair(opts core.Options) (v verdict) {
	m, err := verilog.ParseModule(d.b.Buggy)
	if err != nil {
		return verdict{failure: "parse: " + err.Error()}
	}
	defer func() {
		if r := recover(); r != nil {
			v = verdict{failure: fmt.Sprintf("panic: %v", r)}
		}
	}()
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return verdict{failure: err.Error()}
	}
	start := time.Now()
	res := core.RepairCtx(context.Background(), m, d.tr, opts)
	v = verdict{res: res, dur: time.Since(start)}
	if v.peakMB, err = peakRSSMB(); err != nil {
		v.failure = err.Error()
	}
	return v
}

// check compares a verdict with its golden and runs the independent
// event-simulator check on reported repairs.
func (d *design) check(v *verdict) {
	if v.failure != "" {
		return
	}
	res := v.res
	if res.Status == core.StatusTimeout {
		v.failure = "timeout: " + res.Reason
		return
	}
	if got := renderVerdict(res); got != d.golden {
		v.failure = "verdict differs from golden:\n" + got
		return
	}
	if res.Status != core.StatusRepaired && res.Status != core.StatusPreprocessed {
		return
	}
	if d.groundTruthPassesEventSim() {
		es, err := sim.NewEventSim(res.Repaired, d.lib)
		v.wrong = err != nil || !sim.RunEventTrace(es, d.checkTrace(), sim.RunOptions{Policy: sim.Zero}).Passed()
	}
	if v.wrong != knownWrongRepairs[d.b.Name] {
		v.failure = fmt.Sprintf("event simulator rejects repair: %v, knownWrongRepairs: %v", v.wrong, knownWrongRepairs[d.b.Name])
	}
}

// renderVerdict prints a result in the golden-file format.
func renderVerdict(res *core.Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "status: %s\ntemplate: %s\nchanges: %d\n", res.Status, res.Template, res.Changes)
	for _, desc := range res.ChangeDescs {
		fmt.Fprintf(&sb, "change: %s\n", desc)
	}
	sb.WriteString("----\n")
	if res.Repaired != nil {
		sb.WriteString(verilog.Print(res.Repaired))
	}
	return sb.String()
}

func (d *design) checkTrace() *trace.Trace {
	if d.tr.Len() > eventCheckCycles {
		return d.tr.Slice(0, eventCheckCycles)
	}
	return d.tr
}

func (d *design) groundTruthPassesEventSim() bool {
	if d.gtEvent == nil {
		pass := false
		if m, err := d.b.GroundTruthModule(); err == nil {
			if es, err := sim.NewEventSim(m, d.lib); err == nil {
				pass = sim.RunEventTrace(es, d.checkTrace(), sim.RunOptions{Policy: sim.Zero}).Passed()
			}
		}
		d.gtEvent = &pass
	}
	return *d.gtEvent
}

// outcome collects the verdicts of a run.
type outcome struct {
	// times[i] and peaks[i] hold design i's repair times and peak
	// resident sets, one per pass.
	times     [][]time.Duration
	peaks     [][]float64
	passes    int
	attempted int
	failures  []string
	wrong     int
}

func (o *outcome) add(d *design, i int, v verdict) {
	o.attempted++
	o.times[i] = append(o.times[i], v.dur)
	o.peaks[i] = append(o.peaks[i], v.peakMB)
	if v.wrong {
		o.wrong++
	}
	if v.failure != "" {
		o.failures = append(o.failures, d.b.Name+": "+v.failure)
	}
}

// newOutcome returns an empty outcome for n designs.
func newOutcome(n int) *outcome {
	return &outcome{times: make([][]time.Duration, n), peaks: make([][]float64, n)}
}

// measure repairs every design once per pass, in an order drawn from
// rng, until another pass would end past the budget. At least one pass
// always runs. Load is a closed loop: one repair is in flight at a time.
func measure(ds []*design, w *workload, rng *rand.Rand, budget time.Duration) *outcome {
	o := newOutcome(len(ds))
	start := time.Now()
	for {
		passStart := time.Now()
		for _, i := range rng.Perm(len(ds)) {
			v := ds[i].repair(ds[i].options(w))
			ds[i].check(&v)
			o.add(ds[i], i, v)
		}
		o.passes++
		if time.Since(start)+time.Since(passStart) > budget {
			return o
		}
	}
}

// designMedians returns each design's median repair time across
// passes, in seconds.
func (o *outcome) designMedians() []float64 {
	out := make([]float64, len(o.times))
	for i, ts := range o.times {
		s := make([]float64, len(ts))
		for j, t := range ts {
			s[j] = t.Seconds()
		}
		out[i] = median(s)
	}
	return out
}

// repairSeconds sums each design's median repair time across passes.
func (o *outcome) repairSeconds() float64 {
	var sum float64
	for _, m := range o.designMedians() {
		sum += m
	}
	return sum
}

// endToEnd computes the untraced metrics of a run, with the repair
// times multiplied by scale.
func (o *outcome) endToEnd(setupSamples []float64, scale float64) map[string]float64 {
	var logSum, peaks float64
	for i, ts := range o.times {
		for _, t := range ts {
			logSum += math.Log(float64(t.Nanoseconds()) / 1e6)
		}
		peaks += median(o.peaks[i])
	}
	return map[string]float64{
		"wall_s":             scale * o.repairSeconds(),
		"verdict_geomean_ms": scale * math.Exp(logSum/float64(o.attempted)),
		"setup_s":            median(setupSamples),
		"peak_rss_mb":        peaks / float64(len(o.peaks)),
	}
}

// resetPeakRSS restarts the kernel's record of this process's peak
// resident set (Linux).
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's peak resident set since the last reset.
func peakRSSMB() (float64, error) {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
