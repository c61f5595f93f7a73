package main

import (
	"bufio"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rtlrepair/internal/bv"
	"rtlrepair/internal/core"
	"rtlrepair/internal/lint"
	"rtlrepair/internal/sat"
	"rtlrepair/internal/sim"
	"rtlrepair/internal/smt"
	"rtlrepair/internal/synth"
	"rtlrepair/internal/trace"
	"rtlrepair/internal/tsys"
	"rtlrepair/internal/verilog"
)

// layerGroup is a set of per-layer metrics with the end-to-end metrics
// ("workload.metric") a change to that layer should move, and those it
// should leave unchanged.
type layerGroup struct {
	metrics []metricDef
	moves   []string
	holds   []string
}

// layerGroups lists every per-layer metric of a traced run, written down
// before measuring as the choosing-metrics method asks.
var layerGroups = []layerGroup{
	{
		metrics: []metricDef{
			{"verilog.parse_ms", "ms", "lower"},
			{"lint.preprocess_ms", "ms", "lower"},
			{"synth.elaborate_ms", "ms", "lower"},
		},
		moves: []string{"repair.verdict_geomean_ms"},
	},
	{
		metrics: []metricDef{{"core.concretize_ms", "ms", "lower"}},
		moves:   []string{"repair.verdict_geomean_ms", "repair.setup_s"},
	},
	{
		metrics: []metricDef{
			{"sim.replay_ms", "ms", "lower"},
			{"sim.cycles_per_s", "1/s", "higher"},
			{"sim.allocs_per_cycle", "allocs/cycle", "lower"},
		},
		moves: []string{"repair.wall_s", "repair.verdict_geomean_ms", "repair.setup_s"},
		holds: []string{"search.wall_s"},
	},
	{
		metrics: []metricDef{{"core.backend_ms", "ms", "lower"}},
		moves:   []string{"repair.wall_s", "search.wall_s", "certify.wall_s"},
	},
	{
		metrics: []metricDef{
			{"core.attempts_ran", "count", "lower"},
			{"core.attempts_cancelled", "count", "lower"},
			{"core.attempts_skipped", "count", "higher"},
			{"core.cancelled_busy_frac", "frac", "lower"},
		},
		moves: []string{"repair.verdict_geomean_ms"},
		holds: []string{"certify.wall_s"},
	},
	{
		metrics: []metricDef{
			{"core.windows", "count", "lower"},
			{"core.solver_builds", "count", "lower"},
			{"core.prefix_cycles", "count", "lower"},
		},
		moves: []string{"search.wall_s"},
	},
	{
		metrics: []metricDef{
			{"smt.cnf_vars", "count", "lower"},
			{"smt.cnf_clauses", "count", "lower"},
		},
		moves: []string{"search.wall_s", "certify.wall_s"},
	},
	{
		metrics: []metricDef{
			{"sat.conflicts", "count", "lower"},
			{"sat.propagations", "count", "lower"},
			{"sat.props_per_attempt_s", "1/s", "higher"},
			{"sat.share_admit_frac", "frac", "higher"},
		},
		moves: []string{"search.wall_s"},
	},
	{
		metrics: []metricDef{
			{"drat.proof_steps", "count", "lower"},
			{"drat.check_ms", "ms", "lower"},
			{"drat.steps_per_s", "1/s", "higher"},
			{"drat.check_frac", "frac", "lower"},
		},
		moves: []string{"certify.wall_s"},
	},
	{
		metrics: []metricDef{
			{"go.alloc_mb", "MB", "lower"},
			{"go.gc_cycles", "count", "lower"},
		},
		moves: []string{
			"repair.peak_rss_mb", "search.peak_rss_mb", "certify.peak_rss_mb",
			"repair.wall_s", "search.wall_s", "certify.wall_s",
		},
	},
}

// layerMetrics flattens layerGroups.
func layerMetrics() []metricDef {
	var out []metricDef
	for _, g := range layerGroups {
		out = append(out, g.metrics...)
	}
	return out
}

// span is one timed call into a layer's public function. Spans are kept
// in memory and written out when the run ends.
type span struct {
	id, parent int
	name       string
	design     string
	start, end time.Duration // since the recorder's origin
}

// recorder holds a run's spans. The benchmark calls the layers from one
// goroutine, so it needs no locking.
type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// start opens a span and returns its id (ids start at 1; parent 0 is
// the root).
func (r *recorder) start(name, design string, parent int) int {
	r.spans = append(r.spans, span{id: len(r.spans) + 1, parent: parent, name: name, design: design, start: time.Since(r.origin)})
	return len(r.spans)
}

// end closes span id and returns its duration.
func (r *recorder) end(id int) time.Duration {
	s := &r.spans[id-1]
	s.end = time.Since(r.origin)
	return s.end - s.start
}

// selfTimes returns each span's duration minus its children's. Children
// run sequentially inside their parent, so their durations do not overlap.
func (r *recorder) selfTimes() []time.Duration {
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.end - s.start
		if s.parent > 0 {
			self[s.parent-1] -= s.end - s.start
		}
	}
	return self
}

// totalsByName sums span durations per span name, in milliseconds.
func (r *recorder) totalsByName() map[string]float64 {
	out := map[string]float64{}
	for _, s := range r.spans {
		out[s.name] += float64((s.end - s.start).Nanoseconds()) / 1e6
	}
	return out
}

// writeJSONL writes one JSON object per span; times are nanoseconds
// since the start of the traced run.
func (r *recorder) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	self := r.selfTimes()
	for i, s := range r.spans {
		rec := struct {
			ID     int    `json:"id"`
			Parent int    `json:"parent"`
			Name   string `json:"name"`
			Design string `json:"design"`
			Start  int64  `json:"start"`
			End    int64  `json:"end"`
			Self   int64  `json:"self"`
		}{s.id, s.parent, s.name, s.design, s.start.Nanoseconds(), s.end.Nanoseconds(), self[i].Nanoseconds()}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerCounts accumulates the counters a traced run reads from results.
type layerCounts struct {
	replayCycles, replayAllocs uint64

	ran, cancelled, skipped    int
	attemptBusy, cancelledBusy time.Duration
	windows, builds, prefixCyc int
	sat                        sat.Statistics
	proofSteps                 int
	checkTime                  time.Duration
}

// traceRun repairs each design once, splitting the repair into calls to
// the layers' public functions, each wrapped in a span. The repair
// itself is core.NewFrontend followed by core.RepairCtx on that
// frontend; its verdict is checked like an untraced one, and its time
// (frontend plus backend) is the traced repair time.
func traceRun(ds []*design, w *workload, rng *rand.Rand, rec *recorder) (*outcome, map[string]float64) {
	o := newOutcome(len(ds))
	o.passes = 1
	var c layerCounts
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, i := range rng.Perm(len(ds)) {
		d := ds[i]
		runtime.GC() // start each design from a collected heap; forced GCs are not counted
		v := traceDesign(d, w, rec, &c)
		d.check(&v)
		o.add(d, i, v)
	}
	runtime.ReadMemStats(&after)

	ms := rec.totalsByName()
	frac := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	imported, rejected := float64(c.sat.SharedImported), float64(c.sat.SharedRejected)
	return o, map[string]float64{
		"verilog.parse_ms":         ms["verilog.parse"],
		"lint.preprocess_ms":       ms["lint.preprocess"],
		"synth.elaborate_ms":       ms["synth.elaborate"],
		"core.concretize_ms":       ms["core.concretize"],
		"sim.replay_ms":            ms["sim.replay"],
		"sim.cycles_per_s":         frac(float64(c.replayCycles), ms["sim.replay"]/1e3),
		"sim.allocs_per_cycle":     frac(float64(c.replayAllocs), float64(c.replayCycles)),
		"core.backend_ms":          ms["core.backend"],
		"core.attempts_ran":        float64(c.ran),
		"core.attempts_cancelled":  float64(c.cancelled),
		"core.attempts_skipped":    float64(c.skipped),
		"core.cancelled_busy_frac": frac(c.cancelledBusy.Seconds(), c.attemptBusy.Seconds()),
		"core.windows":             float64(c.windows),
		"core.solver_builds":       float64(c.builds),
		"core.prefix_cycles":       float64(c.prefixCyc),
		"smt.cnf_vars":             float64(c.sat.Vars),
		"smt.cnf_clauses":          float64(c.sat.Clauses),
		"sat.conflicts":            float64(c.sat.Conflicts),
		"sat.propagations":         float64(c.sat.Propagations),
		"sat.props_per_attempt_s":  frac(float64(c.sat.Propagations), c.attemptBusy.Seconds()),
		"sat.share_admit_frac":     frac(imported, imported+rejected),
		"drat.proof_steps":         float64(c.proofSteps),
		"drat.check_ms":            float64(c.checkTime.Nanoseconds()) / 1e6,
		"drat.steps_per_s":         frac(float64(c.proofSteps), c.checkTime.Seconds()),
		"drat.check_frac":          frac(float64(c.checkTime.Nanoseconds())/1e6, ms["core.backend"]),
		"go.alloc_mb":              float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		"go.gc_cycles":             float64((after.NumGC - after.NumForcedGC) - (before.NumGC - before.NumForcedGC)),
	}
}

// traceDesign runs the layer probes and the split repair for one design.
func traceDesign(d *design, w *workload, rec *recorder, c *layerCounts) verdict {
	name := d.b.Name
	root := rec.start("design", name, 0)
	defer rec.end(root)
	probe := func(layer string, call func()) {
		id := rec.start(layer, name, root)
		call()
		rec.end(id)
	}

	var m *verilog.Module
	var err error
	probe("verilog.parse", func() {
		m, err = verilog.ParseModule(d.b.Buggy)
		for _, src := range d.b.Lib {
			if err == nil {
				_, err = verilog.ParseModule(src)
			}
		}
	})
	if err != nil {
		return verdict{failure: "parse: " + err.Error()}
	}
	var fixed *verilog.Module
	probe("lint.preprocess", func() { fixed, _, _, err = lint.PreprocessWithReport(m, d.lib) })
	var sys *tsys.System
	if err == nil {
		probe("synth.elaborate", func() { sys, _, err = synth.Elaborate(smt.NewContext(), fixed, synth.Options{Lib: d.lib}) })
	}
	// A design the frontend rejects has no system to concretize or
	// replay; its repair below reports cannot-repair.
	if err == nil {
		var init map[string]bv.XBV
		var ctr *trace.Trace
		probe("core.concretize", func() { init, ctr = core.Concretize(sys, d.tr, sim.Randomize, d.seed) })
		cs := sim.NewCycleSim(sys, sim.Zero, 0)
		for st, v := range init {
			cs.SetState(st, v)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var run *sim.RunResult
		probe("sim.replay", func() { run = sim.RunTraceFrom(cs, ctr, 0, sim.RunOptions{Policy: sim.Zero, RunAll: true}) })
		runtime.ReadMemStats(&after)
		c.replayCycles += uint64(run.Cycles)
		c.replayAllocs += after.Mallocs - before.Mallocs
	}

	// The split repair runs on a fresh parse, as an untraced repair does.
	m, err = verilog.ParseModule(d.b.Buggy)
	if err != nil {
		return verdict{failure: "parse: " + err.Error()}
	}
	opts := d.options(w)
	id := rec.start("core.frontend", name, root)
	opts.Frontend = core.NewFrontend(m, d.lib, false)
	frontend := rec.end(id)
	id = rec.start("core.backend", name, root)
	res := core.RepairCtx(context.Background(), m, d.tr, opts)
	backend := rec.end(id)

	for _, at := range res.PerTemplate {
		switch at.State {
		case core.AttemptRan:
			c.ran++
		case core.AttemptCancelled:
			c.cancelled++
			c.cancelledBusy += at.Duration
		case core.AttemptSkipped:
			c.skipped++
		}
		c.attemptBusy += at.Duration
		c.windows += at.Stats.Windows
		c.builds += at.Stats.SolverBuilds
		c.prefixCyc += at.Stats.PrefixCycles
	}
	c.sat.Add(res.SAT)
	c.proofSteps += res.Certify.ProofSteps
	c.checkTime += res.Certify.CheckTime
	return verdict{res: res, dur: frontend + backend}
}
