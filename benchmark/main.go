// Command benchmark is the repository's benchmark of record. It repairs
// corpus designs through core.RepairCtx in a closed loop, one design in
// flight at a time, checks every verdict byte for byte against
// testdata/repair_goldens and with the independent event-driven
// simulator, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics) as the last line of standard output:
//
//	bash benchmark/run.sh --workload repair --seed 1 --seconds 25 --trace 0 -out run.json
//	bash benchmark/run.sh -compare a1.json,a2.json -- b1.json,b2.json
//
// It is a binary and not a `go test` benchmark on purpose: under
// `go test`, smt.NewSolver re-validates every Sat model
// (testing.Testing()), so a test benchmark would time checks that the
// shipped binaries never run. See README.md for the workloads, metrics
// and comparison method.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

func main() {
	if os.Getenv(probeEnv) != "" {
		runProbe(os.Stdin, os.Stdout)
		return
	}
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// metricDef names a metric, its unit and which direction is better.
type metricDef struct {
	name, unit, better string
}

// endToEndMetrics are measured with tracing off. Their regression
// bounds live in BENCHMARK.json.
var endToEndMetrics = []metricDef{
	{"wall_s", "s", "lower"},
	{"verdict_geomean_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

type designTimes struct {
	Name     string  `json:"name"`
	Passes   int     `json:"passes"`
	MedianMS float64 `json:"median_ms"`
}

// report is the full record of one run, written by -out and read by
// -compare.
type report struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Seconds  int    `json:"seconds"`
	Workers  int    `json:"workers"`
	Host     host   `json:"host"`
	Passes   int    `json:"passes"`
	result
	// FailedFrac is failed verdicts over attempted ones; WrongRepairs
	// counts reported repairs the event simulator rejects. Both are
	// correctness counts, not timings, so they stay out of BENCHMARK.json.
	FailedFrac   float64  `json:"failed_frac"`
	WrongRepairs int      `json:"wrong_repairs"`
	Failures     []string `json:"failures,omitempty"`
	// RepairS is the sum over designs of each design's median repair
	// time; in a traced run it is the traced repair time, which -compare
	// sets against an untraced wall_s to show the tracing overhead.
	RepairS float64       `json:"repair_s"`
	Designs []designTimes `json:"designs"`
	// Scale is the untraced run's host-speed factor (see calib.go); Raw
	// holds its end-to-end metrics with repair times unscaled.
	Scale float64            `json:"scale,omitempty"`
	Raw   map[string]float64 `json:"raw,omitempty"`
}

// config is one run's settings.
type config struct {
	root   string
	seed   int64
	budget time.Duration
	trace  bool
	// spans is where a traced run writes its span file.
	spans string
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: "+workloadNames())
		seed    = fs.Int64("seed", 1, "permutes the order of designs within each pass")
		seconds = fs.Int("seconds", 25, "measure whole passes until another would end past this many seconds")
		traced  = fs.Int("trace", 0, "1 runs one traced pass and reports the per-layer metrics")
		out     = fs.String("out", "", "also write the full run report to this JSON file")
		root    = fs.String("root", ".", "repository root, holding testdata/repair_goldens and BENCHMARK.json")
		compare = fs.String("compare", "", "comma-separated parent reports; the change's reports follow --")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare != "" {
		// Reports may also follow as separate arguments, as a shell glob
		// expands them; those before "--" belong to the parent.
		parents, changes := splitList(*compare), fs.Args()
		if i := slices.Index(changes, "--"); i >= 0 {
			parents = append(parents, changes[:i]...)
			changes = changes[i+1:]
		}
		if err := runCompare(*root, parents, splitList(strings.Join(changes, ",")), stdout); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	w := workloadByName(*name)
	if w == nil || (*traced != 0 && *traced != 1) || *seconds < 0 {
		fmt.Fprintf(stderr, "benchmark: need -workload (%s), -trace 0|1 and -seconds >= 0\n", workloadNames())
		return 2
	}
	cfg := config{
		root:   *root,
		seed:   *seed,
		budget: time.Duration(*seconds) * time.Second,
		trace:  *traced == 1,
		spans:  filepath.Join(*root, ".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", w.name, *seed)),
	}
	rep, err := runWorkload(w, cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	rep.Seconds = *seconds
	if *out != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// runWorkload sets up the workload's designs, runs it untraced or traced,
// and returns the run's report. Failed verdicts are reported, not
// returned as errors; an error means the run could not take place.
func runWorkload(w *workload, cfg config, stderr io.Writer) (*report, error) {
	ds, setupSamples, err := setup(cfg.root, w)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	var o *outcome
	var values, raw map[string]float64
	var scale float64
	defs := endToEndMetrics
	if cfg.trace {
		rec := newRecorder()
		o, values = traceRun(ds, w, rng, rec)
		defs = layerMetrics()
		if err := rec.writeJSONL(cfg.spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(stderr, "spans: %s\n", cfg.spans)
	} else {
		probe, err := startHostProbe()
		if err != nil {
			return nil, err
		}
		o = measure(ds, w, rng, cfg.budget)
		if scale, err = probe.stop(); err != nil {
			return nil, err
		}
		values = o.endToEnd(setupSamples, scale)
		raw = o.endToEnd(setupSamples, 1)
	}

	rep := &report{
		Workload: w.name,
		Seed:     cfg.seed,
		Trace:    cfg.trace,
		Workers:  workerCount(w),
		Host: host{
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Go:         runtime.Version(),
			OS:         runtime.GOOS,
			Arch:       runtime.GOARCH,
		},
		Passes:       o.passes,
		FailedFrac:   float64(len(o.failures)) / float64(o.attempted),
		WrongRepairs: o.wrong,
		Failures:     o.failures,
		RepairS:      o.repairSeconds(),
		Scale:        scale,
		Raw:          raw,
	}
	rep.Correct = len(o.failures) == 0
	rep.Attempted = o.attempted
	rep.Failed = len(o.failures)
	rep.Metrics = map[string]metric{}
	for _, m := range defs {
		rep.Metrics[m.name] = metric{Value: values[m.name], Unit: m.unit}
	}
	for i, med := range o.designMedians() {
		rep.Designs = append(rep.Designs, designTimes{Name: ds[i].b.Name, Passes: len(o.times[i]), MedianMS: med * 1e3})
	}

	fmt.Fprintf(stderr, "%s: %d passes, %d verdicts, %d failed, %d wrong repairs (host %d CPUs, %d workers, %s)\n",
		w.name, o.passes, o.attempted, len(o.failures), o.wrong, runtime.NumCPU(), workerCount(w), runtime.Version())
	for _, m := range defs {
		fmt.Fprintf(stderr, "  %-26s %14.4f %s\n", m.name, values[m.name], m.unit)
	}
	for _, f := range o.failures {
		fmt.Fprintln(stderr, "FAIL", f)
	}
	return rep, nil
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
