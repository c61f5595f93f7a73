package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"rtlrepair/internal/bench"
)

const root = ".."

// TestMain lets the test binary serve as the host-speed probe process,
// as the benchmark binary does.
func TestMain(m *testing.M) {
	if os.Getenv(probeEnv) != "" {
		runProbe(os.Stdin, os.Stdout)
		return
	}
	os.Exit(m.Run())
}

// goldenStatus reads a design's golden verdict status.
func goldenStatus(t *testing.T, name string) string {
	t.Helper()
	g, err := loadGoldens(root, []string{name})
	if err != nil {
		t.Fatal(err)
	}
	status, _, _ := strings.Cut(strings.TrimPrefix(g[name], "status: "), "\n")
	return status
}

// TestWorkloadsPartitionCorpus pins the split of the corpus: every design
// is in exactly one of repair and search, by golden verdict, with
// sha3_r1 (a repair that is almost all SAT search) in search.
func TestWorkloadsPartitionCorpus(t *testing.T) {
	seen := map[string]string{}
	for _, wl := range []string{"repair", "search"} {
		for _, name := range workloadByName(wl).designs {
			if prev, ok := seen[name]; ok {
				t.Errorf("%s is in both %s and %s", name, prev, wl)
			}
			seen[name] = wl
		}
	}
	for _, name := range bench.Names() {
		wl, ok := seen[name]
		if !ok {
			t.Errorf("%s is in neither repair nor search", name)
			continue
		}
		status := goldenStatus(t, name)
		want := "search"
		switch {
		case name == "sha3_r1":
		case status == "repaired", status == "repaired-by-preprocessing", status == "no-repair-needed":
			want = "repair"
		case status != "cannot-repair":
			t.Errorf("%s: unexpected golden status %q", name, status)
		}
		if wl != want {
			t.Errorf("%s (golden %s) is in %s, want %s", name, status, wl, want)
		}
	}
	if len(seen) != len(bench.Names()) {
		t.Errorf("repair and search hold %d designs, the corpus %d", len(seen), len(bench.Names()))
	}
}

func TestCertifyDesignsExist(t *testing.T) {
	w := workloadByName("certify")
	if !w.certify || w.workers != 1 {
		t.Errorf("certify workload: certify=%v workers=%d, want true and 1", w.certify, w.workers)
	}
	for _, name := range w.designs {
		if bench.ByName(name) == nil {
			t.Errorf("certify design %s is not in the corpus", name)
		}
	}
	for name := range knownWrongRepairs {
		if bench.ByName(name) == nil {
			t.Errorf("known wrong repair %s is not in the corpus", name)
		}
	}
}

// decodeStrict decodes buf into v, rejecting unknown keys.
func decodeStrict(t *testing.T, buf []byte, v any) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
}

// TestBenchmarkJSON checks BENCHMARK.json against its format and against
// what the program emits.
func TestBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	decodeStrict(t, buf, &spec)
	var keys map[string]json.RawMessage
	decodeStrict(t, buf, &keys)
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want 6", len(keys))
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	names := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("bad name %q", n)
		}
		if names[n] {
			t.Errorf("name %q used twice", n)
		}
		names[n] = true
	}

	if !slices.Equal(spec.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", spec.Paths)
	}
	if len(spec.Command) == 0 || !slices.Contains(spec.Command, "benchmark/run.sh") {
		t.Errorf("command %v does not run benchmark/run.sh", spec.Command)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}

	var wls []string
	for _, w := range spec.Workloads {
		checkName(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: bad why %q", w.Name, w.Why)
		}
		wls = append(wls, w.Name)
	}
	var progWls []string
	for _, w := range workloads {
		progWls = append(progWls, w.name)
	}
	if !slices.Equal(wls, progWls) {
		t.Errorf("workloads %v, program has %v", wls, progWls)
	}

	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if len(spec.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(endToEndMetrics))
	}
	var setupBound, maxBound float64
	for i, m := range spec.EndToEnd {
		checkName(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("bad unit %q", m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		if got := (metricDef{m.Name, m.Unit, m.Better}); got != endToEndMetrics[i] {
			t.Errorf("end_to_end[%d] = %v, program has %v", i, got, endToEndMetrics[i])
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = max(maxBound, m.Bound)
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %v, want the largest (%v)", setupBound, maxBound)
	}

	layers := layerMetrics()
	if n := len(spec.PerLayer); n < 1 || n > 128 || n != len(layers) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", n, len(layers))
	}
	for i, m := range spec.PerLayer {
		checkName(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("bad unit %q", m.Unit)
		}
		if got := (metricDef{m.Name, m.Unit, m.Better}); got != layers[i] {
			t.Errorf("per_layer[%d] = %v, program has %v", i, got, layers[i])
		}
	}
}

// TestLayerMapTargets checks that each layer metric predicts its effect
// on end-to-end metrics and workloads that exist.
func TestLayerMapTargets(t *testing.T) {
	for _, g := range layerGroups {
		if len(g.moves) == 0 {
			t.Errorf("%v: moves no end-to-end metric", g.metrics)
		}
		for _, target := range append(slices.Clone(g.moves), g.holds...) {
			wl, m, _ := strings.Cut(target, ".")
			if workloadByName(wl) == nil {
				t.Errorf("%s: no workload %s", target, wl)
			}
			if !slices.ContainsFunc(endToEndMetrics, func(d metricDef) bool { return d.name == m }) {
				t.Errorf("%s: no end-to-end metric %s", target, m)
			}
		}
	}
}

var smoke = workload{name: "smoke", designs: []string{"counter_k1", "flop_w1", "fsm_s2"}, workers: 2}

// TestSmokeRun runs one quick untraced pass and checks that it passes
// every correctness check and reports every end-to-end metric.
func TestSmokeRun(t *testing.T) {
	start := time.Now()
	rep, err := runWorkload(&smoke, config{root: root, seed: 1}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("smoke run took %v", d)
	}
	if !rep.Correct || rep.Failed != 0 || rep.FailedFrac != 0 || rep.Attempted != len(smoke.designs) {
		t.Errorf("correct=%v attempted=%d failed=%d failures=%v", rep.Correct, rep.Attempted, rep.Failed, rep.Failures)
	}
	for _, m := range endToEndMetrics {
		got, ok := rep.Metrics[m.name]
		if !ok || got.Unit != m.unit || !(got.Value > 0) {
			t.Errorf("metric %s = %+v", m.name, got)
		}
	}
}

// TestTracedSmokeRun checks that a traced run reports every layer metric
// and writes a well-formed span file.
func TestTracedSmokeRun(t *testing.T) {
	spans := filepath.Join(t.TempDir(), "spans.jsonl")
	rep, err := runWorkload(&smoke, config{root: root, seed: 1, trace: true, spans: spans}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Errorf("failures: %v", rep.Failures)
	}
	for _, m := range layerMetrics() {
		if got, ok := rep.Metrics[m.name]; !ok || got.Unit != m.unit {
			t.Errorf("layer metric %s = %+v", m.name, got)
		}
	}
	f, err := os.Open(spans)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	names := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s struct {
			ID, Parent       int
			Name, Design     string
			Start, End, Self int64
		}
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		if s.End < s.Start || s.Self < 0 || s.Self > s.End-s.Start || s.Parent >= s.ID {
			t.Errorf("bad span %+v", s)
		}
		names[s.Name]++
	}
	for _, n := range []string{"design", "verilog.parse", "lint.preprocess", "synth.elaborate",
		"core.concretize", "sim.replay", "core.frontend", "core.backend"} {
		if names[n] != len(smoke.designs) {
			t.Errorf("%d %s spans, want %d", names[n], n, len(smoke.designs))
		}
	}
}

func TestQuantileMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestClassify(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v + d
		}
		return out
	}
	for _, tc := range []struct {
		change []float64
		better string
		want   string
	}{
		{shift(0), "lower", "unchanged"},
		{shift(-5), "lower", "better"},
		{shift(5), "lower", "unchanged"},
		{shift(20), "lower", "worse"},
		{shift(20), "higher", "better"},
		{[]float64{60, 140, 60, 140, 60, 140, 60, 140, 60, 140}, "lower", "unchanged"},
	} {
		if got, _, _ := classify(parent, tc.change, tc.better, 0.1); got != tc.want {
			t.Errorf("classify(%v, %s) = %s, want %s", tc.change, tc.better, got, tc.want)
		}
	}
	noisy := []float64{60, 140, 60, 140, 60, 140, 60, 140, 60, 140}
	if got, _, _ := classify(noisy, shift(0), "lower", 0.1); got != "unresolved" {
		t.Errorf("noisy parent: %s, want unresolved", got)
	}
}
