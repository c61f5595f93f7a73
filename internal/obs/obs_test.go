package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// TestNilSafety drives the entire disabled surface: zero scope, nil
// recorder, nil registry. Any panic fails the test.
func TestNilSafety(t *testing.T) {
	var r *Registry
	if r.Enabled() {
		t.Fatal("nil registry reports enabled")
	}
	r.Add("c", 1)
	r.SetGauge("g", 1)
	r.Observe("h", 3)
	r.ObserveDuration("h", time.Second)
	if r.Counter("c") != 0 || r.Gauge("g") != 0 {
		t.Fatal("nil registry returned values")
	}

	var sc Scope
	child := sc.Start("a").Start("b")
	if child.Rh.Valid() {
		t.Fatal("zero scope opened a recorder span")
	}
	child.End(Int("k", 1), Str("k", "v"), Bool("k", true))
	sc.Event(EvProgress, "noop")

	ctx := NewContext(context.Background(), Scope{Label: "x"})
	if FromContext(ctx).Label != "x" {
		t.Fatal("scope did not round-trip through the context")
	}
	if FromContext(context.Background()) != (Scope{}) || FromContext(nil) != (Scope{}) {
		t.Fatal("absent scope is not the zero scope")
	}
	if got := PhaseTotals(nil); len(got) != 0 {
		t.Fatalf("no events but phases: %v", got)
	}
}

// buildEvents records a small deterministic span tree into a recorder
// that never wraps, optionally with a pause so two builds have
// different timestamps.
func buildEvents(pause time.Duration) *Recorder {
	rec := NewRecorder(0)
	root := Scope{Rec: rec}.WithLabel("counter").Start("repair")
	pre := root.Start("preprocess")
	time.Sleep(pause)
	pre.End(Int("fixes", 0))
	for i, key := range []string{"p0:guard", "p0:literal"} {
		asc := root.WithLabel(key)
		asc.Worker = i
		at := asc.Start("attempt")
		win := at.WithLabel(fmt.Sprintf("w%d-%d", i, i+2)).Start("window")
		win.End(Int("solutions", int64(i)), Int("time_wall", time.Now().UnixNano())) // time_* must be scrubbed
		at.End(Str("template", key), Bool("found", false))
	}
	root.End(Str("design", "counter"), Str("status", "cannot-repair"))
	return rec
}

// TestJSONLExportValidates checks the -trace-out export: a recorder
// built with capacity 0 never wraps, so its ring dump holds every event
// of the run and passes the ring schema.
func TestJSONLExportValidates(t *testing.T) {
	rec := buildEvents(0)
	for i := 0; i < DefaultRingCapacity; i++ {
		rec.Emit(EvProgress, "tick", "counter", 0)
	}
	if rec.Dropped() != 0 || len(rec.Events()) != DefaultRingCapacity+12 {
		t.Fatalf("unbounded recorder wrapped: %d events, %d dropped", len(rec.Events()), rec.Dropped())
	}
	var buf bytes.Buffer
	if err := rec.WriteRingJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateRingJSONL(buf.Bytes()); err != nil {
		t.Fatalf("exported trace does not validate: %v", err)
	}
}

// TestValidateJSONLRejectsGarbage checks that the -trace-out validator
// refuses files that are not a ring dump at all: nothing, non-JSON, and
// a ring header of an unknown version.
func TestValidateJSONLRejectsGarbage(t *testing.T) {
	for _, data := range []string{"", "not json\n", `{"type":"ring","version":9,"events":0}` + "\n"} {
		if err := ValidateRingJSONL([]byte(data)); err == nil {
			t.Fatalf("garbage %q validated", data)
		}
	}
}

// TestScrubbedExportsDeterministic builds the same span tree twice with
// different real timings and checks the ring dumps agree byte-for-byte
// after scrubbing — the property the cross-worker golden test relies
// on — while the raw dumps still carry the span tree.
func TestScrubbedExportsDeterministic(t *testing.T) {
	dump := func(rec *Recorder) []byte {
		var buf bytes.Buffer
		if err := rec.WriteRingJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ra, rb := dump(buildEvents(0)), dump(buildEvents(2*time.Millisecond))
	if !bytes.Contains(ra, []byte(`"span":2,"parent":1`)) {
		t.Fatalf("raw dump lost the span and parent ids:\n%s", ra)
	}
	sa, err := ScrubRingJSONL(ra)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := ScrubRingJSONL(rb)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sa, sb) {
		t.Fatalf("scrubbed dumps differ:\n%s\n--- vs ---\n%s", sa, sb)
	}
	for _, key := range []string{"time_wall", "time_dur_us", "t_us", `"span"`, `"parent"`} {
		if bytes.Contains(sa, []byte(key)) {
			t.Fatalf("volatile key %s survived scrubbing:\n%s", key, sa)
		}
	}
}

// TestChromeTraceShape checks the trace_event specifics Perfetto needs:
// a thread_name metadata event per worker, and one "X" complete event
// per span_end that starts at t_us − time_dur_us on its worker's lane.
func TestChromeTraceShape(t *testing.T) {
	events := buildEvents(time.Millisecond).Events()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"ph": "M"`, `"ph": "X"`, `"name": "thread_name"`, `"name": "worker 1"`, `"name": "attempt"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("Chrome trace missing %s:\n%s", want, out)
		}
	}
	var got []chromeEvent
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	var ends []Event
	for _, ev := range events {
		if ev.Kind == EvSpanEnd {
			ends = append(ends, ev)
		}
	}
	xs := got[2:] // two workers → two metadata events first
	if len(xs) != len(ends) {
		t.Fatalf("%d X events for %d span_end events", len(xs), len(ends))
	}
	for i, x := range xs {
		ev := ends[i]
		dur := spanDur(ev)
		if x.Ph != "X" || x.Name != ev.Name || x.TID != ev.Worker ||
			x.TS != (ev.T-dur).Microseconds() || x.Dur != dur.Microseconds() || x.Args["scope"] != ev.Scope {
			t.Fatalf("X event %d = %+v, want span_end %+v", i, x, ev)
		}
		if _, ok := x.Args["time_dur_us"]; ok {
			t.Fatalf("X event %d repeats the duration attr: %+v", i, x.Args)
		}
	}
	if pre := xs[0]; pre.Name != "preprocess" || pre.Dur < 1000 || pre.Args["fixes"] != float64(0) {
		t.Fatalf("preprocess X event = %+v", pre)
	}
}

func TestPhaseTotalsAndSummary(t *testing.T) {
	events := buildEvents(0).Events()
	totals := PhaseTotals(events)
	if totals["attempt"].Count != 2 {
		t.Fatalf("attempt count = %d, want 2", totals["attempt"].Count)
	}
	if totals["repair"].Count != 1 || totals["window"].Count != 2 || len(totals) != 4 {
		t.Fatalf("unexpected totals: %v", totals)
	}
	var buf bytes.Buffer
	if err := WriteSummary(&buf, events); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "attempt") || !strings.Contains(buf.String(), "phase") {
		t.Fatalf("summary missing content:\n%s", buf.String())
	}
}

func TestRegistryDeterministicJSON(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Add("sat.conflicts", 41)
		r.Add("sat.conflicts", 1)
		r.Add("repair.runs", 1)
		r.SetGauge("g", 2.5)
		r.Observe("h", 4)
		r.Observe("h", 600)
		return r
	}
	var a, b bytes.Buffer
	if err := build().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("registry JSON not deterministic:\n%s\n--- vs ---\n%s", a.String(), b.String())
	}
	r := build()
	if r.Counter("sat.conflicts") != 42 {
		t.Fatalf("counter = %d, want 42", r.Counter("sat.conflicts"))
	}
	if r.Gauge("g") != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", r.Gauge("g"))
	}
	if !strings.Contains(a.String(), "histogram_bounds") {
		t.Fatalf("bounds missing:\n%s", a.String())
	}
}

// TestTraceSchemaFile validates an externally produced trace when
// RTLREPAIR_TRACE_SCHEMA_FILE is set. The CI obs-smoke job runs the
// rtlrepair CLI with -trace-out and then points this test at the output.
func TestTraceSchemaFile(t *testing.T) {
	path := os.Getenv("RTLREPAIR_TRACE_SCHEMA_FILE")
	if path == "" {
		t.Skip("RTLREPAIR_TRACE_SCHEMA_FILE not set")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateRingJSONL(data); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if _, err := ScrubRingJSONL(data); err != nil {
		t.Fatalf("%s: scrub: %v", path, err)
	}
	t.Logf("%s: schema ok (%d bytes)", path, len(data))
}
