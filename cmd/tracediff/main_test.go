package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const (
	baseTrace    = "../../testdata/tracediff/trace_base.jsonl"
	headTrace    = "../../testdata/tracediff/trace_head.jsonl"
	goldenReport = "../../testdata/tracediff/trace_report.golden"
)

// TestDiffGolden pins the attribution report over two committed
// -trace-out dumps of the smoke design byte-for-byte. The dumps are
// fixed inputs, recorded by an earlier build whose term simplifier
// (since deleted) was off for the base run and on for the head run, so
// the report attributes CNF deltas (from the sat.solve span attrs) next
// to the per-phase wall deltas. Regenerate the report with:
//
//	go run ./cmd/tracediff -out testdata/tracediff/trace_report.golden \
//	    testdata/tracediff/trace_base.jsonl testdata/tracediff/trace_head.jsonl
func TestDiffGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, baseTrace, headTrace, 1.0, 5.0); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(goldenReport)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("report drifted from golden.\n--- got ---\n%s\n--- want ---\n%s",
			buf.String(), want)
	}
	for _, dim := range []string{"cnf-vars    overall", "cnf-clauses overall"} {
		if !strings.Contains(buf.String(), dim) {
			t.Fatalf("report lost the %s delta:\n%s", dim, buf.String())
		}
	}
	// The report must be stable across repeated runs (map iteration must
	// never leak into the output order).
	for i := 0; i < 5; i++ {
		var again bytes.Buffer
		if err := run(&again, baseTrace, headTrace, 1.0, 5.0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), again.Bytes()) {
			t.Fatal("report not deterministic across runs")
		}
	}
}

// TestSelfDiffZero: an artifact diffed against itself attributes
// nothing — the invariant CI checks on every run.
func TestSelfDiffZero(t *testing.T) {
	for _, path := range []string{baseTrace, headTrace} {
		var buf bytes.Buffer
		if err := run(&buf, path, path, 1.0, 5.0); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		if !strings.Contains(out, "no deltas above the noise floor") {
			t.Fatalf("self-diff of %s found deltas:\n%s", path, out)
		}
		if !strings.Contains(out, "attributed: 0 deltas reported, 0 below floor, net wall +0.000ms") {
			t.Fatalf("self-diff summary wrong:\n%s", out)
		}
	}
}

// TestFloorSuppression: raising the floors far enough suppresses every
// wall delta; dropping them to zero reports strictly more.
func TestFloorSuppression(t *testing.T) {
	var high, low bytes.Buffer
	if err := run(&high, baseTrace, headTrace, 1e9, 1e9); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(high.String(), " wall  ") {
		t.Fatalf("wall deltas survived an enormous floor:\n%s", high.String())
	}
	if err := run(&low, baseTrace, headTrace, 0, 0); err != nil {
		t.Fatal(err)
	}
	if len(strings.Split(low.String(), "\n")) <= len(strings.Split(high.String(), "\n")) {
		t.Fatal("zero floor reported no more than the enormous floor")
	}
}

const (
	baseRing   = "../../testdata/tracediff/ring_base.jsonl"
	headRing   = "../../testdata/tracediff/ring_head.jsonl"
	ringGolden = "../../testdata/tracediff/ring_report.golden"
)

// TestRingDiffGolden pins the report over two committed flight-recorder
// ring dumps (captured from GET /debugz/ring on live rtlserved runs).
// Regenerate with:
//
//	go run ./cmd/tracediff -out testdata/tracediff/ring_report.golden \
//	    testdata/tracediff/ring_base.jsonl testdata/tracediff/ring_head.jsonl
func TestRingDiffGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, baseRing, headRing, 1.0, 5.0); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(ringGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("ring report drifted from golden.\n--- got ---\n%s\n--- want ---\n%s",
			buf.String(), want)
	}
	// Self-diff of a ring dump attributes nothing.
	var self bytes.Buffer
	if err := run(&self, baseRing, baseRing, 1.0, 5.0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(self.String(), "no deltas above the noise floor") {
		t.Fatalf("ring self-diff found deltas:\n%s", self.String())
	}
}

// Hand-authored ring dumps exercising what the real corpus captures
// rarely produce: heartbeat conflict counters (emitted only every 1024
// conflicts). Counters are cumulative per solver cell, so the parser
// must take each (scope, worker) peak, not the sum of all beats.
const baseRingDump = `{"type":"ring","version":1,"events":5,"dropped":0}
{"type":"event","seq":1,"t_us":100,"kind":"span_begin","name":"repair","scope":"3f9a2b7c4d5e6f01/fsm_full"}
{"type":"event","seq":2,"t_us":200,"kind":"heartbeat","name":"sat.solve","scope":"3f9a2b7c4d5e6f01/fsm_full/p0:Add Guard/w0-4","worker":1,"attrs":{"conflicts":1024,"propagations":9000}}
{"type":"event","seq":3,"t_us":300,"kind":"heartbeat","name":"sat.solve","scope":"3f9a2b7c4d5e6f01/fsm_full/p0:Add Guard/w0-4","worker":1,"attrs":{"conflicts":2048,"propagations":17000}}
{"type":"event","seq":4,"t_us":400,"kind":"heartbeat","name":"sat.solve","scope":"3f9a2b7c4d5e6f01/fsm_full/p1:Cond Overwrite/w0-4","worker":2,"attrs":{"conflicts":1024,"propagations":8000}}
{"type":"event","seq":5,"t_us":500,"kind":"span_end","name":"repair","scope":"3f9a2b7c4d5e6f01/fsm_full","attrs":{"time_dur_us":40000}}
`

const headRingDump = `{"type":"ring","version":1,"events":4,"dropped":0}
{"type":"event","seq":1,"t_us":100,"kind":"span_begin","name":"repair","scope":"a0b1c2d3e4f50617/fsm_full"}
{"type":"event","seq":2,"t_us":200,"kind":"heartbeat","name":"sat.solve","scope":"a0b1c2d3e4f50617/fsm_full/p0:Add Guard/w0-4","worker":3,"attrs":{"conflicts":5120,"propagations":40000}}
{"type":"event","seq":3,"t_us":300,"kind":"heartbeat","name":"sat.solve","scope":"a0b1c2d3e4f50617/fsm_full/p1:Cond Overwrite/w0-4","worker":4,"attrs":{"conflicts":1024,"propagations":8100}}
{"type":"event","seq":4,"t_us":400,"kind":"span_end","name":"repair","scope":"a0b1c2d3e4f50617/fsm_full","attrs":{"time_dur_us":90000}}
`

// TestRingConflictsDiff: heartbeat conflicts diff per attempt/window
// scope, job ids are stripped so two runs of one design line up, and
// cumulative counters contribute their peak only.
func TestRingConflictsDiff(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base_ring.jsonl")
	head := filepath.Join(dir, "head_ring.jsonl")
	if err := os.WriteFile(base, []byte(baseRingDump), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(head, []byte(headRingDump), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(&buf, base, head, 1.0, 5.0); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		// One design despite distinct job ids; wall from the repair span.
		"fsm_full     wall  repair             40.000 ->     90.000 ms",
		// Peak 2048 (not 1024+2048=3072) → 5120.
		"conflicts   p0:Add Guard/w0-4     2048 ->     5120",
		// Sub-floor conflicts move (1024 → 1024 is zero; this one isn't
		// present) — p1 stayed at 1024, so it must NOT be reported.
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("ring conflicts diff missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "p1:Cond Overwrite") {
		t.Fatalf("unchanged conflicts scope reported:\n%s", out)
	}
}

// TestParseErrors: malformed inputs fail with errors, not panics.
func TestParseErrors(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"empty.jsonl":   "",
		"garbage.jsonl": "not json at all",
		"not a ring":    `{"designs":[]}`,
		"no events":     "{\"type\":\"ring\",\"version\":1,\"events\":0}\n",
		"badline":       "{\"type\":\"ring\",\"version\":1}\nnot json\n",
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := run(&buf, path, headTrace, 1, 5); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}
