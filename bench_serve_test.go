package rtlrepair_test

import (
	"os"
	"testing"

	"rtlrepair/internal/bench"
	"rtlrepair/internal/serve"
)

// TestBenchServeArtifact pins the committed BENCH_serve.json to the
// serve.LoadReport schema: CI re-validates the artifact on every run so
// a schema change that forgets to regenerate the snapshot fails fast.
// The committed artifact is a single-server run over the full corpus
// with the write-ahead log and on-disk cache enabled (the state
// directory must start empty, or the run measures a warm cache);
// regenerate with:
//
//	d=$(mktemp -d)
//	rtlserved -addr localhost:8180 -slots 2 -job-timeout 300s \
//	        -wal $d/jobs.wal -artifacts $d/cas &
//	rtlload -addr http://localhost:8180 -n 90 -c 2 \
//	        -goldens testdata/repair_goldens -out BENCH_serve.json
func TestBenchServeArtifact(t *testing.T) {
	data, err := os.ReadFile("BENCH_serve.json")
	if err != nil {
		t.Fatalf("committed artifact missing: %v", err)
	}
	r, err := serve.ParseLoadReport(data)
	if err != nil {
		t.Fatalf("BENCH_serve.json does not parse as a valid LoadReport: %v", err)
	}
	// The pinned run replays registry designs, exercises the result
	// cache with exact resubmissions, and follows every job over SSE —
	// assert those properties so a regenerated artifact can't silently
	// drop coverage.
	for _, d := range r.Designs {
		if bench.ByName(d) == nil {
			t.Errorf("design %q not in the benchmark registry", d)
		}
	}
	if len(r.Mismatches) != 0 {
		t.Errorf("pinned run has golden mismatches: %v", r.Mismatches)
	}
	if r.Errors != 0 {
		t.Errorf("pinned run has %d transport errors", r.Errors)
	}
	if r.Resubmits == 0 {
		t.Error("pinned run has no resubmissions; the cache path is unexercised")
	}
	if r.SSEEvents == 0 {
		t.Error("pinned run streamed no SSE events; the fan-out path is unexercised")
	}
	if r.Serve["serve.jobs.accepted"] == 0 {
		t.Error("serve.jobs.accepted counter missing or zero")
	}
}
