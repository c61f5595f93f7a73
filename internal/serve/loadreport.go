package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"
)

// LoadReport is the BENCH_serve.json schema: one rtlload run against a
// live server. It lives here (not in cmd/rtlload) so the repo's schema
// test can assert the committed artifact without importing a main
// package, and so future consumers (cmd/tracediff, CI gates) share one
// definition.
type LoadReport struct {
	Version     int      `json:"version"`
	Designs     []string `json:"designs"`
	Requests    int      `json:"requests"`
	Concurrency int      `json:"concurrency"`
	DurationMS  int64    `json:"duration_ms"`
	Throughput  float64  `json:"throughput_rps"`
	// Latency is end-to-end (submit to terminal state); QueueWait and
	// Run split it into its two additive components, as reported per
	// job by JobView.QueueWaitMS/RunMS.
	Latency     LatencyMS        `json:"latency_ms"`
	QueueWait   LatencyMS        `json:"queue_wait_ms"`
	Run         LatencyMS        `json:"run_ms"`
	Statuses    map[string]int   `json:"statuses"`
	Errors      int              `json:"errors"`
	Mismatches  []string         `json:"mismatches"`
	Resubmits   int              `json:"resubmissions"`
	ResubmitHit float64          `json:"resubmit_hit_rate"`
	SSEEvents   int64            `json:"sse_events"`
	Serve       map[string]int64 `json:"serve_counters"`
}

// LoadReportVersion is the current LoadReport schema version.
const LoadReportVersion = 1

// LatencyMS is one latency distribution in milliseconds.
type LatencyMS struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

func (l LatencyMS) validate(name string) error {
	for field, v := range map[string]float64{"p50": l.P50, "p90": l.P90, "p99": l.P99, "max": l.Max} {
		if v < 0 {
			return fmt.Errorf("%s.%s negative: %v", name, field, v)
		}
	}
	if l.P50 > l.P90 || l.P90 > l.P99 || l.P99 > l.Max {
		return fmt.Errorf("%s percentiles not monotone: %+v", name, l)
	}
	return nil
}

// Validate checks the report's internal consistency: version, required
// fields, monotone percentile blocks, and status counts that add up to
// the request count. CI runs it over the committed BENCH_serve.json.
func (r *LoadReport) Validate() error {
	if r.Version != LoadReportVersion {
		return fmt.Errorf("version = %d, want %d", r.Version, LoadReportVersion)
	}
	if len(r.Designs) == 0 {
		return fmt.Errorf("no designs")
	}
	for i, d := range r.Designs {
		if d == "" {
			return fmt.Errorf("designs[%d] empty", i)
		}
	}
	if r.Requests <= 0 {
		return fmt.Errorf("requests = %d", r.Requests)
	}
	if r.Concurrency <= 0 {
		return fmt.Errorf("concurrency = %d", r.Concurrency)
	}
	if r.DurationMS < 0 {
		return fmt.Errorf("duration_ms = %d", r.DurationMS)
	}
	if r.Throughput < 0 {
		return fmt.Errorf("throughput_rps = %v", r.Throughput)
	}
	for name, l := range map[string]LatencyMS{
		"latency_ms": r.Latency, "queue_wait_ms": r.QueueWait, "run_ms": r.Run,
	} {
		if err := l.validate(name); err != nil {
			return err
		}
	}
	if r.Statuses == nil {
		return fmt.Errorf("statuses missing")
	}
	sum := r.Errors
	for status, n := range r.Statuses {
		if status == "" || n <= 0 {
			return fmt.Errorf("statuses[%q] = %d", status, n)
		}
		sum += n
	}
	if sum != r.Requests {
		return fmt.Errorf("statuses+errors = %d, requests = %d", sum, r.Requests)
	}
	if r.Mismatches == nil {
		return fmt.Errorf("mismatches missing (want [] when clean)")
	}
	if r.Resubmits < 0 || r.Resubmits >= r.Requests {
		return fmt.Errorf("resubmissions = %d of %d requests", r.Resubmits, r.Requests)
	}
	if r.ResubmitHit < 0 || r.ResubmitHit > 1 {
		return fmt.Errorf("resubmit_hit_rate = %v", r.ResubmitHit)
	}
	if r.SSEEvents < 0 {
		return fmt.Errorf("sse_events = %d", r.SSEEvents)
	}
	if r.Serve == nil {
		return fmt.Errorf("serve_counters missing")
	}
	return nil
}

// ParseLoadReport decodes and validates a BENCH_serve.json document.
// Unknown fields are rejected, so a report written before a schema
// field was removed fails instead of silently passing.
func ParseLoadReport(data []byte) (*LoadReport, error) {
	var r LoadReport
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return nil, err
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// Percentile reads the p-th percentile (1-100) off an ascending-sorted
// latency slice, in milliseconds. Empty input reads as 0.
func Percentile(sorted []time.Duration, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := len(sorted)*p/100 - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx]) / float64(time.Millisecond)
}
