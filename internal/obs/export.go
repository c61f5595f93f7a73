package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Every exporter is a pure function of recorder events: the ring dump
// writes them as JSONL, the Chrome trace and the phase summary fold the
// span_end events (each carries its duration as time_dur_us). Because
// events are keyed by scope labels and progress counters rather than
// goroutine identity, ScrubRingJSONL turns two runs doing the same work
// into the same bytes regardless of scheduling or worker count.

// AttrMap renders attributes as a JSON-friendly map (nil when empty).
// Serving layers use it to encode ring events without re-implementing
// the Attr string/int split.
func AttrMap(attrs []Attr) map[string]any { return attrMap(attrs) }

func attrMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		if a.IsStr {
			m[a.Key] = a.Str
		} else {
			m[a.Key] = a.Int
		}
	}
	return m
}

// spanDur returns a span_end event's duration (its time_dur_us attr).
func spanDur(ev Event) time.Duration {
	for _, a := range ev.Attrs {
		if a.Key == "time_dur_us" && !a.IsStr {
			return time.Duration(a.Int) * time.Microsecond
		}
	}
	return 0
}

// chromeEvent is one Chrome trace_event entry ("X" complete events plus
// "M" thread-name metadata). The output loads in chrome://tracing and
// Perfetto; tid is the portfolio worker id, so workers appear as lanes.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace writes the span_end events as Chrome trace_event
// JSON: one "X" complete event per span, starting at t_us − time_dur_us
// on the lane of its worker, with the span's scope and attributes as
// args. Load it via chrome://tracing or ui.perfetto.dev.
func WriteChromeTrace(w io.Writer, events []Event) error {
	workers := map[int]bool{}
	var spans []chromeEvent
	for _, ev := range events {
		if ev.Kind != EvSpanEnd {
			continue
		}
		dur := spanDur(ev)
		args := attrMap(ev.Attrs)
		if args == nil {
			args = map[string]any{}
		}
		delete(args, "time_dur_us")
		args["scope"] = ev.Scope
		workers[ev.Worker] = true
		spans = append(spans, chromeEvent{
			Name: ev.Name,
			Cat:  "obs",
			Ph:   "X",
			TS:   (ev.T - dur).Microseconds(),
			Dur:  dur.Microseconds(),
			PID:  1,
			TID:  ev.Worker,
			Args: args,
		})
	}
	wids := make([]int, 0, len(workers))
	for id := range workers {
		wids = append(wids, id)
	}
	sort.Ints(wids)
	out := make([]chromeEvent, 0, len(wids)+len(spans))
	for _, id := range wids {
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: id,
			Args: map[string]any{"name": fmt.Sprintf("worker %d", id)},
		})
	}
	out = append(out, spans...)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// PhaseStat aggregates all spans sharing one name.
type PhaseStat struct {
	Count int
	Total time.Duration
}

// PhaseTotals aggregates the span_end events by name. Nested spans with
// distinct names each contribute their full duration, so totals across
// different names overlap; totals within one name do not.
func PhaseTotals(events []Event) map[string]PhaseStat {
	out := map[string]PhaseStat{}
	for _, ev := range events {
		if ev.Kind != EvSpanEnd {
			continue
		}
		ps := out[ev.Name]
		ps.Count++
		ps.Total += spanDur(ev)
		out[ev.Name] = ps
	}
	return out
}

// WriteSummary writes a plain-text per-phase table: span_end events
// aggregated by name, sorted by total time descending.
func WriteSummary(w io.Writer, events []Event) error {
	totals := PhaseTotals(events)
	names := make([]string, 0, len(totals))
	for name := range totals {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		ti, tj := totals[names[i]].Total, totals[names[j]].Total
		if ti != tj {
			return ti > tj
		}
		return names[i] < names[j]
	})
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%-24s %8s %12s %12s\n", "phase", "count", "total", "mean")
	for _, name := range names {
		ps := totals[name]
		mean := ps.Total / time.Duration(ps.Count)
		fmt.Fprintf(bw, "%-24s %8d %12s %12s\n", name, ps.Count, ps.Total.Round(time.Microsecond), mean.Round(time.Microsecond))
	}
	return bw.Flush()
}

// volatileTopLevel are the keys ScrubRingJSONL removes: wall-clock values and
// anything that legitimately varies with worker placement or count.
var volatileTopLevel = map[string]bool{
	"worker":  true, // ring events: worker placement
	"workers": true, // portfolio span attr: the configured worker count
	"seq":     true, // ring events: global emission order varies with scheduling
	"span":    true, // span events: recorder span ids follow begin order
	"parent":  true, // ... and so do their parents'
	"t_us":    true, // ring events: wall clock
	"dropped": true, // ring header: wrap count varies with run length
}

// scrubValue removes volatile keys from a decoded JSON value, in place
// where possible. Attr keys prefixed "time_" are removed too, so
// instrumentation may record wall-clock attrs without breaking golden
// diffs.
func scrubValue(v any) any {
	switch x := v.(type) {
	case map[string]any:
		for k := range x {
			if volatileTopLevel[k] || strings.HasPrefix(k, "time_") {
				delete(x, k)
				continue
			}
			x[k] = scrubValue(x[k])
		}
		return x
	case []any:
		for i := range x {
			x[i] = scrubValue(x[i])
		}
		return x
	}
	return v
}

// ringHeader is the first line of a flight-recorder ring dump.
type ringHeader struct {
	Type    string `json:"type"`
	Version int    `json:"version"`
	Events  int    `json:"events"`
	Dropped uint64 `json:"dropped"`
}

// ringEvent is one event line of a ring dump.
type ringEvent struct {
	Type   string         `json:"type"`
	Seq    uint64         `json:"seq"`
	TUS    int64          `json:"t_us"`
	Kind   string         `json:"kind"`
	Name   string         `json:"name"`
	Scope  string         `json:"scope,omitempty"`
	Worker int            `json:"worker,omitempty"`
	Span   uint64         `json:"span,omitempty"`
	Parent uint64         `json:"parent,omitempty"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// ringKinds is the closed set of event kinds ValidateRingJSONL accepts.
var ringKinds = map[string]bool{
	EvSpanBegin: true, EvSpanEnd: true, EvHeartbeat: true,
	EvQueue: true, EvProgress: true,
}

// WriteRingJSONL dumps the flight-recorder ring as a JSONL journal: one
// header line, then one line per event, oldest first. This is the
// /debugz/ring wire format, the -trace-out format, and cmd/tracediff's
// input format.
func (r *Recorder) WriteRingJSONL(w io.Writer) error {
	events := r.Events()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(ringHeader{Type: "ring", Version: 1, Events: len(events), Dropped: r.Dropped()}); err != nil {
		return err
	}
	for _, ev := range events {
		line := ringEvent{
			Type:   "event",
			Seq:    ev.Seq,
			TUS:    ev.T.Microseconds(),
			Kind:   ev.Kind,
			Name:   ev.Name,
			Scope:  ev.Scope,
			Worker: ev.Worker,
			Span:   ev.Span,
			Parent: ev.Parent,
			Attrs:  attrMap(ev.Attrs),
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ValidateRingJSONL schema-checks a ring dump: a well-formed header
// whose event count matches, strictly increasing sequence numbers,
// known event kinds, named events, and non-negative times. Span events
// must carry a span id whose parent (if any) was opened before it, and
// heartbeat events their counter attrs (conflicts, propagations).
func ValidateRingJSONL(data []byte) error {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	if !sc.Scan() {
		return fmt.Errorf("obs: empty ring dump")
	}
	var hdr ringHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return fmt.Errorf("obs: ring header: %w", err)
	}
	if hdr.Type != "ring" || hdr.Version != 1 {
		return fmt.Errorf("obs: bad ring header %+v", hdr)
	}
	n := 0
	lastSeq := uint64(0)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev ringEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("obs: ring event line %d: %w", n+1, err)
		}
		n++
		if ev.Type != "event" {
			return fmt.Errorf("obs: ring line %d: type %q", n, ev.Type)
		}
		if ev.Seq <= lastSeq {
			return fmt.Errorf("obs: ring line %d: seq %d not after %d", n, ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		if !ringKinds[ev.Kind] {
			return fmt.Errorf("obs: ring line %d: unknown kind %q", n, ev.Kind)
		}
		if ev.Name == "" {
			return fmt.Errorf("obs: ring line %d: empty name", n)
		}
		if ev.TUS < 0 {
			return fmt.Errorf("obs: ring line %d: negative time", n)
		}
		if ev.Kind == EvSpanBegin || ev.Kind == EvSpanEnd {
			if ev.Span == 0 {
				return fmt.Errorf("obs: ring line %d: %s without a span id", n, ev.Kind)
			}
			if ev.Parent >= ev.Span {
				return fmt.Errorf("obs: ring line %d: parent %d not opened before span %d", n, ev.Parent, ev.Span)
			}
		}
		if ev.Kind == EvHeartbeat {
			for _, key := range []string{"conflicts", "propagations"} {
				if _, ok := ev.Attrs[key]; !ok {
					return fmt.Errorf("obs: ring line %d: heartbeat missing %q attr", n, key)
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if n != hdr.Events {
		return fmt.Errorf("obs: ring header says %d events, found %d", hdr.Events, n)
	}
	return nil
}

// ScrubRingJSONL canonicalizes a ring dump for byte comparison across
// runs and worker counts: volatile fields (seq, span and parent ids,
// t_us, worker, time_* attrs, the header's drop count) are removed, and event lines are
// sorted lexicographically — emission order is schedule-dependent, but
// the scrubbed multiset of events is not, so the sorted form is the
// deterministic export the cross-worker golden tests diff.
func ScrubRingJSONL(data []byte) ([]byte, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	var header []byte
	var lines []string
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var v map[string]any
		if err := json.Unmarshal(line, &v); err != nil {
			return nil, fmt.Errorf("obs: scrub ring: %w", err)
		}
		b, err := json.Marshal(scrubValue(v))
		if err != nil {
			return nil, err
		}
		if header == nil {
			header = b
			continue
		}
		lines = append(lines, string(b))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if header == nil {
		return nil, fmt.Errorf("obs: scrub ring: empty dump")
	}
	sort.Strings(lines)
	var out bytes.Buffer
	out.Write(header)
	out.WriteByte('\n')
	for _, l := range lines {
		out.WriteString(l)
		out.WriteByte('\n')
	}
	return out.Bytes(), nil
}
