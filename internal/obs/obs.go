// Package obs is the pipeline-wide observability layer: one span and
// event stream (the flight recorder, see recorder.go), a metrics
// registry, and exporters that are pure functions of the recorded
// events (ring dump, Chrome trace_event, plain-text phase summary).
//
// The package is zero-dependency (standard library only) so every layer
// of the repair pipeline — core, smt, sat, tsys, eval, the CLIs — can
// import it without cycles. Two properties shape the design:
//
//   - One stream, always on. Every pipeline phase opens its span with
//     Scope.Start and closes it with Scope.End(attrs...), which lands a
//     span_begin/span_end pair in the recorder ring together with the
//     phase's attributes. /debugz, SSE, ring dumps, -trace-out,
//     -chrome-out and the rtlrepair -v phase table all read that one
//     stream. A zero Scope (no recorder) disables everything and costs
//     one nil check per site.
//
//   - Deterministic output modulo timestamps. Events carry hierarchical
//     scope labels (design, attempt, window) and counters keyed on
//     search progress, never on wall clock. ScrubRingJSONL removes the
//     volatile fields (sequence numbers, span ids, times, worker lanes)
//     and sorts the lines, so two runs doing the same work produce
//     byte-identical scrubbed dumps — which is what lets golden tests
//     diff the stream across worker counts.
package obs

import (
	"context"
)

// Attr is one typed span or event attribute.
type Attr struct {
	Key   string
	Str   string // used when IsStr
	Int   int64  // used otherwise
	IsStr bool
}

// Scope bundles a metrics registry and a flight-recorder position
// (recorder + current recorder span + hierarchical label), so one value
// threads the whole observability layer through the pipeline. The zero
// Scope is fully disabled and free to pass around.
type Scope struct {
	Metrics *Registry

	// Rec is the flight recorder; Start/End record their spans into it
	// as span_begin/span_end events plus live-span-table entries. Label
	// is the scope's hierarchical position (job id, design, attempt,
	// window — grown with WithLabel) and becomes the events' Scope field;
	// Worker tags events with a portfolio worker lane. Rh is the
	// recorder span opened by the last Start.
	Rec    *Recorder
	Rh     Handle
	Label  string
	Worker int
}

// WithLabel returns the scope with part appended to its hierarchical
// label ("a" + "b" → "a/b"). Labels scope flight-recorder events, so
// /debugz consumers and SSE subscribers can filter by job, design, or
// attempt prefix.
func (sc Scope) WithLabel(part string) Scope {
	if part == "" {
		return sc
	}
	if sc.Label == "" {
		sc.Label = part
	} else {
		sc.Label = sc.Label + "/" + part
	}
	return sc
}

// Start opens a child span and returns the scope positioned on it.
// Every Start must be paired with End on the returned scope —
// cmd/repolint's obs-span-leak check enforces the pairing at vet time.
func (sc Scope) Start(name string) Scope {
	sc.Rh = sc.Rec.BeginSpan(sc.Rh, name, sc.Label, sc.Worker)
	return sc
}

// End closes the scope's span; attrs ride on its span_end event.
// Callers building attrs on a hot path should test Rec first, since a
// variadic slice that reaches the ring escapes to the heap.
func (sc Scope) End(attrs ...Attr) { sc.Rh.End(attrs...) }

// Event emits a flight-recorder event at the scope's position. A scope
// without a recorder no-ops, so progress markers are free when the
// recorder is disabled (tests with private pipelines).
func (sc Scope) Event(kind, name string, attrs ...Attr) {
	sc.Rec.Emit(kind, name, sc.Label, sc.Worker, attrs...)
}

type ctxKey struct{}

// NewContext returns a context carrying the scope.
func NewContext(ctx context.Context, sc Scope) context.Context {
	return context.WithValue(ctx, ctxKey{}, sc)
}

// FromContext extracts the scope from a context (zero Scope if absent).
func FromContext(ctx context.Context) Scope {
	if ctx == nil {
		return Scope{}
	}
	sc, _ := ctx.Value(ctxKey{}).(Scope)
	return sc
}
