package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// HistogramBounds is the single fixed bucket layout every histogram
// uses: a 1-2-5 ladder from 1 to 5e8. The unit is whatever the caller
// observes (ObserveDuration observes microseconds). A fixed layout keeps
// exporter output deterministic and lets histograms from different runs
// be compared bucket by bucket.
var HistogramBounds = func() []float64 {
	var b []float64
	for mag := 1.0; mag <= 1e8; mag *= 10 {
		b = append(b, mag, 2*mag, 5*mag)
	}
	return b
}()

type histogram struct {
	counts []int64 // counts[i] = observations <= HistogramBounds[i]; last extra slot = overflow
	sum    float64
	n      int64
}

// Registry is a concurrency-safe metrics store: monotonic counters,
// last-value gauges, and fixed-bucket histograms. A nil
// *Registry is the disabled registry — every method no-ops — so
// instrumentation sites need no guards.
type Registry struct {
	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]float64
	hists    map[string]*histogram
}

// NewRegistry returns an empty enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]int64{},
		gauges:   map[string]float64{},
		hists:    map[string]*histogram{},
	}
}

// Enabled reports whether the registry records metrics.
func (r *Registry) Enabled() bool { return r != nil }

// Add increments a counter.
func (r *Registry) Add(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// SetGauge records the last value of a gauge.
func (r *Registry) SetGauge(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = v
	r.mu.Unlock()
}

// Observe records a value into a histogram.
func (r *Registry) Observe(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	h := r.hists[name]
	if h == nil {
		h = &histogram{counts: make([]int64, len(HistogramBounds)+1)}
		r.hists[name] = h
	}
	i := sort.SearchFloat64s(HistogramBounds, v)
	h.counts[i]++
	h.sum += v
	h.n++
	r.mu.Unlock()
}

// ObserveDuration records a duration, in microseconds, into a histogram.
func (r *Registry) ObserveDuration(name string, d time.Duration) {
	r.Observe(name, float64(d.Microseconds()))
}

// Counter returns a counter's current value (0 when absent or disabled).
func (r *Registry) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// Gauge returns a gauge's current value (0 when absent or disabled).
func (r *Registry) Gauge(name string) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gauges[name]
}

// histJSON is the exported histogram form.
type histJSON struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	// Buckets holds one cumulative count per HistogramBounds entry plus
	// a final overflow bucket. Empty trailing buckets are kept so every
	// exported histogram has the same shape.
	Buckets []int64 `json:"buckets"`
}

// metricsJSON is the exported registry form.
type metricsJSON struct {
	Counters   map[string]int64    `json:"counters"`
	Gauges     map[string]float64  `json:"gauges"`
	Histograms map[string]histJSON `json:"histograms"`
	Bounds     []float64           `json:"histogram_bounds"`
}

// WriteJSON writes the registry as a single deterministic JSON document
// (map keys sort, histogram buckets have a fixed shape).
func (r *Registry) WriteJSON(w io.Writer) error {
	doc := metricsJSON{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]histJSON{},
		Bounds:     HistogramBounds,
	}
	if r != nil {
		r.mu.Lock()
		for k, v := range r.counters {
			doc.Counters[k] = v
		}
		for k, v := range r.gauges {
			doc.Gauges[k] = v
		}
		for k, h := range r.hists {
			cum := make([]int64, len(h.counts))
			var run int64
			for i, c := range h.counts {
				run += c
				cum[i] = run
			}
			doc.Histograms[k] = histJSON{Count: h.n, Sum: h.sum, Buckets: cum}
		}
		r.mu.Unlock()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
