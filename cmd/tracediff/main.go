// Command tracediff attributes performance movement between two repair
// runs. It reads two flight-recorder ring dumps — rtlrepair/evaluate
// -trace-out files or GET /debugz/ring captures — and reports
// wall-clock, CNF, and solver-conflict deltas broken down by design and
// phase, with a configurable noise floor so CI regressions point at the
// phase that moved instead of a bare total.
//
//	rtlrepair -design buggy.v -trace tb.csv -trace-out head.jsonl
//	tracediff -floor-ms 0.5 -floor-pct 2 base.jsonl head.jsonl
//	curl -s node:8081/debugz/ring > head_ring.jsonl && tracediff base_ring.jsonl head_ring.jsonl
//
// span_end events aggregate into per-design phase wall time, and the
// repair span's status attr into the design's verdict; sat.solve
// span_end events also carry the solver's CNF size, whose peaks per
// solver scope sum into the design's CNF; heartbeat events give
// per-solver conflict totals. Scopes are the recorder's hierarchical labels
// (job-id/design/pN:template/wS-E); the 16-hex job-id component is
// stripped so two runs of the same design line up even though every
// job gets a fresh id.
//
// Deltas are head-minus-base. A wall delta is reported when it clears
// both -floor-ms and -floor-pct (new/removed phases always report); a
// CNF or conflicts delta when it is non-zero and clears -floor-pct.
// Identical inputs produce "no deltas above the noise floor" — CI diffs
// a run against itself to pin that invariant.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// cnfStats is one CNF size measurement.
type cnfStats struct {
	Vars    int64
	Clauses int64
}

// designStats is everything tracediff attributes for one design.
type designStats struct {
	status    string             // the repair span's verdict
	wallMS    map[string]float64 // phase → total milliseconds
	cnf       map[string]cnfStats
	conflicts map[string]float64 // solver scope remainder → total conflicts
}

// snapshot is one parsed ring dump, by design.
type snapshot map[string]*designStats

// ringHeader is the first line of a ring dump.
type ringHeader struct {
	Type string `json:"type"`
}

// ringEvent mirrors one event line of a /debugz/ring dump
// (internal/obs WriteRingJSONL).
type ringEvent struct {
	Type   string         `json:"type"`
	Kind   string         `json:"kind"`
	Name   string         `json:"name"`
	Scope  string         `json:"scope"`
	Worker int            `json:"worker"`
	Attrs  map[string]any `json:"attrs"`
}

// jobIDComp matches the 16-hex job ids the serving layer prefixes onto
// recorder scopes. They differ on every submission, so they must not
// participate in cross-run attribution.
var jobIDComp = regexp.MustCompile(`^[0-9a-f]{16}$`)

// splitScope decomposes a recorder scope label into the design (the
// first component after any job ids) and the remainder (attempt and
// window components), e.g. "3f..a1/fsm_w1/p0:cond/w0-3" → ("fsm_w1",
// "p0:cond/w0-3").
func splitScope(scope string) (design, rest string) {
	parts := strings.Split(scope, "/")
	for len(parts) > 0 && (parts[0] == "" || jobIDComp.MatchString(parts[0])) {
		parts = parts[1:]
	}
	if len(parts) == 0 {
		return "(none)", ""
	}
	return parts[0], strings.Join(parts[1:], "/")
}

func numAttr(attrs map[string]any, key string) (float64, bool) {
	v, ok := attrs[key].(float64)
	return v, ok
}

// parseRing aggregates a flight-recorder ring dump: span_end events add
// their duration to the enclosing design's phase bucket, sat.solve
// span_end events contribute CNF size, and heartbeat events solver
// conflicts. CNF size and heartbeat counters are cumulative per solver,
// so only each (scope, worker) peak counts.
func parseRing(data []byte) (snapshot, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	if !sc.Scan() {
		return nil, fmt.Errorf("empty ring dump")
	}
	var hdr ringHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil || hdr.Type != "ring" {
		return nil, fmt.Errorf("not a ring header: %s", sc.Text())
	}
	snap := snapshot{}
	ensure := func(design string) *designStats {
		ds := snap[design]
		if ds == nil {
			ds = &designStats{wallMS: map[string]float64{},
				cnf: map[string]cnfStats{}, conflicts: map[string]float64{}}
			snap[design] = ds
		}
		return ds
	}
	type cell struct {
		scope  string
		worker int
	}
	peak := map[cell]float64{}
	cnfPeak := map[cell]cnfStats{}
	events := 0
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var ev ringEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("ring line: %v", err)
		}
		if ev.Type != "event" {
			return nil, fmt.Errorf("ring line: type %q", ev.Type)
		}
		events++
		switch ev.Kind {
		case "span_end":
			if us, ok := numAttr(ev.Attrs, "time_dur_us"); ok {
				design, _ := splitScope(ev.Scope)
				ensure(design).wallMS[ev.Name] += us / 1000
			}
			if st, ok := ev.Attrs["status"].(string); ok && ev.Name == "repair" {
				design, _ := splitScope(ev.Scope)
				ensure(design).status = st
			}
			if ev.Name == "sat.solve" {
				vars, _ := numAttr(ev.Attrs, "cnf_vars")
				clauses, _ := numAttr(ev.Attrs, "cnf_clauses")
				k := cell{ev.Scope, ev.Worker}
				p := cnfPeak[k]
				cnfPeak[k] = cnfStats{max(p.Vars, int64(vars)), max(p.Clauses, int64(clauses))}
			}
		case "heartbeat":
			if c, ok := numAttr(ev.Attrs, "conflicts"); ok {
				k := cell{ev.Scope, ev.Worker}
				if c > peak[k] {
					peak[k] = c
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for k, c := range peak {
		design, rest := splitScope(k.scope)
		if rest == "" {
			rest = "(solve)"
		}
		ensure(design).conflicts[rest] += c
	}
	for k, c := range cnfPeak {
		design, _ := splitScope(k.scope)
		ds := ensure(design)
		all := ds.cnf["overall"]
		ds.cnf["overall"] = cnfStats{all.Vars + c.Vars, all.Clauses + c.Clauses}
	}
	if events == 0 {
		return nil, fmt.Errorf("ring dump has no events")
	}
	if len(snap) == 0 {
		return nil, fmt.Errorf("ring dump has no attributable events")
	}
	return snap, nil
}

func parseFile(path string) (snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	snap, err := parseRing(bytes.TrimSpace(data))
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return snap, nil
}

// delta is one reportable difference.
type delta struct {
	design, dim, key string // dim: "wall" | "cnf-vars" | "cnf-clauses"
	base, head       float64
}

func (d delta) diff() float64 { return d.head - d.base }

func (d delta) pct() float64 {
	if d.base == 0 {
		return math.Inf(1)
	}
	return (d.head - d.base) / d.base * 100
}

func pctLabel(d delta) string {
	if d.base == 0 {
		return "new"
	}
	return fmt.Sprintf("%+.1f%%", d.pct())
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func union(a, b map[string]float64) []string {
	seen := map[string]bool{}
	for k := range a {
		seen[k] = true
	}
	for k := range b {
		seen[k] = true
	}
	return sortedKeys(seen)
}

func run(w io.Writer, basePath, headPath string, floorMS, floorPct float64) error {
	base, err := parseFile(basePath)
	if err != nil {
		return err
	}
	head, err := parseFile(headPath)
	if err != nil {
		return err
	}
	// Base names only: the report must not depend on where the tool was
	// invoked from (the golden test runs from a different directory).
	fmt.Fprintf(w, "tracediff: %s -> %s\n", filepath.Base(basePath), filepath.Base(headPath))
	fmt.Fprintf(w, "noise floor: %.2fms and %.1f%% (wall), %.1f%% (cnf)\n", floorMS, floorPct, floorPct)

	names := map[string]bool{}
	for n := range base {
		names[n] = true
	}
	for n := range head {
		names[n] = true
	}

	var reported []delta
	suppressed := 0
	var wallTotal float64
	for _, name := range sortedKeys(names) {
		b, h := base[name], head[name]
		if b == nil {
			fmt.Fprintf(w, "design %s: only in head\n", name)
			continue
		}
		if h == nil {
			fmt.Fprintf(w, "design %s: only in base\n", name)
			continue
		}
		if b.status != h.status {
			fmt.Fprintf(w, "design %s: STATUS %s -> %s\n", name, b.status, h.status)
		}
		for _, phase := range union(b.wallMS, h.wallMS) {
			d := delta{design: name, dim: "wall", key: phase, base: b.wallMS[phase], head: h.wallMS[phase]}
			wallTotal += d.diff()
			isNew := b.wallMS[phase] == 0 || h.wallMS[phase] == 0
			if math.Abs(d.diff()) >= floorMS && (isNew || math.Abs(d.pct()) >= floorPct) {
				reported = append(reported, d)
			} else if d.diff() != 0 {
				suppressed++
			}
		}
		for _, key := range union(b.conflicts, h.conflicts) {
			d := delta{design: name, dim: "conflicts", key: key,
				base: b.conflicts[key], head: h.conflicts[key]}
			if d.diff() == 0 {
				continue
			}
			if d.base == 0 || d.head == 0 || math.Abs(d.pct()) >= floorPct {
				reported = append(reported, d)
			} else {
				suppressed++
			}
		}
		cnfKeys := map[string]bool{}
		for k := range b.cnf {
			cnfKeys[k] = true
		}
		for k := range h.cnf {
			cnfKeys[k] = true
		}
		for _, dom := range sortedKeys(cnfKeys) {
			bc, hc := b.cnf[dom], h.cnf[dom]
			for dim, pair := range map[string][2]int64{
				"cnf-vars":    {bc.Vars, hc.Vars},
				"cnf-clauses": {bc.Clauses, hc.Clauses},
			} {
				d := delta{design: name, dim: dim, key: dom,
					base: float64(pair[0]), head: float64(pair[1])}
				if d.diff() == 0 {
					continue
				}
				if d.base == 0 || d.head == 0 || math.Abs(d.pct()) >= floorPct {
					reported = append(reported, d)
				} else {
					suppressed++
				}
			}
		}
	}

	sort.Slice(reported, func(i, j int) bool {
		a, b := reported[i], reported[j]
		if a.design != b.design {
			return a.design < b.design
		}
		if a.dim != b.dim {
			return a.dim > b.dim // wall before conflicts before cnf-*
		}
		// Largest movement first within a dimension.
		if ad, bd := math.Abs(a.diff()), math.Abs(b.diff()); ad != bd {
			return ad > bd
		}
		return a.key < b.key
	})
	if len(reported) == 0 {
		fmt.Fprintln(w, "no deltas above the noise floor")
	}
	for _, d := range reported {
		switch d.dim {
		case "wall":
			fmt.Fprintf(w, "%-12s wall  %-14s %10.3f -> %10.3f ms  %+10.3f (%s)\n",
				d.design, d.key, d.base, d.head, d.diff(), pctLabel(d))
		default:
			fmt.Fprintf(w, "%-12s %-11s %-8s %8.0f -> %8.0f     %+8.0f (%s)\n",
				d.design, d.dim, d.key, d.base, d.head, d.diff(), pctLabel(d))
		}
	}
	fmt.Fprintf(w, "attributed: %d deltas reported, %d below floor, net wall %+.3fms\n",
		len(reported), suppressed, wallTotal)
	return nil
}

func main() {
	var (
		floorMS  = flag.Float64("floor-ms", 1.0, "wall-clock noise floor in milliseconds")
		floorPct = flag.Float64("floor-pct", 5.0, "relative noise floor in percent")
		out      = flag.String("out", "", "write the report here instead of stdout")
	)
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: tracediff [flags] BASE HEAD")
		flag.Usage()
		os.Exit(2)
	}
	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			die(err)
		}
		defer f.Close()
		w = f
	}
	if err := run(w, flag.Arg(0), flag.Arg(1), *floorMS, *floorPct); err != nil {
		die(err)
	}
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "tracediff:", err)
	os.Exit(1)
}
