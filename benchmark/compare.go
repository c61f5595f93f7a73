package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// benchmarkSpec is BENCHMARK.json at the repository root.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(root string) (*benchmarkSpec, error) {
	buf, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(buf, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// loadReports reads run reports. A file holds one report or a JSON
// array of them, as the recorded baseline does.
func loadReports(paths []string) ([]report, error) {
	var out []report
	for _, p := range paths {
		buf, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var many []report
		if err := json.Unmarshal(buf, &many); err == nil {
			out = append(out, many...)
			continue
		}
		var one report
		if err := json.Unmarshal(buf, &one); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, one)
	}
	return out, nil
}

// runs selects one workload's reports, traced or not, in file order.
func runs(reps []report, workload string, traced bool) []report {
	var out []report
	for _, r := range reps {
		if r.Workload == workload && r.Trace == traced {
			out = append(out, r)
		}
	}
	return out
}

func values(reps []report, metric string) []float64 {
	var out []float64
	for _, r := range reps {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// classify labels a change against its parent on one metric. Runs are
// paired in order. The change is better when it wins at least nine in
// ten pairs and the medians differ by more than the parent's
// interquartile range. Otherwise, when the parent's spread exceeds the
// bound, the result is unresolved unless every change run beats every
// parent run; a change whose median is worse by more than the bound is
// worse; anything else is unchanged.
func classify(parent, change []float64, better string, bound float64) (label string, wins, pairs int) {
	sign := 1.0 // positive differences are worse
	if better == "higher" {
		sign = -1
	}
	pairs = min(len(parent), len(change))
	for i := 0; i < pairs; i++ {
		if sign*(change[i]-parent[i]) < 0 {
			wins++
		}
	}
	q1, pm, q3 := quartiles(parent)
	_, cm, _ := quartiles(change)
	diff := sign * (cm - pm)
	switch {
	case pairs > 0 && wins*10 >= pairs*9 && diff < 0 && -diff > q3-q1:
		return "better", wins, pairs
	case (q3-q1)/math.Abs(pm) > bound:
		if allBetter(parent, change, sign) {
			return "better", wins, pairs
		}
		return "unresolved", wins, pairs
	case diff/math.Abs(pm) > bound:
		return "worse", wins, pairs
	}
	return "unchanged", wins, pairs
}

// allBetter reports whether every change run reads better than every
// parent run.
func allBetter(parent, change []float64, sign float64) bool {
	for _, p := range parent {
		for _, c := range change {
			if sign*(c-p) >= 0 {
				return false
			}
		}
	}
	return len(parent) > 0 && len(change) > 0
}

// runCompare prints, for each workload and end-to-end metric, both
// sides' medians and quartiles and a label, then each side's tracing
// overhead: how much longer the traced repair took than the untraced
// wall_s.
func runCompare(root string, parentPaths, changePaths []string, out io.Writer) error {
	if len(parentPaths) == 0 || len(changePaths) == 0 {
		return fmt.Errorf("-compare needs parent reports and, after --, change reports")
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	parent, err := loadReports(parentPaths)
	if err != nil {
		return err
	}
	change, err := loadReports(changePaths)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tparent median [q1, q3]\tchange median [q1, q3]\tdelta\tpairs won\tbound\tlabel")
	for _, w := range spec.Workloads {
		pr, cr := runs(parent, w.Name, false), runs(change, w.Name, false)
		if len(pr) == 0 || len(cr) == 0 {
			continue
		}
		for _, m := range spec.EndToEnd {
			pv, cv := values(pr, m.Name), values(cr, m.Name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			label, wins, pairs := classify(pv, cv, m.Better, m.Bound)
			p1, pm, p3 := quartiles(pv)
			c1, cm, c3 := quartiles(cv)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%+.1f%%\t%d/%d\t%.0f%%\t%s\n",
				w.Name, m.Name, m.Unit, pm, p1, p3, cm, c1, c3, 100*(cm/pm-1), wins, pairs, 100*m.Bound, label)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, side := range []struct {
		name string
		reps []report
	}{{"parent", parent}, {"change", change}} {
		for _, w := range spec.Workloads {
			traced, untraced := runs(side.reps, w.Name, true), runs(side.reps, w.Name, false)
			if len(traced) == 0 || len(untraced) == 0 {
				continue
			}
			var tv []float64
			for _, r := range traced {
				tv = append(tv, r.RepairS)
			}
			tm, um := median(tv), median(values(untraced, "wall_s"))
			fmt.Fprintf(out, "%s %s: traced repair %.3f s vs untraced wall_s %.3f s (%+.1f%%)\n",
				side.name, w.Name, tm, um, 100*(tm/um-1))
		}
	}
	return nil
}
