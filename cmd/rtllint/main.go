// Command rtllint runs the netlist-level static-analysis engine over a
// Verilog design and reports structured diagnostics:
//
//	rtllint design.v                # human-readable report
//	rtllint -json design.v          # machine-readable report
//	rtllint -severity error x.v     # only elaboration-fatal findings
//	rtllint -fail-on warning x.v    # CI gate: fail on warnings too
//
// When a file holds several modules the last one is the top (matching
// rtlrepair); earlier modules form the instantiation library.
//
// Exit codes: 0 when no diagnostic at or above the -fail-on severity
// (default error) was found, 1 when at least one was, 2 on usage errors
// or when a file cannot be read or parsed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"rtlrepair/internal/analysis"
	"rtlrepair/internal/verilog"
)

func main() {
	var (
		jsonOut  = flag.Bool("json", false, "emit the report as JSON")
		severity = flag.String("severity", "", "minimum severity to report: info, warning or error (default all)")
		failOn   = flag.String("fail-on", "error", "lowest severity that makes the exit code 1: info, warning or error")
		quiet    = flag.Bool("q", false, "suppress the summary line")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: rtllint [flags] design.v [more.v ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	minSev, ok := parseSeverity(*severity, analysis.SevInfo)
	if !ok {
		fmt.Fprintf(os.Stderr, "rtllint: unknown severity %q\n", *severity)
		os.Exit(2)
	}
	failSev, ok := parseSeverity(*failOn, analysis.SevError)
	if !ok {
		fmt.Fprintf(os.Stderr, "rtllint: unknown -fail-on severity %q\n", *failOn)
		os.Exit(2)
	}

	exit := 0
	for _, path := range flag.Args() {
		report, err := lintFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rtllint: %s: %v\n", path, err)
			exit = 2
			continue
		}
		if countAtLeast(report, failSev) > 0 && exit == 0 {
			exit = 1
		}
		printReport(path, report, minSev, *jsonOut, *quiet)
	}
	os.Exit(exit)
}

// parseSeverity maps a flag value to a severity; empty means def.
func parseSeverity(s string, def analysis.Severity) (analysis.Severity, bool) {
	switch s {
	case "":
		return def, true
	case "info":
		return analysis.SevInfo, true
	case "warning":
		return analysis.SevWarning, true
	case "error":
		return analysis.SevError, true
	}
	return def, false
}

// countAtLeast counts diagnostics at or above the given severity.
func countAtLeast(report *analysis.Report, min analysis.Severity) int {
	n := 0
	for _, d := range report.Diagnostics {
		if d.Severity >= min {
			n++
		}
	}
	return n
}

func lintFile(path string) (*analysis.Report, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	mods, err := verilog.Parse(string(src))
	if err != nil {
		return nil, err
	}
	top := mods[len(mods)-1]
	lib := map[string]*verilog.Module{}
	for _, m := range mods[:len(mods)-1] {
		lib[m.Name] = m
	}
	return analysis.Analyze(top, analysis.Options{Lib: lib}), nil
}

func printReport(path string, report *analysis.Report, minSev analysis.Severity, asJSON, quiet bool) {
	filtered := &analysis.Report{}
	for _, d := range report.Diagnostics {
		if d.Severity >= minSev {
			filtered.Diagnostics = append(filtered.Diagnostics, d)
		}
	}
	if asJSON {
		out := struct {
			File        string                `json:"file"`
			Errors      int                   `json:"errors"`
			Warnings    int                   `json:"warnings"`
			Diagnostics []analysis.Diagnostic `json:"diagnostics"`
		}{path, report.Count(analysis.SevError), report.Count(analysis.SevWarning), filtered.Diagnostics}
		if out.Diagnostics == nil {
			out.Diagnostics = []analysis.Diagnostic{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(out)
		return
	}
	for _, d := range filtered.Diagnostics {
		fmt.Printf("%s:%s\n", path, d)
	}
	if !quiet {
		fmt.Printf("%s: %d error(s), %d warning(s)\n",
			path, report.Count(analysis.SevError), report.Count(analysis.SevWarning))
	}
}
