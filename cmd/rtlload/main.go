// Command rtlload is a closed-loop load generator for rtlserved: it
// replays the benchmark corpus against a running server at a target
// concurrency and reports throughput, latency percentiles, verdict
// correctness (against the batch goldens) and cache behaviour.
//
//	rtlserved -addr localhost:8080 &
//	rtlload -addr http://localhost:8080 -n 90 -c 8 \
//	        -goldens testdata/repair_goldens -out BENCH_serve.json
//
// Requests cycle round-robin through the selected designs, so -n
// larger than the design count produces exact resubmissions that must
// be served by the result cache (the report includes the hit rate).
//
// Jobs are submitted asynchronously and followed over the per-job SSE
// stream (GET /v1/jobs/{id}/events), so a load run also exercises the
// flight-recorder fan-out; the report (serve.LoadReport) splits each
// job's end-to-end latency into its queue-wait and run-time components
// from the terminal JobView.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rtlrepair/internal/bench"
	"rtlrepair/internal/eval"
	"rtlrepair/internal/serve"
)

type outcome struct {
	design    string
	status    string
	latency   time.Duration
	queueWait time.Duration
	run       time.Duration
	events    int64
	err       error
}

func main() {
	var (
		addr    = flag.String("addr", "http://localhost:8080", "server base URL")
		n       = flag.Int("n", 0, "total requests (0 = one per design)")
		c       = flag.Int("c", 8, "concurrent clients")
		benches = flag.String("benches", "all", "comma-separated design names, or all")
		goldens = flag.String("goldens", "", "golden dir for verdict checking (e.g. testdata/repair_goldens); empty skips")
		out     = flag.String("out", "BENCH_serve.json", "report output file")
		seed    = flag.Int64("seed", 1, "base concretization seed")
	)
	flag.Parse()

	selected := bench.Registry()
	if *benches != "all" {
		var subset []*bench.Benchmark
		for _, name := range strings.Split(*benches, ",") {
			b := bench.ByName(strings.TrimSpace(name))
			if b == nil {
				die(fmt.Errorf("unknown benchmark %q", name))
			}
			subset = append(subset, b)
		}
		selected = subset
	}
	if len(selected) == 0 {
		die(fmt.Errorf("no benchmarks selected"))
	}
	total := *n
	if total <= 0 {
		total = len(selected)
	}

	fmt.Fprintf(os.Stderr, "rtlload: preparing %d designs...\n", len(selected))
	reqs := make([][]byte, len(selected))
	names := make([]string, len(selected))
	want := map[string]string{}
	for i, b := range selected {
		names[i] = b.Name
		body, err := buildRequest(b, *seed)
		if err != nil {
			die(fmt.Errorf("%s: %v", b.Name, err))
		}
		reqs[i] = body
		if *goldens != "" {
			status, err := goldenStatus(*goldens, b.Name)
			if err != nil {
				die(err)
			}
			want[b.Name] = status
		}
	}

	fmt.Fprintf(os.Stderr, "rtlload: %d requests at concurrency %d against %s\n", total, *c, *addr)
	outcomes := make([]outcome, total)
	var next atomic.Int64
	var wg sync.WaitGroup
	client := &http.Client{Timeout: 10 * time.Minute}
	// Snapshot the server counters so the report covers this run only,
	// not whatever the server served before.
	baseline, err := fetchCounters(client, *addr)
	if err != nil {
		die(fmt.Errorf("server not reachable: %v", err))
	}
	start := time.Now()
	for w := 0; w < *c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				outcomes[i] = oneRequest(client, *addr, names[i%len(names)], reqs[i%len(reqs)])
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := serve.LoadReport{
		Version:     serve.LoadReportVersion,
		Designs:     names,
		Requests:    total,
		Concurrency: *c,
		DurationMS:  elapsed.Milliseconds(),
		Throughput:  float64(total) / elapsed.Seconds(),
		Statuses:    map[string]int{},
		Mismatches:  []string{},
		Serve:       map[string]int64{},
	}
	var lats, waits, runs []time.Duration
	for _, o := range outcomes {
		if o.err != nil {
			rep.Errors++
			rep.Mismatches = append(rep.Mismatches, fmt.Sprintf("%s: %v", o.design, o.err))
			continue
		}
		lats = append(lats, o.latency)
		waits = append(waits, o.queueWait)
		runs = append(runs, o.run)
		rep.SSEEvents += o.events
		rep.Statuses[o.status]++
		if exp, ok := want[o.design]; ok && o.status != exp {
			rep.Mismatches = append(rep.Mismatches,
				fmt.Sprintf("%s: got %q, golden %q", o.design, o.status, exp))
		}
	}
	for _, l := range [][]time.Duration{lats, waits, runs} {
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
	}
	pct := func(sorted []time.Duration) serve.LatencyMS {
		return serve.LatencyMS{
			P50: serve.Percentile(sorted, 50), P90: serve.Percentile(sorted, 90),
			P99: serve.Percentile(sorted, 99), Max: serve.Percentile(sorted, 100),
		}
	}
	rep.Latency, rep.QueueWait, rep.Run = pct(lats), pct(waits), pct(runs)

	// Cache economics from the server's own counters (delta over the
	// run, so earlier traffic on a shared server does not leak in).
	if counters, err := fetchCounters(client, *addr); err == nil {
		for k, v := range counters {
			if strings.HasPrefix(k, "serve.") {
				if d := v - baseline[k]; d != 0 {
					rep.Serve[k] = d
				}
			}
		}
	} else {
		fmt.Fprintln(os.Stderr, "rtlload: metricsz:", err)
	}
	distinct := len(selected)
	if total < distinct {
		distinct = total
	}
	rep.Resubmits = total - distinct
	if rep.Resubmits > 0 {
		// A resubmission is "served hot" by the result cache or, when it
		// raced an identical in-flight job, by singleflight dedup.
		hot := rep.Serve["serve.jobs.cached"] + rep.Serve["serve.jobs.deduped"]
		if hot > 0 {
			rep.ResubmitHit = float64(hot) / float64(rep.Resubmits)
		}
	}

	if err := writeReport(*out, &rep); err != nil {
		die(err)
	}
	fmt.Fprintf(os.Stderr,
		"rtlload: %d requests in %.2fs (%.1f rps)  p50=%.0fms p90=%.0fms p99=%.0fms max=%.0fms\n",
		total, elapsed.Seconds(), rep.Throughput,
		rep.Latency.P50, rep.Latency.P90, rep.Latency.P99, rep.Latency.Max)
	fmt.Fprintf(os.Stderr,
		"rtlload: queue-wait p90=%.0fms run p90=%.0fms  %d SSE events\n",
		rep.QueueWait.P90, rep.Run.P90, rep.SSEEvents)
	fmt.Fprintf(os.Stderr, "rtlload: statuses %v  resubmit hit rate %.0f%%  report %s\n",
		rep.Statuses, rep.ResubmitHit*100, *out)
	if len(rep.Mismatches) > 0 {
		for _, m := range rep.Mismatches {
			fmt.Fprintln(os.Stderr, "rtlload: MISMATCH", m)
		}
		os.Exit(1)
	}
}

// buildRequest renders one benchmark in the service wire format.
func buildRequest(b *bench.Benchmark, seed int64) ([]byte, error) {
	var src strings.Builder
	libNames := make([]string, 0, len(b.Lib))
	for name := range b.Lib {
		libNames = append(libNames, name)
	}
	sort.Strings(libNames)
	for _, name := range libNames {
		src.WriteString(b.Lib[name])
		src.WriteString("\n")
	}
	src.WriteString(b.Buggy)
	tr, err := b.Trace()
	if err != nil {
		return nil, err
	}
	var csv bytes.Buffer
	if err := tr.WriteCSV(&csv); err != nil {
		return nil, err
	}
	return json.Marshal(&serve.Request{
		Source:  src.String(),
		Trace:   csv.String(),
		Options: serve.ReqOptions{Seed: eval.ChooseSeed(b, seed)},
	})
}

// oneRequest submits a job asynchronously and follows its SSE stream
// to the terminal state, reading the latency split off the final view.
func oneRequest(client *http.Client, addr, design string, body []byte) outcome {
	o := outcome{design: design}
	start := time.Now()
	resp, err := client.Post(addr+"/v1/repair", "application/json", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return o
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		resp.Body.Close()
		o.err = fmt.Errorf("http %d", resp.StatusCode)
		return o
	}
	var v serve.JobView
	err = json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()
	if err != nil {
		o.err = err
		return o
	}
	if v.State != serve.StateDone {
		final, events, err := followEvents(client, addr, v.ID)
		if err != nil {
			o.err = err
			return o
		}
		v, o.events = *final, events
	}
	o.latency = time.Since(start)
	if v.State != serve.StateDone || v.Result == nil {
		o.err = fmt.Errorf("job %s not done after event stream", v.ID)
		return o
	}
	o.status = v.Result.Status
	o.queueWait = time.Duration(v.QueueWaitMS) * time.Millisecond
	o.run = time.Duration(v.RunMS) * time.Millisecond
	return o
}

// followEvents consumes the job's SSE stream until the "done" event and
// returns the terminal view plus the number of progress events seen.
func followEvents(client *http.Client, addr, id string) (*serve.JobView, int64, error) {
	resp, err := client.Get(addr + "/v1/jobs/" + id + "/events")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("events: http %d", resp.StatusCode)
	}
	var events int64
	var event, data string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "":
			switch event {
			case "event":
				events++
			case "done":
				var v serve.JobView
				if err := json.Unmarshal([]byte(data), &v); err != nil {
					return nil, events, err
				}
				return &v, events, nil
			}
			event, data = "", ""
		}
	}
	if err := sc.Err(); err != nil {
		return nil, events, err
	}
	return nil, events, fmt.Errorf("events: stream ended before done")
}

func goldenStatus(dir, name string) (string, error) {
	data, err := os.ReadFile(filepath.Join(dir, name+".golden"))
	if err != nil {
		return "", err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	status, ok := strings.CutPrefix(line, "status: ")
	if !ok {
		return "", fmt.Errorf("%s: malformed golden header %q", name, line)
	}
	return status, nil
}

func fetchCounters(client *http.Client, addr string) (map[string]int64, error) {
	resp, err := client.Get(addr + "/metricsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, err
	}
	return doc.Counters, nil
}

func writeReport(path string, rep *serve.LoadReport) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "rtlload:", err)
	os.Exit(1)
}
