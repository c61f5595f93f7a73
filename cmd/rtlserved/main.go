// Command rtlserved runs the repair pipeline as an HTTP/JSON service:
//
//	rtlserved -addr localhost:8080
//
// Submit a repair (wire format matches the rtlrepair CLI: library
// modules first, the design under repair last, the self-describing
// trace CSV as testbench):
//
//	curl -s localhost:8080/v1/repair?wait=1 -d '{"source": "...", "trace": "..."}'
//
// Live introspection is always on (no flag): GET /debugz/spans shows
// the open-span tree, /debugz/ring dumps the flight-recorder ring as
// JSONL, /debugz/solvers lists every running SAT search with conflict
// rates and heartbeat staleness, and GET /v1/jobs/{id}/events streams a
// job's recorder events as Server-Sent Events. A running job whose
// solvers all stop heartbeating for -stall-after trips the
// serve.jobs.stalled watchdog gauge on /metricsz.
//
// Durability (see DESIGN.md "Durability"): -wal makes the server
// crash-safe — every queued job is durably logged before its 202 and
// replayed after a restart, with /healthz/ready answering 503 until the
// backlog is requeued — and -artifacts keeps finished results in an
// on-disk content-addressed cache, so a restarted server still answers
// the requests it has seen. The store holds results only; a restarted
// server rebuilds each design's frontend once, in memory:
//
//	rtlserved -addr :8080 -wal /var/rtl/jobs.wal -artifacts /var/rtl/cas
//
// Write-ahead log counters appear on /metricsz as serve.wal.*.
//
// See DESIGN.md "Serving" and "Live introspection" for the API, queue,
// cache, and lifecycle semantics. SIGINT/SIGTERM drain gracefully:
// intake stops, accepted jobs finish (cancelled if -drain-timeout
// expires — they still reach a terminal state), and the observability
// outputs flush.
//
// With -portfolio-workers > 1, GET /metricsz additionally reports the
// parallel portfolio's health: portfolio.utilization_pct (worker busy
// time over wall clock), portfolio.attempts (attempts run, cancelled or
// skipped) and portfolio.prefix.{cycles,hits} (shared encode-prefix
// cache).
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rtlrepair/internal/obs"
	"rtlrepair/internal/serve"
)

func main() {
	var (
		addr          = flag.String("addr", "localhost:8080", "listen address")
		queueDepth    = flag.Int("queue", 64, "max queued jobs; beyond it submissions get 429")
		slots         = flag.Int("slots", 0, "concurrent repair jobs (0 = NumCPU/2)")
		portfolio     = flag.Int("portfolio-workers", 1, "portfolio workers per job (0 = one per CPU)")
		jobTimeout    = flag.Duration("job-timeout", 60*time.Second, "per-job repair budget")
		queueTimeout  = flag.Duration("queue-timeout", 5*time.Minute, "max queue wait before a job is failed")
		resultCache   = flag.Int("result-cache", 256, "result cache entries (-1 disables)")
		artifactCache = flag.Int("artifact-cache", 64, "frontend artifact cache entries (-1 disables)")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "shutdown drain budget before running jobs are cancelled")
		stallAfter    = flag.Duration("stall-after", 10*time.Second, "solver heartbeat staleness behind the stalled-job watchdog (-1s disables)")
		walPath       = flag.String("wal", "", "write-ahead job log path; enables crash-safe replay")
		artifactDir   = flag.String("artifacts", "", "on-disk content-addressed cache of results (not frontends); survives restarts")
	)
	var ocli obs.CLI
	ocli.RegisterFlags(flag.CommandLine)
	flag.Parse()
	check(ocli.Start())
	if ocli.Metrics == nil {
		// The server always keeps metrics (they feed /metricsz); sharing
		// the registry with the CLI makes -metrics-out see the same data.
		ocli.Metrics = obs.NewRegistry()
	}

	srv, err := serve.New(serve.Config{
		QueueDepth:        *queueDepth,
		Slots:             *slots,
		PortfolioWorkers:  *portfolio,
		JobTimeout:        *jobTimeout,
		QueueTimeout:      *queueTimeout,
		ResultCacheSize:   *resultCache,
		ArtifactCacheSize: *artifactCache,
		StallAfter:        *stallAfter,
		WALPath:           *walPath,
		ArtifactDir:       *artifactDir,
		Obs:               ocli.Scope(),
	})
	check(err)
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	st := srv.Snapshot()
	fmt.Fprintf(os.Stderr, "rtlserved: listening on %s (slots=%d queue=%d)\n", *addr, st.Slots, st.QueueCap)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		check(err)
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "rtlserved: draining...")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "rtlserved: drain:", err)
	}
	// In-flight HTTP requests (e.g. ?wait=1 pollers) complete as their
	// jobs reach terminal states; then close the listener.
	if err := hs.Shutdown(drainCtx); err != nil {
		_ = hs.Close()
	}
	check(ocli.Finish())
	fmt.Fprintln(os.Stderr, "rtlserved: bye")
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtlserved:", err)
		os.Exit(1)
	}
}
