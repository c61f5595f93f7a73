package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"rtlrepair/internal/bench"
	"rtlrepair/internal/eval"
)

// benchRequest renders a benchmark in the service wire format: library
// modules first, the buggy top module last, the recorded testbench as
// CSV, and the evaluation's seed choice (the first seed under which the
// buggy design actually fails).
func benchRequest(t *testing.T, name string) *Request {
	t.Helper()
	b := bench.ByName(name)
	if b == nil {
		t.Fatalf("unknown benchmark %s", name)
	}
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
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := tr.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	return &Request{
		Source:  src.String(),
		Trace:   csv.String(),
		Options: ReqOptions{Seed: eval.ChooseSeed(b, 1)},
	}
}

// goldenStatus reads the expected status from the batch goldens, the
// same files the repository's golden test locks down.
func goldenStatus(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "repair_goldens", name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	line, _, _ := strings.Cut(string(data), "\n")
	return strings.TrimPrefix(line, "status: ")
}

// TestConcurrentClientsMatchGoldenVerdicts runs 8 concurrent clients
// against a live server over real corpus designs (repeating each
// several times so the dedup and result-cache paths are exercised under
// contention) and checks every verdict against the golden batch
// results. Run with -race in CI.
func TestConcurrentClientsMatchGoldenVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	designs := []string{"counter_k1", "flop_w1", "decoder_w1"}
	want := map[string]string{}
	reqs := map[string]*Request{}
	for _, name := range designs {
		want[name] = goldenStatus(t, name)
		reqs[name] = benchRequest(t, name)
	}

	s, err := New(Config{Slots: 4, QueueDepth: 256, JobTimeout: 120 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients = 8
	const perClient = 6
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				name := designs[(c+i)%len(designs)]
				body, _ := json.Marshal(reqs[name])
				resp, err := http.Post(ts.URL+"/v1/repair?wait=1", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				var v JobView
				err = json.NewDecoder(resp.Body).Decode(&v)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if v.State != StateDone || v.Result == nil {
					errs <- fmt.Errorf("client %d: job not done: %+v", c, v)
					return
				}
				if v.Result.Status != want[name] {
					errs <- fmt.Errorf("client %d: %s: status %q, want %q",
						c, name, v.Result.Status, want[name])
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Under this workload (3 distinct requests, 48 submissions) almost
	// everything must come from dedup or the result cache.
	m := s.Metrics()
	organic := m.Counter("serve.jobs.accepted")
	served := organic + m.Counter("serve.jobs.deduped") + m.Counter("serve.jobs.cached")
	if served != clients*perClient {
		t.Errorf("served %d submissions, want %d", served, clients*perClient)
	}
	if organic > int64(len(designs)) {
		t.Errorf("%d organic repairs for %d distinct requests — dedup/cache failed", organic, len(designs))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}
