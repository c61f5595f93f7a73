package serve

import (
	"fmt"
	"sync"
	"testing"

	"rtlrepair/internal/obs"
	"rtlrepair/internal/synth"
)

func TestLRUEvictionOrderAndCounters(t *testing.T) {
	m := obs.NewRegistry()
	c := newLRU[int]("t", 2, m)
	c.Put("a", 1)
	c.Put("b", 2)
	if _, ok := c.Get("a"); !ok { // a becomes most recently used
		t.Fatal("a missing")
	}
	c.Put("c", 3) // evicts b, the least recently used
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction though a was touched more recently")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted out of LRU order")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c missing")
	}
	if hits := m.Counter("serve.cache.t.hits"); hits != 3 {
		t.Fatalf("hits = %d, want 3", hits)
	}
	if misses := m.Counter("serve.cache.t.misses"); misses != 1 {
		t.Fatalf("misses = %d, want 1", misses)
	}
	if ev := m.Counter("serve.cache.t.evictions"); ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
	if g := m.Gauge("serve.cache.t.entries"); g != 2 {
		t.Fatalf("entries gauge = %v, want 2", g)
	}
}

// TestLRUChurnCounterConsistency hammers one LRU from many goroutines
// (run with -race) and then checks the counters still add up: every
// get is a hit or a miss, the cache never exceeds its cap, and the
// entries gauge agrees with the real size at quiescence.
func TestLRUChurnCounterConsistency(t *testing.T) {
	m := obs.NewRegistry()
	c := newLRU[int]("churn", 4, m)
	const (
		workers = 8
		ops     = 400
		keys    = 16
	)
	var gets, puts atomic64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("k%d", (w*ops+i*7)%keys)
				if i%3 == 0 {
					c.Put(key, i)
					puts.add(1)
				} else {
					c.Get(key)
					gets.add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	hits := m.Counter("serve.cache.churn.hits")
	misses := m.Counter("serve.cache.churn.misses")
	if hits+misses != gets.load() {
		t.Fatalf("hits(%d)+misses(%d) != gets(%d)", hits, misses, gets.load())
	}
	if c.Len() > 4 {
		t.Fatalf("cache grew past cap: %d", c.Len())
	}
	if g := int(m.Gauge("serve.cache.churn.entries")); g != c.Len() {
		t.Fatalf("entries gauge %d != len %d", g, c.Len())
	}
	if ev := m.Counter("serve.cache.churn.evictions"); ev == 0 {
		t.Fatalf("no evictions across %d puts into a cap-4 cache", puts.load())
	}
}

type atomic64 struct {
	mu sync.Mutex
	v  int64
}

func (a *atomic64) add(d int64) { a.mu.Lock(); a.v += d; a.mu.Unlock() }
func (a *atomic64) load() int64 { a.mu.Lock(); defer a.mu.Unlock(); return a.v }

// TestSingleflightChurnNoDoubleElaboration runs the production repair
// seam with both cache tiers shrunk to one entry, while identical
// submissions race each other (run with -race). Even with the artifact
// evicted mid-flight, singleflight must keep elaborations bounded by
// the jobs that actually ran — an identical concurrent submission
// never elaborates twice.
func TestSingleflightChurnNoDoubleElaboration(t *testing.T) {
	if testing.Short() {
		t.Skip("real repairs")
	}
	s := newTestServer(t, Config{
		Slots: 2, QueueDepth: 64,
		ResultCacheSize: 1, ArtifactCacheSize: 1,
	}, nil)

	// Three source variants (distinct artifact keys) so a cap-1 artifact
	// cache churns; per variant, racing identical submissions.
	variants := make([]*Request, 3)
	for i := range variants {
		variants[i] = &Request{
			Source:  fmt.Sprintf("// variant %d\n%s", i, buggyCounterSrc),
			Trace:   counterTraceCSV,
			Options: ReqOptions{Seed: 7},
		}
	}

	// A repair elaborates more than once internally (per attempt/window),
	// so "no double elaboration" can't mean "one per job". Measure the
	// per-job cost on an uncontended baseline run of the same design;
	// the variants below differ only by a comment, so each job that
	// actually runs costs at most this much. The real assertion is that
	// deduped duplicates add ZERO on top.
	pre := synth.Elaborations()
	base, err := s.Submit(&Request{
		Source:  "// baseline\n" + buggyCounterSrc,
		Trace:   counterTraceCSV,
		Options: ReqOptions{Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, base)
	perJob := synth.Elaborations() - pre
	if perJob < 1 {
		t.Fatalf("baseline job elaborated %d times", perJob)
	}
	ranBase := s.metrics.Counter("serve.jobs.completed")
	elabBase := synth.Elaborations()
	var jobs []*Job
	var mu sync.Mutex
	var wg sync.WaitGroup
	for round := 0; round < 2; round++ {
		for _, req := range variants {
			for dup := 0; dup < 3; dup++ {
				wg.Add(1)
				go func(req Request) {
					defer wg.Done()
					job, err := s.Submit(&req)
					if err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					jobs = append(jobs, job)
					mu.Unlock()
				}(*req)
			}
		}
	}
	wg.Wait()
	seen := map[string]bool{}
	distinct := 0
	for _, job := range jobs {
		waitDone(t, job)
		if !seen[job.ID] {
			seen[job.ID] = true
			distinct++
		}
	}
	ran := s.metrics.Counter("serve.jobs.completed") - ranBase
	elabs := synth.Elaborations() - elabBase
	if elabs > ran*perJob {
		t.Fatalf("%d elaborations for %d ran jobs (%d per uncontended job): "+
			"duplicate submissions elaborated instead of deduping", elabs, ran, perJob)
	}
	if deduped := s.metrics.Counter("serve.jobs.deduped"); deduped == 0 {
		t.Fatal("no singleflight dedup despite racing identical submissions")
	}
	if ev := s.metrics.Counter("serve.cache.artifact.evictions"); ev == 0 {
		t.Fatal("no artifact evictions despite cap-1 cache and 3 variants")
	}
	// Every job reached a terminal state with a result.
	for _, job := range jobs {
		if v := job.View(); v.State != StateDone || v.Result == nil {
			t.Fatalf("job %s: %+v", job.ID, v)
		}
	}
}
