package serve

import (
	"encoding/json"

	"rtlrepair/internal/core"
)

// The two cache tiers are in-memory LRUs. With Config.ArtifactDir set,
// the result tier also reads through to the on-disk CAS on a miss
// (warming the LRU) and writes through to it on a put, so a restarted
// server still answers the requests it has seen. The on-disk store
// holds results only: a frontend is rebuilt by core.NewFrontend after a
// restart. CAS failures only cost cache hits: decode and write errors
// count under serve.cas.result.{decode_errors,put_errors} and are
// otherwise ignored.

// Artifact is one cached frontend: the parsed request plus its
// preprocess+elaborate result, shared read-only across jobs.
type Artifact struct {
	parsed *parsedRequest
	// FE is the frozen frontend artifact (never nil; a failed frontend
	// carries its CannotRepair reason).
	FE *core.Frontend
}

// cachedResult looks a result key up in memory, then on disk.
func (s *Server) cachedResult(key string) (*RepairResult, bool) {
	if rr, ok := s.results.Get(key); ok {
		return rr, true
	}
	if s.cas == nil {
		return nil, false
	}
	blob, ok := s.cas.get(key)
	if !ok {
		return nil, false
	}
	var rr RepairResult
	if err := json.Unmarshal(blob, &rr); err != nil {
		s.metrics.Add("serve.cas.result.decode_errors", 1)
		return nil, false
	}
	s.metrics.Add("serve.cas.result.hits", 1)
	s.results.Put(key, &rr)
	return &rr, true
}

// storeResult caches a terminal result in memory and on disk. A failed
// write is counted, not returned: the in-memory tier still serves this
// process.
func (s *Server) storeResult(key string, rr *RepairResult) {
	s.results.Put(key, rr)
	if s.cas == nil {
		return
	}
	blob, err := json.Marshal(rr)
	if err == nil {
		err = s.cas.put(key, blob)
	}
	if err != nil {
		s.metrics.Add("serve.cas.result.put_errors", 1)
	}
}
