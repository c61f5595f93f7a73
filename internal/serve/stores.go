package serve

import (
	"encoding/json"
	"fmt"

	"rtlrepair/internal/core"
	"rtlrepair/internal/lint"
	"rtlrepair/internal/verilog"
)

// The two cache tiers are in-memory LRUs; with Config.ArtifactDir set,
// each reads through to the on-disk CAS on a miss (warming the LRU) and
// writes through to it on a put, so a restarted server comes back warm.
// CAS failures only cost cache hits: decode and write errors count
// under serve.cas.<tier>.{decode_errors,put_errors} and are otherwise
// ignored.

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

// storeResult caches a terminal result in memory and on disk.
func (s *Server) storeResult(key string, rr *RepairResult) {
	s.results.Put(key, rr)
	if s.cas != nil {
		blob, err := json.Marshal(rr)
		s.publish("result", key, blob, err)
	}
}

// diskArtifact rehydrates a frontend from the CAS, rebinding the
// requester's own library; false on a miss or an undecodable blob.
func (s *Server) diskArtifact(key string, parsed *parsedRequest) (*Artifact, bool) {
	if s.cas == nil {
		return nil, false
	}
	blob, ok := s.cas.get(key)
	if !ok {
		return nil, false
	}
	a, err := decodeArtifact(blob, parsed)
	if err != nil {
		s.metrics.Add("serve.cas.artifact.decode_errors", 1)
		return nil, false
	}
	s.metrics.Add("serve.cas.artifact.hits", 1)
	s.artifacts.Put(key, a)
	return a, true
}

// storeArtifact caches a freshly built frontend in memory and on disk.
func (s *Server) storeArtifact(key string, a *Artifact) {
	s.artifacts.Put(key, a)
	if s.cas != nil {
		blob, err := encodeArtifact(a)
		s.publish("artifact", key, blob, err)
	}
}

// publish writes one encoded blob to the CAS, counting (not returning)
// failures: the in-memory tier still serves this process.
func (s *Server) publish(tier, key string, blob []byte, err error) {
	if err == nil {
		err = s.cas.put(key, blob)
	}
	if err != nil {
		s.metrics.Add("serve.cas."+tier+".put_errors", 1)
	}
}

// artifactDoc is the serialized form of a frontend artifact in the
// on-disk store. The module source is the *preprocessed* design
// (printed), so a warm server skips the lint transform; the fix list
// and failure reason are carried verbatim because they are inputs to
// the repair verdict, and the analysis report plus elaboration are
// recomputed on rehydration — both are pure functions of the
// preprocessed module, so a warm frontend is byte-for-byte equivalent
// to a cold one (pinned by TestSharedArtifactWarmEqualsCold).
type artifactDoc struct {
	Version int      `json:"version"`
	Reason  string   `json:"reason,omitempty"`
	Fixed   string   `json:"fixed,omitempty"`
	Fixes   []docFix `json:"fixes,omitempty"`
}

type docFix struct {
	Kind   int    `json:"kind"`
	Line   int    `json:"line"`
	Col    int    `json:"col"`
	Signal string `json:"signal,omitempty"`
	Desc   string `json:"desc"`
}

const artifactDocVersion = 1

// encodeArtifact renders the persistable half of an artifact. The
// elaborated system itself is a process-local term DAG and is never
// written out.
func encodeArtifact(a *Artifact) ([]byte, error) {
	doc := artifactDoc{Version: artifactDocVersion, Reason: a.FE.Reason}
	if a.FE.Fixed != nil {
		doc.Fixed = verilog.Print(a.FE.Fixed)
	}
	for _, f := range a.FE.Fixes {
		doc.Fixes = append(doc.Fixes, docFix{
			Kind: int(f.Kind), Line: f.Pos.Line, Col: f.Pos.Col,
			Signal: f.Signal, Desc: f.Desc,
		})
	}
	return json.Marshal(doc)
}

// decodeArtifact rebuilds a frontend from an artifact doc plus the
// requester's own parsed request (which supplies the library and trace
// — preprocessing never rewrites library modules).
func decodeArtifact(blob []byte, parsed *parsedRequest) (*Artifact, error) {
	var doc artifactDoc
	if err := json.Unmarshal(blob, &doc); err != nil {
		return nil, err
	}
	if doc.Version != artifactDocVersion {
		return nil, fmt.Errorf("artifact doc version %d", doc.Version)
	}
	fixes := make([]lint.Fix, 0, len(doc.Fixes))
	for _, f := range doc.Fixes {
		fixes = append(fixes, lint.Fix{
			Kind: lint.FixKind(f.Kind), Pos: verilog.Pos{Line: f.Line, Col: f.Col},
			Signal: f.Signal, Desc: f.Desc,
		})
	}
	var fixed *verilog.Module
	if doc.Fixed != "" {
		mods, err := verilog.Parse(doc.Fixed)
		if err != nil || len(mods) != 1 {
			return nil, fmt.Errorf("artifact doc source: %v", err)
		}
		fixed = mods[0]
	}
	fe := core.RehydrateFrontend(fixed, parsed.lib, fixes, doc.Reason)
	return &Artifact{parsed: parsed, FE: fe}, nil
}
