// Package bench rebuilds the paper's benchmark corpus in the tool's
// Verilog subset: the CirFix suite (Table 3) with the same projects,
// defect classes and short names, and the open-source bugs of Table 6.
// Ground-truth designs are simulated to record I/O traces (§6.1); large
// designs (i2c, sha3, pairing, reed-solomon, sdram) are re-authored as
// "-lite" cores that keep the control/datapath structure and the exact
// bug sites while staying at a scale this framework simulates honestly.
// Each substitution is documented in DESIGN.md.
package bench

import (
	"fmt"
	"math/rand"
	"sync"

	"rtlrepair/internal/bv"
	"rtlrepair/internal/sim"
	"rtlrepair/internal/smt"
	"rtlrepair/internal/synth"
	"rtlrepair/internal/trace"
	"rtlrepair/internal/tsys"
	"rtlrepair/internal/verilog"
)

// Benchmark is one buggy design with its ground truth and testbench.
type Benchmark struct {
	Name    string // short name used throughout the paper (Table 3)
	Project string
	Defect  string

	GroundTruth string
	Buggy       string
	Lib         map[string]string // extra modules, by module name

	Inputs  []trace.Signal
	Outputs []trace.Signal
	// Stimulus returns the input rows of the recorded testbench.
	Stimulus func() [][]bv.XBV
	// ExtStimulus is the extended testbench (decoder benchmarks, §6.2).
	ExtStimulus func() [][]bv.XBV

	// Suite is "cirfix" or "osrc" (Table 6).
	Suite string
	// PaperRTLRepair/PaperCirFix record the paper's outcome symbols for
	// shape comparison: "ok" (✔), "wrong" (✖), "none" (○).
	PaperRTLRepair string
	PaperCirFix    string
	// PaperTemplate is the template the paper reports (Table 5/6).
	PaperTemplate string
	// DiffAdd/DiffDel: bug diff line counts (Table 6).
	DiffAdd, DiffDel int

	once   sync.Once
	tr     *trace.Trace
	extTr  *trace.Trace
	trErr  error
	libMod map[string]*verilog.Module
}

// LibModules parses the benchmark's library modules.
func (b *Benchmark) LibModules() (map[string]*verilog.Module, error) {
	if b.libMod != nil {
		return b.libMod, nil
	}
	out := map[string]*verilog.Module{}
	for name, src := range b.Lib {
		m, err := verilog.ParseModule(src)
		if err != nil {
			return nil, fmt.Errorf("bench %s: lib %s: %v", b.Name, name, err)
		}
		out[name] = m
	}
	b.libMod = out
	return out, nil
}

// GroundTruthModule parses the ground truth.
func (b *Benchmark) GroundTruthModule() (*verilog.Module, error) {
	return verilog.ParseModule(b.GroundTruth)
}

// BuggyModule parses the buggy design.
func (b *Benchmark) BuggyModule() (*verilog.Module, error) {
	return verilog.ParseModule(b.Buggy)
}

// GroundTruthSystem elaborates the ground truth.
func (b *Benchmark) GroundTruthSystem() (*tsys.System, error) {
	m, err := b.GroundTruthModule()
	if err != nil {
		return nil, err
	}
	lib, err := b.LibModules()
	if err != nil {
		return nil, err
	}
	sys, _, err := synth.Elaborate(smt.NewContext(), m, synth.Options{Lib: lib})
	return sys, err
}

// BuggySystem elaborates the buggy design (may fail for synthesizability
// bugs — that is part of the benchmark).
func (b *Benchmark) BuggySystem() (*tsys.System, error) {
	m, err := b.BuggyModule()
	if err != nil {
		return nil, err
	}
	lib, err := b.LibModules()
	if err != nil {
		return nil, err
	}
	sys, _, err := synth.Elaborate(smt.NewContext(), m, synth.Options{Lib: lib})
	return sys, err
}

// record simulates the ground truth with X-propagation to produce a
// trace whose unknowable cells are don't-cares.
func (b *Benchmark) record(rows [][]bv.XBV) (*trace.Trace, error) {
	sys, err := b.GroundTruthSystem()
	if err != nil {
		return nil, fmt.Errorf("bench %s: ground truth: %v", b.Name, err)
	}
	cs := sim.NewCycleSim(sys, sim.KeepX, 0)
	return sim.RecordTrace(cs, b.Inputs, b.Outputs, rows), nil
}

// Trace returns the recorded testbench trace (cached).
func (b *Benchmark) Trace() (*trace.Trace, error) {
	b.once.Do(func() {
		b.tr, b.trErr = b.record(b.Stimulus())
		if b.trErr == nil && b.ExtStimulus != nil {
			b.extTr, b.trErr = b.record(b.ExtStimulus())
		}
	})
	return b.tr, b.trErr
}

// ExtendedTrace returns the extended testbench trace, or nil.
func (b *Benchmark) ExtendedTrace() (*trace.Trace, error) {
	if _, err := b.Trace(); err != nil {
		return nil, err
	}
	return b.extTr, nil
}

// TBCycles reports the testbench length.
func (b *Benchmark) TBCycles() int {
	tr, err := b.Trace()
	if err != nil {
		return 0
	}
	return tr.Len()
}

// mustReplace applies an exact source replacement and panics when the
// pattern is missing — bugs are defined as diffs against the ground
// truth, and a silent non-match would corrupt the benchmark.
func mustReplace(src, old, new string, n int) string {
	count := 0
	out := src
	for i := 0; i < n; i++ {
		idx := indexOf(out, old)
		if idx < 0 {
			break
		}
		out = out[:idx] + new + out[idx+len(old):]
		count++
	}
	if count != n {
		panic(fmt.Sprintf("bench: pattern %q matched %d times, want %d", old, count, n))
	}
	return out
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// stim is a helper to build deterministic stimulus sequences.
type stim struct {
	widths []int
	rows   [][]bv.XBV
	rng    *rand.Rand
}

func newStim(seed int64, widths ...int) *stim {
	return &stim{widths: widths, rng: rand.New(rand.NewSource(seed))}
}

// row appends one cycle with the given values (one per input column).
func (s *stim) row(vals ...uint64) *stim {
	cells := make([]bv.XBV, len(s.widths))
	for i, w := range s.widths {
		cells[i] = bv.KU(w, vals[i])
	}
	s.rows = append(s.rows, cells)
	return s
}

// repeat appends the same row n times.
func (s *stim) repeat(n int, vals ...uint64) *stim {
	for i := 0; i < n; i++ {
		s.row(vals...)
	}
	return s
}

// random appends n rows of uniformly random values.
func (s *stim) random(n int) *stim {
	for i := 0; i < n; i++ {
		cells := make([]bv.XBV, len(s.widths))
		for j, w := range s.widths {
			cells[j] = bv.K(bv.FromWords(w, []uint64{s.rng.Uint64(), s.rng.Uint64()}))
		}
		s.rows = append(s.rows, cells)
	}
	return s
}

var (
	registryOnce sync.Once
	registry     []*Benchmark
)

// Registry returns every benchmark, CirFix suite first, in paper order.
// The registry (and each benchmark's recorded trace) is built once and
// shared; callers must treat benchmarks and traces as read-only.
func Registry() []*Benchmark {
	registryOnce.Do(func() {
		registry = append(registry, cirfixSuite()...)
		registry = append(registry, osrcSuite()...)
	})
	return registry
}

// Names lists every benchmark name in registry order. Useful for
// runners (benchmarks, golden tests) that iterate the corpus without
// holding Benchmark pointers.
func Names() []string {
	var out []string
	for _, b := range Registry() {
		out = append(out, b.Name)
	}
	return out
}

// ByName finds a benchmark.
func ByName(name string) *Benchmark {
	for _, b := range Registry() {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// CirFixSuite returns only the CirFix benchmarks.
func CirFixSuite() []*Benchmark {
	var out []*Benchmark
	for _, b := range Registry() {
		if b.Suite == "cirfix" {
			out = append(out, b)
		}
	}
	return out
}

// OsrcSuite returns only the open-source bug benchmarks (Table 6).
func OsrcSuite() []*Benchmark {
	var out []*Benchmark
	for _, b := range Registry() {
		if b.Suite == "osrc" {
			out = append(out, b)
		}
	}
	return out
}
