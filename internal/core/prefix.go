package core

import (
	"sync"

	"rtlrepair/internal/bv"
	"rtlrepair/internal/sim"
	"rtlrepair/internal/trace"
	"rtlrepair/internal/tsys"
)

// PrefixCache is the encode prefix of one repair: the register states
// the unmodified design reaches after each trace prefix, the synthesizer's
// only source of window start states. Every portfolio attempt needs
// exactly these states — a template's instrumentation is
// behaviour-preserving at φ = 0, so the "all changes off" prefix
// simulation is the same computation for all of them. The portfolio
// runs it once, over the frontend's elaborated system, with one
// persistent simulator that extends monotonically; attempts on any
// worker read completed snapshots without re-simulating. A synthesizer
// given no shared cache builds a private one over its own system.
//
// Safe for concurrent use. Snapshots are returned by reference and must
// be treated as read-only (the synthesizer already folds them into the
// encoding as constants).
type PrefixCache struct {
	mu    sync.Mutex
	tr    *trace.Trace
	sim   *sim.CycleSim
	snaps []map[string]bv.XBV

	// widths indexes the cached system's state names to their widths,
	// for the compatibility check.
	widths map[string]int

	simulated int64 // cycles actually simulated (the work saved is attempts×cycles − this)
	hits      int64 // stateAt calls answered without simulating
}

// NewPrefixCache builds the prefix cache for one (design, trace,
// initial state) triple (use Concretize). sys is the uninstrumented
// elaborated system, or an instrumented one: the simulator reads its
// unset φ/α parameters as zero, and starts a register init does not
// assign at its reset value or zero.
func NewPrefixCache(sys *tsys.System, tr *trace.Trace, init map[string]bv.XBV) *PrefixCache {
	cs := sim.NewCycleSim(sys, sim.Zero, 0)
	for name, v := range init {
		cs.SetState(name, v)
	}
	widths := make(map[string]int, len(sys.States))
	for _, st := range sys.States {
		widths[st.Var.Name] = st.Var.Width
	}
	return &PrefixCache{
		tr:     tr,
		sim:    cs,
		snaps:  []map[string]bv.XBV{cs.Snapshot()},
		widths: widths,
	}
}

// StateAt returns the register state after the first `cycles` trace rows
// of the unmodified design, extending the cache if needed. The second
// result is how many cycles this call had to simulate (0 on a cache
// hit) — callers fold it into their PrefixCycles statistic so the
// counter still measures total simulation work.
func (p *PrefixCache) StateAt(cycles int) (map[string]bv.XBV, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	simulated := 0
	for len(p.snaps) <= cycles {
		p.sim.StepTrace(p.tr, len(p.snaps)-1)
		p.snaps = append(p.snaps, p.sim.Snapshot())
		simulated++
	}
	if simulated == 0 {
		p.hits++
	}
	p.simulated += int64(simulated)
	return p.snaps[cycles], simulated
}

// Covers reports whether the cache's snapshots are valid start states
// for the given instrumented system: the state spaces must match
// exactly. An instrumentation can add registers: a register that no
// output depends on is dropped by elaboration until a template's new
// guard reads it (C1's Add Guard). Such a synthesizer builds its own
// cache rather than risk a wrong start state.
func (p *PrefixCache) Covers(sys *tsys.System) bool {
	if len(sys.States) != len(p.widths) {
		return false
	}
	for _, st := range sys.States {
		if w, ok := p.widths[st.Var.Name]; !ok || w != st.Var.Width {
			return false
		}
	}
	return true
}

// Counters returns (cycles simulated, calls served from cache).
func (p *PrefixCache) Counters() (simulated, hits int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.simulated, p.hits
}
