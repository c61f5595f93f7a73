package smt

// FactCache carries environment-free ("base") abstract facts across the
// solvers of one synthesizer. Terms are hash-consed, so a *Term is a
// stable identity for one structural term within a context's lifetime
// (including copy-on-write Clone layers), and the base fact of a term —
// the product-domain value derivable from its structure alone, with no
// asserted constraints — is a pure function of that identity. Window
// rebuilds (k_past moves) throw the solver away but keep the context,
// so every base fact derived in an earlier window is still valid in the
// next one; incremental Extends additionally prewarm the cache for the
// freshly materialized step expressions (see tsys.Unrolling).
//
// Environment facts (learned from asserted trace constraints) are
// deliberately NOT cached here: they are justified only by the asserts
// of one solver's lifetime. Abs keeps those in its per-solver layer and
// intersects them on top of the base facts from this cache.
//
// A FactCache is confined to one synthesizer's sequential solver
// lineage and is not safe for concurrent use.
type FactCache struct {
	base map[*Term]Fact

	// Hits/Misses count base-fact lookups served from / added to the
	// cache, Warmed counts terms precomputed by tsys Extend prewarming.
	Hits, Misses, Warmed int64
}

// NewFactCache returns an empty cache.
func NewFactCache() *FactCache {
	return &FactCache{base: map[*Term]Fact{}}
}

// Len reports the number of cached base facts.
func (fc *FactCache) Len() int {
	if fc == nil {
		return 0
	}
	return len(fc.base)
}

// get returns the cached base fact for t.
func (fc *FactCache) get(t *Term) (Fact, bool) {
	f, ok := fc.base[t]
	if ok {
		fc.Hits++
	}
	return f, ok
}

// put stores the base fact for t.
func (fc *FactCache) put(t *Term, f Fact) {
	fc.Misses++
	fc.base[t] = f
}

// Warm precomputes base facts for t's whole sub-DAG so later solver
// queries hit the cache. Used by tsys.Unrolling when Extend
// materializes the next cycle's step expressions.
func (fc *FactCache) Warm(t *Term) {
	if fc == nil || t == nil {
		return
	}
	if _, ok := fc.base[t]; ok {
		return
	}
	fc.Warmed++
	scratch := &Abs{cache: fc}
	scratch.baseFact(t)
}
