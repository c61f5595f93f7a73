package smt

import (
	"math/bits"

	"rtlrepair/internal/sat"
)

// tseitin is the solver's gate library for its Lowering: each AND or
// XOR gate is a fresh SAT variable tied to its operands by Tseitin
// clauses, built once per operand pair and found again in table.
type tseitin struct {
	sat   *sat.Solver
	table gateTable
}

// And returns a literal equivalent to a ∧ b.
func (g *tseitin) And(a, b sat.Lit) sat.Lit {
	if b < a {
		a, b = b, a
	}
	key := gateKey(false, a, b)
	if x, ok := g.table.get(key); ok {
		return x
	}
	x := g.Input()
	g.sat.AddClause(x.Not(), a)
	g.sat.AddClause(x.Not(), b)
	g.sat.AddClause(x, a.Not(), b.Not())
	g.table.put(key, x)
	return x
}

// Xor returns a literal equivalent to a ⊕ b.
func (g *tseitin) Xor(a, b sat.Lit) sat.Lit {
	if b < a {
		a, b = b, a
	}
	key := gateKey(true, a, b)
	if x, ok := g.table.get(key); ok {
		return x
	}
	x := g.Input()
	g.sat.AddClause(x.Not(), a, b)
	g.sat.AddClause(x.Not(), a.Not(), b.Not())
	g.sat.AddClause(x, a, b.Not())
	g.sat.AddClause(x, a.Not(), b)
	g.table.put(key, x)
	return x
}

// Input returns the literal of a fresh SAT variable.
func (g *tseitin) Input() sat.Lit { return sat.PosLit(g.sat.NewVar()) }

// gateTable caches the Tseitin gates the blaster has built: it maps a
// gate key (see gateKey) to the gate's output literal. It is open
// addressing with linear probing over 12-byte slots, a key and its
// literal in parallel slices, and it doubles at 3/4 load. Nothing in it
// is a pointer, so the GC never scans it.
type gateTable struct {
	keys  []uint64 // 0 marks an empty slot; no gate key is 0
	vals  []sat.Lit
	n     int  // keys in the table
	shift uint // 64 - log2(len(keys)): the hash's top bits pick the slot
}

// gateKey packs a gate over operand literals a < b: a, then b, then one
// bit that is set for XOR and clear for AND. b > a ≥ 0, so no key is 0.
func gateKey(xor bool, a, b sat.Lit) uint64 {
	k := uint64(uint32(a))<<33 | uint64(uint32(b))<<1
	if xor {
		k |= 1
	}
	return k
}

// slot is the home slot of key k (Fibonacci hashing).
func (g *gateTable) slot(k uint64) int {
	return int((k * 0x9e3779b97f4a7c15) >> g.shift)
}

// get returns the gate of key k, if the table holds it.
func (g *gateTable) get(k uint64) (sat.Lit, bool) {
	if g.n == 0 {
		return 0, false
	}
	mask := len(g.keys) - 1
	for i := g.slot(k); ; i = (i + 1) & mask {
		switch g.keys[i] {
		case k:
			return g.vals[i], true
		case 0:
			return 0, false
		}
	}
}

// put records gate v under key k, which the table must not hold.
func (g *gateTable) put(k uint64, v sat.Lit) {
	if 4*(g.n+1) > 3*len(g.keys) {
		g.grow()
	}
	mask := len(g.keys) - 1
	i := g.slot(k)
	for g.keys[i] != 0 {
		i = (i + 1) & mask
	}
	g.keys[i], g.vals[i] = k, v
	g.n++
}

// reset empties the table, keeping its slots.
func (g *gateTable) reset() {
	clear(g.keys)
	g.n = 0
}

// grow doubles the table (to 64 slots from empty) and reinserts every
// key.
func (g *gateTable) grow() {
	keys, vals := g.keys, g.vals
	size := max(2*len(keys), 64)
	g.keys, g.vals = make([]uint64, size), make([]sat.Lit, size)
	g.shift = uint(64 - bits.TrailingZeros(uint(size)))
	g.n = 0
	for i, k := range keys {
		if k != 0 {
			g.put(k, vals[i])
		}
	}
}
