package sat

import (
	"math"
	"math/bits"
)

// Watch lists. The solver and the checker each keep every literal's
// watch list in one pointer-free pool: a literal holds a 12-byte header
// naming its chunk of the pool, so the GC marks no watch list and a push
// allocates only when the pool itself grows. A chunk's capacity is a
// power of two. A list that outgrows its chunk moves to a chunk of
// twice the size, taken from that size's free list or from the pool's
// end, and its old chunk joins the free list of its own size. The pool
// only grows at its end, and offsets stay below 2^32.

// watcher is 8 bytes and pointer-free. In the solver c is a clause
// reference, carrying crefBinary for a binary clause; in the checker it
// is an offset into the checker's arena.
type watcher struct {
	c       cref
	blocker Lit
}

// watchList is one literal's list: its n watchers are pool[off:off+n],
// in a chunk of cap watchers at off. cap is 0 (no chunk) or a power of
// two.
type watchList struct{ off, n, cap uint32 }

// minChunk is the capacity of a list's first chunk.
const minChunk = 1

// watchStore holds the watch lists of one solver or checker.
type watchStore struct {
	lists []watchList // indexed by literal
	pool  []watcher
	// free[k] is 1 plus the offset of a free chunk of capacity 1<<k, or
	// 0 when there is none. A free chunk's first watcher holds the next
	// free chunk of its size the same way, in c.
	free [32]uint32
}

// reset returns the store emptied of every list, keeping the capacity
// of its headers and its pool.
func (ws *watchStore) reset() watchStore {
	return watchStore{lists: ws.lists[:0], pool: ws.pool[:0]}
}

// addVar adds the empty lists of one variable's two literals.
func (ws *watchStore) addVar() {
	ws.lists = append(ws.lists, watchList{}, watchList{})
}

// list returns literal l's watchers. The slice aliases the pool, and a
// push onto any list may reallocate the pool, so a caller that pushes
// must take the slice again; l's own chunk moves only on a push onto l.
func (ws *watchStore) list(l Lit) []watcher {
	h := ws.lists[l]
	return ws.pool[h.off : h.off+h.n : h.off+h.n]
}

// setLen keeps the first n watchers of literal l's list.
func (ws *watchStore) setLen(l Lit, n int) { ws.lists[l].n = uint32(n) }

// push appends w to literal l's list.
func (ws *watchStore) push(l Lit, w watcher) {
	h := &ws.lists[l]
	if h.n == h.cap {
		ws.relocate(h)
	}
	ws.pool[h.off+h.n] = w
	h.n++
}

// relocate moves h's watchers to a chunk of twice its capacity and puts
// the old chunk on its free list.
func (ws *watchStore) relocate(h *watchList) {
	if h.cap >= 1<<31 {
		panic("sat: watch list exceeds 2^31 watchers")
	}
	size := max(2*h.cap, minChunk)
	k := bits.TrailingZeros32(size)
	var off uint32
	if f := ws.free[k]; f != 0 {
		off = f - 1
		ws.free[k] = uint32(ws.pool[off].c)
	} else {
		if uint64(len(ws.pool))+uint64(size) > math.MaxUint32 {
			panic("sat: watch pool exceeds 2^32 watchers")
		}
		off = uint32(len(ws.pool))
		ws.pool = reserve(ws.pool, int(size))[:off+size]
	}
	copy(ws.pool[off:off+h.n], ws.pool[h.off:h.off+h.n])
	if h.cap != 0 {
		k := bits.TrailingZeros32(h.cap)
		ws.pool[h.off].c = cref(ws.free[k])
		ws.free[k] = h.off + 1
	}
	h.off, h.cap = off, size
}
