package sat

// varHeap is a max-heap over variable activities used for VSIDS
// branching. It indexes positions so updates are O(log n). Variables and
// positions are int32: half the memory traffic of int on the hot
// sift paths.
type varHeap struct {
	activity *[]float64
	heap     []int32
	pos      []int32 // var -> index in heap, -1 if absent
}

func newVarHeap(act *[]float64) *varHeap {
	return &varHeap{activity: act}
}

func (h *varHeap) less(a, b int) bool {
	return (*h.activity)[h.heap[a]] > (*h.activity)[h.heap[b]]
}

func (h *varHeap) swap(a, b int) {
	h.heap[a], h.heap[b] = h.heap[b], h.heap[a]
	h.pos[h.heap[a]] = int32(a)
	h.pos[h.heap[b]] = int32(b)
}

func (h *varHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h *varHeap) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(h.heap) && h.less(l, best) {
			best = l
		}
		if r < len(h.heap) && h.less(r, best) {
			best = r
		}
		if best == i {
			return
		}
		h.swap(i, best)
		i = best
	}
}

func (h *varHeap) insert(v int) {
	for len(h.pos) <= v {
		h.pos = append(h.pos, -1)
	}
	if h.pos[v] != -1 {
		return
	}
	h.heap = append(h.heap, int32(v))
	h.pos[v] = int32(len(h.heap) - 1)
	h.up(len(h.heap) - 1)
}

func (h *varHeap) insertIfAbsent(v int) { h.insert(v) }

func (h *varHeap) update(v int) {
	if v < len(h.pos) && h.pos[v] != -1 {
		h.up(int(h.pos[v]))
	}
}

func (h *varHeap) pop() (int, bool) {
	if len(h.heap) == 0 {
		return 0, false
	}
	v := h.heap[0]
	last := len(h.heap) - 1
	h.swap(0, last)
	h.heap = h.heap[:last]
	h.pos[v] = -1
	if len(h.heap) > 0 {
		h.down(0)
	}
	return int(v), true
}
