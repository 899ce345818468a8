package simq

// The indexed event core: engine events are packed value structs — no
// interface boxing, no per-event allocation — ordered by a hand-rolled
// binary min-heap over (time, kind, replica). The lexicographic order
// IS the engine's tie rule: at one instant completions fire before
// batch-window expiries, and same-kind ties fire lowest replica index
// first, exactly the order the pre-indexed engine's ascending scans
// produced. Arrivals and autoscale evaluations are not heap events:
// arrivals stream from a cursor (they are already time-ordered) and
// evaluations are a strictly periodic scalar; both are compared against
// the heap top in the run loop.
//
// Events are invalidated lazily: a flush timer is cancelled by leaving
// its event in the heap and letting the pop-side validity check (does
// the replica still expect a flush at exactly this instant?) discard
// it. Completion events are never stale — a replica stays busy until
// its one completion fires — but are validated by the same rule for
// defense in depth.

const (
	// evComplete: a replica's in-flight pass (or boot/recache fill)
	// finishes and the replica frees.
	evComplete = iota
	// evFlush: an idle replica's partial-batch window expires.
	evFlush
)

// event is one packed engine event: the virtual instant, the kind and
// the replica it concerns. 16 bytes, stored by value in the heap slice.
type event struct {
	t    float64
	kind int32
	rep  int32
}

// before is the heap order: time, then kind (completions before
// flushes), then replica index.
func (a event) before(b event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.rep < b.rep
}

// eventHeap is a flat index-based binary min-heap of events. The zero
// value is ready; the backing slice is reused across pushes and pops,
// so a steady-state run allocates nothing here after warm-up.
type eventHeap struct {
	ev []event
}

func (h *eventHeap) len() int   { return len(h.ev) }
func (h *eventHeap) top() event { return h.ev[0] }

func (h *eventHeap) push(e event) {
	h.ev = append(h.ev, e)
	i := len(h.ev) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.ev[i].before(h.ev[p]) {
			break
		}
		h.ev[i], h.ev[p] = h.ev[p], h.ev[i]
		i = p
	}
}

func (h *eventHeap) pop() event {
	top := h.ev[0]
	n := len(h.ev) - 1
	h.ev[0] = h.ev[n]
	h.ev = h.ev[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && h.ev[l].before(h.ev[s]) {
			s = l
		}
		if r < n && h.ev[r].before(h.ev[s]) {
			s = r
		}
		if s == i {
			break
		}
		h.ev[i], h.ev[s] = h.ev[s], h.ev[i]
		i = s
	}
	return top
}
