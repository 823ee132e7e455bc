// Package hotness is the expiry half of motion-path hotness over a sliding
// time window (paper Section 5.2).
//
// Hotness of a path is the number of crossings whose exit timestamp te lies
// within the last W time units. The paper keeps the counts in a hash table
// keyed by path id and decrements them from an event queue, a binary
// min-heap ordered by expiry time te+W. A Window is only that queue: the
// counts live with their owner, next to the rest of what it stores per
// path, so there is no second id-keyed table to keep in step (the
// coordinator's dense path table holds each count beside its path, found
// through an id → slot map in place of the paper's hash table). Advance
// reports every crossing that slides out of the window, once per crossing;
// the owner decrements its count and drops the path at zero. Heap
// operations are O(log n).
package hotness

import (
	"fmt"

	"hotpaths/internal/motion"
	"hotpaths/internal/trajectory"
)

type event struct {
	expiry trajectory.Time // te + W
	id     motion.PathID
}

// eventQueue is a binary min-heap on expiry. push and pop follow
// container/heap's Push and Pop swap for swap — the same up and down
// sifts, with the same comparisons — so a window's heap layout, which
// Dump exports and checkpoints store, is what container/heap would have
// built; they only skip its boxing of every event into an interface.
type eventQueue []event

func (q *eventQueue) push(e event) {
	*q = append(*q, e)
	h := *q
	// up
	for j := len(h) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].expiry < h[i].expiry) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (q *eventQueue) pop() event {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	// down, over h[:n]
	for i := 0; ; {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].expiry < h[j1].expiry {
			j = j2 // right child
		}
		if !(h[j].expiry < h[i].expiry) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	e := h[n]
	old := h[:n]
	// Re-slicing alone would pin the high-water backing array for the
	// life of the window after a mass expiry; halve the capacity whenever
	// occupancy falls below a quarter (amortised O(1) per pop, and the
	// next growth burst is still one allocation away).
	if cap(old) > minQueueCap && len(old) < cap(old)/4 {
		shrunk := make(eventQueue, len(old), cap(old)/2)
		copy(shrunk, old)
		*q = shrunk
	} else {
		*q = old
	}
	return e
}

// minQueueCap is the capacity floor below which the event queue stops
// shrinking; reallocating tiny arrays would cost more than it frees.
const minQueueCap = 64

// Window schedules the expiry of crossings over a sliding window of length
// W.
type Window struct {
	w     trajectory.Time
	queue eventQueue
}

// New returns an empty window of length w (must be positive).
func New(w trajectory.Time) (*Window, error) {
	if w <= 0 {
		return nil, fmt.Errorf("hotness: window length must be positive, got %d", w)
	}
	return &Window{w: w}, nil
}

// W returns the window length.
func (h *Window) W() trajectory.Time { return h.w }

// Cross schedules the expiry of a crossing of path id with exit timestamp
// te: it counts toward the path's hotness until te+W. The caller counts it.
func (h *Window) Cross(id motion.PathID, te trajectory.Time) {
	h.queue.push(event{expiry: te + h.w, id: id})
}

// Pending returns the number of scheduled expiry events.
func (h *Window) Pending() int { return len(h.queue) }

// Advance removes every crossing that expires at or before now (te+W ≤
// now), in expiry order, and calls expire with each one's path id: once per
// crossing, so a path crossed n times in the window is reported n times.
func (h *Window) Advance(now trajectory.Time, expire func(motion.PathID)) {
	for len(h.queue) > 0 && h.queue[0].expiry <= now {
		expire(h.queue.pop().id)
	}
}

// Crossing is one scheduled expiry event, exported for checkpointing.
type Crossing struct {
	Expiry trajectory.Time // te + W
	ID     motion.PathID
}

// Dump captures the window's pending expiry events in heap layout, the
// complete window state. Every live crossing has exactly one pending event,
// so an owner's counts are derived from the dump too.
func (h *Window) Dump() []Crossing {
	out := make([]Crossing, len(h.queue))
	for i, e := range h.queue {
		out[i] = Crossing{Expiry: e.expiry, ID: e.id}
	}
	return out
}

// Restore rebuilds a window of length w from a dump. The events are
// reinstated in the dumped order — a valid heap layout, since that is how
// they were captured — so subsequent Advance calls pop in exactly the
// order the dumped window would have.
func Restore(w trajectory.Time, events []Crossing) (*Window, error) {
	h, err := New(w)
	if err != nil {
		return nil, err
	}
	h.queue = make(eventQueue, len(events))
	for i, e := range events {
		h.queue[i] = event{expiry: e.Expiry, id: e.ID}
	}
	return h, nil
}
