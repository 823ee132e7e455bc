package raytrace

import (
	"fmt"
	"iter"

	"hotpaths/internal/trajectory"
	"hotpaths/internal/uncertainty"
)

// An ObjectError is a measurement one object's filter refused (e.g. a
// non-increasing timestamp). Deployments wrap it in their own prefix, so
// callers classify with errors.As(&ObjectError{}) — never by matching
// the rendered text (the errstring contract).
type ObjectError struct {
	ObjectID int
	Err      error
}

func (e *ObjectError) Error() string { return fmt.Sprintf("object %d: %v", e.ObjectID, e.Err) }

func (e *ObjectError) Unwrap() error { return e.Err }

// FilterEntry is one object's bank state, as checkpoints carry it: the
// filter dump plus the noise levels its tolerance was solved for.
type FilterEntry struct {
	ObjectID       int
	SigmaX, SigmaY float64
	Filter         FilterState
}

// A Bank is the client half of the paper for a set of objects: one
// filter per object id, seeded by the object's first measurement and
// re-seeded by the coordinator's responses. Its owner keeps it in place
// (a copy would share the original's filters). It is not safe for
// concurrent use.
//
// The filters live by value in fixed-size chunks, in first-sighting
// order, so an entry never moves once seeded. An id finds its slot
// through a dense index over the non-negative ids below len(dense), and
// any other id (negative, huge or sparse) through a map: an id is in the
// dense index exactly when 0 <= id < len(dense), and the index holds at
// most denseBound(Len()) slots.
type Bank struct {
	eps, delta float64 // the (ε,δ) its filters' tolerances are solved for
	chunks     []*[chunkLen]bankEntry
	ids        []int         // ids[slot] is the object whose filter is at slot
	dense      []int32       // dense[id] is id's slot + 1, 0 if it has none
	far        map[int]int32 // the slot + 1 of each id the dense index does not cover
	bufs       *bufPool      // the waiting buffers its filters pass on
}

// chunkLen is the number of filters one chunk of a bank's store holds.
const chunkLen = 256

// denseBound is the most slots the dense index may span for a bank of n
// filters. A slot is 4 bytes and a filter 192, so past a fixed 16 KiB
// the index never takes more memory than the filters it finds, whatever
// ids the bank is fed.
func denseBound(n int) int { return 4096 + 48*n }

// bankEntry is a filter with the noise levels of the measurement that
// seeded it, which a restore solves its tolerance from again.
type bankEntry struct {
	f              Filter
	sigmaX, sigmaY float64
}

// NewBank returns an empty bank whose filters are closeness-checked under
// (eps, delta): each object's tolerance is solved by
// uncertainty.HalfWidths from the noise levels of its first measurement,
// and stays fixed for the filter's life.
func NewBank(eps, delta float64) Bank {
	return Bank{eps: eps, delta: delta, bufs: new(bufPool)}
}

// find returns object id's entry, or nil if the bank holds no filter for
// it.
func (b *Bank) find(id int) *bankEntry {
	var ref int32
	if uint(id) < uint(len(b.dense)) {
		ref = b.dense[id]
	} else {
		ref = b.far[id]
	}
	if ref == 0 {
		return nil
	}
	return b.at(int(ref - 1))
}

func (b *Bank) at(slot int) *bankEntry {
	return &b.chunks[uint(slot)/chunkLen][uint(slot)%chunkLen]
}

// add gives object id, which the bank holds no filter for, the next slot
// of the store and returns its zero entry.
func (b *Bank) add(id int) *bankEntry {
	slot := len(b.ids)
	if slot%chunkLen == 0 {
		b.chunks = append(b.chunks, new([chunkLen]bankEntry))
	}
	b.ids = append(b.ids, id)
	if bound := denseBound(len(b.ids)); id >= len(b.dense) && id < bound {
		// Only a growth that at least doubles the index is made, so an
		// index grows a logarithmic number of times however its ids
		// arrive; an id it cannot cover yet waits in the map.
		if n := max(id+1, 2*len(b.dense), 64); n <= bound {
			b.grow(n)
		}
	}
	if uint(id) < uint(len(b.dense)) {
		b.dense[id] = int32(slot + 1)
	} else {
		if b.far == nil {
			b.far = make(map[int]int32)
		}
		b.far[id] = int32(slot + 1)
	}
	return b.at(slot)
}

// grow widens the dense index to n slots and moves into it every id of
// the map it now covers.
func (b *Bank) grow(n int) {
	dense := make([]int32, n)
	copy(dense, b.dense)
	b.dense = dense
	for id, ref := range b.far {
		if uint(id) < uint(n) {
			dense[id] = ref
			delete(b.far, id)
		}
	}
}

// Observe feeds one measurement of object id. The first one seeds the
// object's filter and never reports; later ones step it, and report=true
// hands back the state to send to the coordinator. A refused measurement
// is an *ObjectError and leaves the filter as it was.
func (b *Bank) Observe(id int, tp trajectory.TimePoint, sigmaX, sigmaY float64) (st State, report bool, err error) {
	e := b.find(id)
	if e == nil {
		e = b.add(id)
		*e = bankEntry{f: Filter{half: uncertainty.HalfWidths(b.eps, b.delta, sigmaX, sigmaY), bufs: b.bufs}, sigmaX: sigmaX, sigmaY: sigmaY}
		e.f.reset(tp)
		return State{}, false, nil
	}
	// A filter that reports is left holding the state it reported. Reading
	// it back only then, rather than passing Process's copy through,
	// keeps the copy off the calls that do not report (nearly all).
	_, report, err = e.f.Process(tp)
	if err != nil {
		return State{}, false, &ObjectError{ObjectID: id, Err: err}
	}
	if !report {
		return State{}, false, nil
	}
	return e.f.State(), true, nil
}

// Respond delivers the coordinator's endpoint for object id (see
// Filter.Respond); report=true is the follow-up state a buffered
// measurement raised against the fresh safe area.
func (b *Bank) Respond(id int, end trajectory.TimePoint) (st State, report bool, err error) {
	e := b.find(id)
	if e == nil {
		return State{}, false, fmt.Errorf("respond to object %d: no filter", id)
	}
	st, report, err = e.f.Respond(end)
	if err != nil {
		return State{}, false, fmt.Errorf("respond to object %d: %w", id, err)
	}
	return st, report, nil
}

// Awaits reports whether object id's filter is waiting for the answer to
// st: a waiting filter keeps the state it reported until it is answered.
func (b *Bank) Awaits(id int, st State) bool {
	e := b.find(id)
	return e != nil && e.f.s.Waiting && e.f.State() == st
}

// Len returns the number of objects the bank holds a filter for.
func (b *Bank) Len() int { return len(b.ids) }

// Dump yields every object's entry, in the order the bank first saw the
// objects. It hands them out one at a time, so a checkpoint holds no
// second copy of the bank while it collects them.
func (b *Bank) Dump() iter.Seq[FilterEntry] {
	return func(yield func(FilterEntry) bool) {
		for slot, id := range b.ids {
			e := b.at(slot)
			if !yield(FilterEntry{ObjectID: id, SigmaX: e.sigmaX, SigmaY: e.sigmaY, Filter: e.f.Dump()}) {
				return
			}
		}
	}
}

// Restore adds a dumped entry, solving its tolerance again from the
// entry's noise levels; the filter then behaves bit-identically to the
// dumped one. An object the bank already holds is refused.
func (b *Bank) Restore(fe FilterEntry) error {
	if b.find(fe.ObjectID) != nil {
		return fmt.Errorf("restored filter for object %d is duplicated", fe.ObjectID)
	}
	*b.add(fe.ObjectID) = bankEntry{f: restore(fe.Filter, uncertainty.HalfWidths(b.eps, b.delta, fe.SigmaX, fe.SigmaY), b.bufs), sigmaX: fe.SigmaX, sigmaY: fe.SigmaY}
	return nil
}
