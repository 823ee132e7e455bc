package raytrace

import (
	"fmt"
	"iter"

	"hotpaths/internal/trajectory"
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
// filter dump plus the noise levels its tolerance model was built with.
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
type Bank struct {
	tol     func(sigmaX, sigmaY float64) ToleranceFunc
	exact   ToleranceFunc // tol(0, 0)
	entries map[int]*bankEntry
}

// bankEntry is a filter with the noise levels of the measurement that
// seeded it, the parameters a restore rebuilds its tolerance from. One
// allocation holds both.
type bankEntry struct {
	f              Filter
	sigmaX, sigmaY float64
}

// NewBank returns an empty bank whose filters take their tolerance model
// from tol, called with the noise levels of each object's first
// measurement. tol must depend on nothing else: every exact object
// shares the one model tol(0, 0).
func NewBank(tol func(sigmaX, sigmaY float64) ToleranceFunc) Bank {
	return Bank{tol: tol, exact: tol(0, 0), entries: make(map[int]*bankEntry)}
}

// tolerance is the model for a filter seeded with the given noise levels.
func (b *Bank) tolerance(sigmaX, sigmaY float64) ToleranceFunc {
	if sigmaX == 0 && sigmaY == 0 {
		return b.exact
	}
	return b.tol(sigmaX, sigmaY)
}

// Observe feeds one measurement of object id. The first one seeds the
// object's filter and never reports; later ones step it, and report=true
// hands back the state to send to the coordinator. A refused measurement
// is an *ObjectError and leaves the filter as it was.
func (b *Bank) Observe(id int, tp trajectory.TimePoint, sigmaX, sigmaY float64) (st State, report bool, err error) {
	e, ok := b.entries[id]
	if !ok {
		e = &bankEntry{f: Filter{tol: b.tolerance(sigmaX, sigmaY)}, sigmaX: sigmaX, sigmaY: sigmaY}
		e.f.reset(tp)
		b.entries[id] = e
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
	e, ok := b.entries[id]
	if !ok {
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
	e, ok := b.entries[id]
	return ok && e.f.s.Waiting && e.f.State() == st
}

// Dump yields every object's entry, in no particular order. It hands
// them out one at a time, so a checkpoint holds no second copy of the
// bank while it collects them.
func (b *Bank) Dump() iter.Seq[FilterEntry] {
	return func(yield func(FilterEntry) bool) {
		for id, e := range b.entries {
			if !yield(FilterEntry{ObjectID: id, SigmaX: e.sigmaX, SigmaY: e.sigmaY, Filter: e.f.Dump()}) {
				return
			}
		}
	}
}

// Restore adds a dumped entry, rebuilding its tolerance model from the
// entry's noise levels; the filter then behaves bit-identically to the
// dumped one. An object the bank already holds is refused.
func (b *Bank) Restore(fe FilterEntry) error {
	if _, dup := b.entries[fe.ObjectID]; dup {
		return fmt.Errorf("restored filter for object %d is duplicated", fe.ObjectID)
	}
	b.entries[fe.ObjectID] = &bankEntry{f: restore(fe.Filter, b.tolerance(fe.SigmaX, fe.SigmaY)), sigmaX: fe.SigmaX, sigmaY: fe.SigmaY}
	return nil
}
