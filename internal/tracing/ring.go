package tracing

import (
	"slices"

	"hotpaths/internal/ringbuf"
)

// ring is the bounded buffer of completed traces: newest wins, oldest is
// overwritten.
type ring struct{ *ringbuf.Ring[*trace] }

func newRing(capacity int) ring { return ring{ringbuf.New[*trace](capacity)} }

// commit stores tr, numbered in commit order.
func (r ring) commit(tr *trace) {
	r.Put(func(seq uint64) *trace {
		tr.seq = seq
		return tr
	})
}

// snapshot returns the retained traces newest-first.
func (r ring) snapshot() []*trace {
	out := r.All()
	slices.Reverse(out)
	return out
}

// byID returns every retained trace with the given ID, oldest commit
// first. More than one entry is normal: a write that also ticks sends two
// requests to the same partition under one trace ID, and each inbound
// request commits its own local span set.
func (r ring) byID(id TraceID) []*trace {
	return slices.DeleteFunc(r.All(), func(tr *trace) bool { return tr.id != id })
}
