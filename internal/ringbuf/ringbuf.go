// Package ringbuf is the bounded buffer behind the trace ring
// (internal/tracing), the flight recorder (internal/flightrec) and the
// SLO sampler (internal/metrics): it keeps the newest entries,
// overwriting the oldest once full, and numbers every entry in the order
// it was put, so memory stays bounded however long the process runs.
package ringbuf

import "sync"

// Ring holds the last entries put into it. It is safe for concurrent use;
// one mutex is enough, since its users put once per sampled request, per
// operational event or per SLO sample, never per record.
type Ring[T any] struct {
	mu   sync.Mutex
	buf  []T
	next int    // slot the next Put writes
	n    int    // entries held; len(buf) once the ring has wrapped
	seq  uint64 // entries ever put
}

// New returns a ring that holds the last capacity entries (at least one).
func New[T any](capacity int) *Ring[T] {
	return &Ring[T]{buf: make([]T, max(capacity, 1))}
}

// Put stores the entry build makes from its sequence number: 0 for the
// first entry ever put, then 1, 2, ... When the ring is full the entry
// overwrites the oldest one. build runs under the ring's lock, so the
// numbers follow the order the entries are stored in.
func (r *Ring[T]) Put(build func(seq uint64) T) {
	r.mu.Lock()
	r.buf[r.next] = build(r.seq)
	r.seq++
	r.next = (r.next + 1) % len(r.buf)
	r.n = min(r.n+1, len(r.buf))
	r.mu.Unlock()
}

// Len returns the number of entries held.
func (r *Ring[T]) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// All returns a copy of the entries held, oldest first.
func (r *Ring[T]) All() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]T, 0, r.n)
	if r.n < len(r.buf) {
		return append(out, r.buf[:r.n]...)
	}
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}
