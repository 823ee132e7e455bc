package ringbuf

import (
	"slices"
	"testing"
)

type entry struct {
	seq uint64
	v   int
}

func put(r *Ring[entry], v int) {
	r.Put(func(seq uint64) entry { return entry{seq: seq, v: v} })
}

// The trace ring and the flight recorder race their rings from many
// goroutines in their own tests; this one pins the order, the numbering
// and the empty case (a non-nil slice, which /debug/events encodes as []).
func TestRingKeepsNewestInOrder(t *testing.T) {
	r := New[entry](3)
	if got := r.All(); got == nil || len(got) != 0 {
		t.Fatalf("empty ring: All() = %#v, want a non-nil empty slice", got)
	}
	for v := 10; v < 12; v++ {
		put(r, v)
	}
	if got, want := r.All(), []entry{{0, 10}, {1, 11}}; !slices.Equal(got, want) {
		t.Fatalf("before wrapping: %v, want %v", got, want)
	}
	for v := 12; v < 17; v++ {
		put(r, v)
	}
	if got, want := r.All(), []entry{{4, 14}, {5, 15}, {6, 16}}; !slices.Equal(got, want) {
		t.Fatalf("after wrapping: %v, want %v", got, want)
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	one := New[entry](0)
	put(one, 1)
	put(one, 2)
	if got, want := one.All(), []entry{{1, 2}}; !slices.Equal(got, want) {
		t.Fatalf("capacity 0 ring holds %v, want %v", got, want)
	}
}
