package hotness

import (
	"container/heap"
	"math/rand"
	"testing"

	"hotpaths/internal/motion"
	"hotpaths/internal/trajectory"
)

func mustWindow(t *testing.T, w trajectory.Time) *Window {
	t.Helper()
	h, err := New(w)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// counted is a window with an owner's counts beside it, kept the way the
// coordinator keeps them: up on Cross, down on each crossing Advance
// reports, and gone at zero.
type counted struct {
	*Window
	counts map[motion.PathID]int
}

func mustCounted(t *testing.T, w trajectory.Time) counted {
	return counted{mustWindow(t, w), map[motion.PathID]int{}}
}

func (c counted) Cross(id motion.PathID, te trajectory.Time) {
	c.counts[id]++
	c.Window.Cross(id, te)
}

// Advance slides the window and calls onZero for each path whose count
// reaches zero.
func (c counted) Advance(now trajectory.Time, onZero func(motion.PathID)) {
	c.Window.Advance(now, func(id motion.PathID) {
		if c.counts[id]--; c.counts[id] > 0 {
			return
		}
		delete(c.counts, id)
		if onZero != nil {
			onZero(id)
		}
	})
}

func (c counted) Hotness(id motion.PathID) int { return c.counts[id] }

func (c counted) Len() int { return len(c.counts) }

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("W=0 must error")
	}
	if _, err := New(-5); err == nil {
		t.Error("negative W must error")
	}
}

func TestCrossAndHotness(t *testing.T) {
	h := mustCounted(t, 100)
	if h.W() != 100 {
		t.Error("W accessor")
	}
	h.Cross(1, 10)
	h.Cross(1, 20)
	h.Cross(2, 15)
	if h.Hotness(1) != 2 || h.Hotness(2) != 1 || h.Hotness(3) != 0 {
		t.Errorf("hotness = %d,%d,%d", h.Hotness(1), h.Hotness(2), h.Hotness(3))
	}
	if h.Len() != 2 || h.Pending() != 3 {
		t.Errorf("Len=%d Pending=%d", h.Len(), h.Pending())
	}
}

func TestAdvanceExpiry(t *testing.T) {
	h := mustCounted(t, 100)
	h.Cross(1, 10) // expires at 110
	h.Cross(1, 50) // expires at 150
	var zeroed []motion.PathID
	onZero := func(id motion.PathID) { zeroed = append(zeroed, id) }

	var reported int
	h.Window.Advance(109, func(motion.PathID) { reported++ })
	if reported != 0 || h.Hotness(1) != 2 {
		t.Error("nothing should expire before 110")
	}
	h.Advance(110, onZero)
	if h.Hotness(1) != 1 {
		t.Errorf("first crossing should expire at exactly te+W; hotness=%d", h.Hotness(1))
	}
	if len(zeroed) != 0 {
		t.Error("path still hot, no onZero expected")
	}
	h.Advance(150, onZero)
	if h.Hotness(1) != 0 || h.Len() != 0 {
		t.Error("path should be fully expired")
	}
	if len(zeroed) != 1 || zeroed[0] != 1 {
		t.Errorf("onZero = %v", zeroed)
	}
	// Every crossing is reported, once: a path crossed twice in one instant
	// comes back twice.
	var got []motion.PathID
	h.Window.Cross(2, 200)
	h.Window.Cross(2, 200)
	h.Window.Cross(3, 250)
	h.Window.Advance(400, func(id motion.PathID) { got = append(got, id) })
	if len(got) != 3 || got[0] != 2 || got[1] != 2 || got[2] != 3 || h.Pending() != 0 {
		t.Errorf("expired %v, %d pending; want [2 2 3], 0 pending", got, h.Pending())
	}
}

func TestAdvanceOrderIndependentOfInsertion(t *testing.T) {
	h := mustCounted(t, 10)
	// Insert out of te order; the heap must expire in te order anyway.
	h.Cross(1, 50)
	h.Cross(2, 5)
	h.Cross(3, 30)
	var order []motion.PathID
	for _, now := range []trajectory.Time{15, 40, 60} {
		h.Advance(now, func(id motion.PathID) { order = append(order, id) })
	}
	want := []motion.PathID{2, 3, 1}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Errorf("expiry order = %v want %v", order, want)
	}
}

// Property: after any interleaving of crossings and advances, the counts
// equal a brute-force recount of the un-expired crossings.
func TestWindowMatchesBruteForce(t *testing.T) {
	const W = 50
	rng := rand.New(rand.NewSource(5))
	h := mustCounted(t, W)
	type crossing struct {
		id motion.PathID
		te trajectory.Time
	}
	var all []crossing
	now := trajectory.Time(0)
	for step := 0; step < 5000; step++ {
		if rng.Float64() < 0.7 {
			c := crossing{id: motion.PathID(rng.Intn(20)), te: now}
			all = append(all, c)
			h.Cross(c.id, c.te)
		} else {
			now += trajectory.Time(rng.Intn(10))
			h.Advance(now, nil)
		}
		if step%250 != 0 {
			continue
		}
		want := make(map[motion.PathID]int)
		for _, c := range all {
			if c.te+W > now { // not yet expired
				want[c.id]++
			}
		}
		for id := motion.PathID(0); id < 20; id++ {
			if h.Hotness(id) != want[id] {
				t.Fatalf("step %d now %d: hotness(%d) = %d want %d",
					step, now, id, h.Hotness(id), want[id])
			}
		}
		if h.Len() != len(want) {
			t.Fatalf("Len %d want %d", h.Len(), len(want))
		}
	}
}

// After a mass expiry the event queue's backing array must shrink: Pop
// used to re-slice only, pinning the high-water allocation for the life
// of the window.
func TestEventQueueShrinksAfterMassExpiry(t *testing.T) {
	h := mustCounted(t, 10)
	const n = 1 << 14
	for i := 0; i < n; i++ {
		h.Cross(motion.PathID(i), trajectory.Time(i%100+1))
	}
	highWater := cap(h.queue)
	if highWater < n {
		t.Fatalf("sanity: queue capacity %d below %d events", highWater, n)
	}

	// Expire everything; the drain must hand the memory back instead of
	// keeping a 16k-event array behind an empty queue.
	h.Advance(1_000_000, nil)
	if h.Pending() != 0 || h.Len() != 0 {
		t.Fatalf("window not drained: %d pending, %d counts", h.Pending(), h.Len())
	}
	if c := cap(h.queue); c > highWater/8 {
		t.Errorf("event queue capacity %d did not shrink from high water %d", c, highWater)
	}

	// Shrinking must not corrupt the heap: a fresh burst still expires in
	// exact order.
	for i := 0; i < 100; i++ {
		h.Cross(motion.PathID(i), trajectory.Time(2_000_000+int64(i)))
	}
	h.Advance(2_000_000+50+10, nil)
	if got := h.Len(); got != 49 {
		t.Fatalf("after partial re-expiry: %d live paths, want 49", got)
	}
}

// A partial expiry must shrink too, without touching surviving events.
func TestEventQueueShrinkKeepsSurvivors(t *testing.T) {
	h := mustCounted(t, 5)
	const n = 4096
	for i := 0; i < n; i++ {
		h.Cross(motion.PathID(i), trajectory.Time(i+1))
	}
	before := cap(h.queue)
	// Expire all but the last 64 crossings (te+W <= n-64+5).
	h.Advance(trajectory.Time(n-64+5), nil)
	if got := h.Pending(); got != 64 {
		t.Fatalf("pending %d want 64", got)
	}
	if c := cap(h.queue); c >= before {
		t.Errorf("capacity %d did not drop from %d", c, before)
	}
	for i := n - 64; i < n; i++ {
		if h.Hotness(motion.PathID(i)) != 1 {
			t.Fatalf("survivor %d lost its count", i)
		}
	}
}

// heapQueue is the event queue as it was on container/heap, the reference
// for the typed heap's sift order.
type heapQueue []event

func (q heapQueue) Len() int           { return len(q) }
func (q heapQueue) Less(i, j int) bool { return q[i].expiry < q[j].expiry }
func (q heapQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *heapQueue) Push(x any)        { *q = append(*q, x.(event)) }
func (q *heapQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// Differential: over random Cross/Advance sequences — bursts of equal
// expiries included, which is where sift order shows — Dump returns the
// layout container/heap builds from the same pushes and pops.
func TestTypedHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 50; trial++ {
		w := trajectory.Time(1 + rng.Intn(30))
		h := mustWindow(t, w)
		var ref heapQueue
		now := trajectory.Time(0)
		for step := 0; step < 2000; step++ {
			if rng.Intn(3) > 0 {
				id := motion.PathID(rng.Intn(50))
				te := now + trajectory.Time(rng.Intn(4))
				h.Cross(id, te)
				heap.Push(&ref, event{expiry: te + w, id: id})
				continue
			}
			now += trajectory.Time(rng.Intn(6))
			for len(ref) > 0 && ref[0].expiry <= now {
				heap.Pop(&ref)
			}
			h.Advance(now, func(motion.PathID) {})
			dump := h.Dump()
			if len(dump) != len(ref) {
				t.Fatalf("trial %d step %d: Dump has %d events, reference %d", trial, step, len(dump), len(ref))
			}
			for i, e := range ref {
				if dump[i] != (Crossing{Expiry: e.expiry, ID: e.id}) {
					t.Fatalf("trial %d step %d: Dump()[%d] = %v, container/heap layout holds %v", trial, step, i, dump[i], e)
				}
			}
		}
	}
}
