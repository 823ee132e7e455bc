package engine

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"hotpaths/internal/coordinator"
	"hotpaths/internal/geom"
	"hotpaths/internal/trajectory"
)

// zigZag is timestamp t of a corridor that turns every 5 timestamps, for
// objects 0..n-1 a hair apart: RayTrace reports at the turns and the
// objects share paths, so a few epochs build a non-empty path store.
func zigZag(t trajectory.Time, n int) []Observation {
	y := 0.0
	if (t/5)%2 == 0 {
		y = 40
	}
	batch := make([]Observation, n)
	for i := range batch {
		batch[i] = Observation{ObjectID: i, P: geom.Pt(float64(t)*6, y+float64(i)/2), T: t}
	}
	return batch
}

// feedZigZag observes and ticks timestamps from..to.
func feedZigZag(t *testing.T, e *Engine, from, to trajectory.Time, n int) {
	t.Helper()
	for now := from; now <= to; now++ {
		if err := e.ObserveBatchCtx(context.Background(), zigZag(now, n)); err != nil {
			t.Fatal(err)
		}
		if err := tick(e, now); err != nil {
			t.Fatal(err)
		}
	}
}

// The coordinator changes only in Tick and RestoreState, so Snapshot hands
// every caller between two of those the same copy; observations alone keep
// it, while the clock and counters are read fresh.
func TestSnapshotSharedUntilTick(t *testing.T) {
	e := testEngine(t, 2)
	feedZigZag(t, e, 1, 40, 3)

	s1, now1, _ := e.Snapshot()
	s2, now2, st2 := e.Snapshot()
	if s1.Len() == 0 {
		t.Fatal("no paths after the zig-zag")
	}
	if s1 != s2 || now1 != now2 {
		t.Fatalf("two reads with no tick between: %p at %d, %p at %d; want one shared copy", s1, now1, s2, now2)
	}

	if err := e.ObserveBatchCtx(context.Background(), zigZag(41, 3)); err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	s3, _, st3 := e.Snapshot()
	if s3 != s1 {
		t.Error("an observation without a tick replaced the snapshot")
	}
	if st3.Observations != st2.Observations+3 {
		t.Errorf("Observations = %d after observing 3 more, want %d: counters must be read fresh", st3.Observations, st2.Observations+3)
	}

	ckpt, err := e.DumpState()
	if err != nil {
		t.Fatal(err)
	}
	if s, _, _ := e.Snapshot(); s != s1 {
		t.Error("DumpState replaced the snapshot; it changes no path")
	}

	prev := s1
	fresh := func(what string) *coordinator.Snapshot {
		t.Helper()
		s, _, st := e.Snapshot()
		if s == prev {
			t.Errorf("%s kept the previous snapshot", what)
		}
		if again, _, _ := e.Snapshot(); again != s {
			t.Errorf("after %s, two reads disagree on the snapshot", what)
		}
		if s.Epoch != st.Coordinator.Epochs || s.Len() != st.IndexSize {
			t.Errorf("after %s: snapshot epoch %d with %d paths, engine has epoch %d with %d", what, s.Epoch, s.Len(), st.Coordinator.Epochs, st.IndexSize)
		}
		prev = s
		return s
	}

	if err := tick(e, 41); err != nil {
		t.Fatal(err)
	}
	if s := fresh("a non-epoch tick"); s.Epoch != s1.Epoch {
		t.Errorf("a non-epoch tick moved the epoch %d -> %d", s1.Epoch, s.Epoch)
	}
	if err := tick(e, 50); err != nil {
		t.Fatal(err)
	}
	if s := fresh("an epoch tick"); s.Epoch != s1.Epoch+1 {
		t.Errorf("epoch tick: epoch %d, want %d", s.Epoch, s1.Epoch+1)
	}

	if err := e.RestoreState(ckpt); err != nil {
		t.Fatal(err)
	}
	if s := fresh("RestoreState"); s.Epoch != s1.Epoch || s.Len() != s1.Len() {
		t.Errorf("restored snapshot: epoch %d with %d paths, want the checkpoint's %d with %d", s.Epoch, s.Len(), s1.Epoch, s1.Len())
	}

	// A restore that fails after the coordinator was already replaced
	// (the duplicated filter is checked last) must not leave the old
	// view behind.
	bad := ckpt
	bad.Filters = append(append([]FilterEntry(nil), ckpt.Filters...), ckpt.Filters[0])
	if err := e.RestoreState(bad); err == nil {
		t.Fatal("restoring a duplicated filter must fail")
	}
	fresh("a failed RestoreState")
}

// Each pending report is answered at the next epoch by its object's
// filter, so a state whose pending report names no filter, one that is
// not waiting, or one waiting on another report must be refused:
// restored, its next epoch would hand a response to nobody, or one the
// filter cannot take. A follower decodes such a state off the wire.
func TestRestoreRefusesOrphanPending(t *testing.T) {
	src := testEngine(t, 2)
	feedZigZag(t, src, 1, 40, 3)
	ckpt, err := src.DumpState()
	if err != nil {
		t.Fatal(err)
	}
	if len(ckpt.Pending) == 0 {
		t.Fatal("the zig-zag left no pending report at clock 40")
	}
	// Object 3 is seen first at 41 and not again, so its filter is seeded
	// and idle.
	if err := src.ObserveBatchCtx(context.Background(), []Observation{{ObjectID: 3, P: geom.Pt(0, 0), T: 41}}); err != nil {
		t.Fatal(err)
	}
	withIdle, err := src.DumpState()
	if err != nil {
		t.Fatal(err)
	}

	orphan := ckpt.Pending[0]
	orphan.ObjectID = 999
	idle := ckpt.Pending[0]
	idle.ObjectID = 3
	moved := slices.Clone(ckpt.Pending)
	moved[0].State.FSA.Lo.X--
	for _, tc := range []struct {
		name    string
		st      State
		pending []coordinator.Report
	}{
		{"no filter", ckpt, append(slices.Clone(ckpt.Pending), orphan)},
		{"idle filter", withIdle, append(slices.Clone(withIdle.Pending), idle)},
		{"another report", ckpt, moved},
	} {
		bad := tc.st
		bad.Pending = tc.pending
		e := testEngine(t, 2)
		if err := e.RestoreState(bad); err == nil {
			t.Errorf("%s: a pending report its filter does not await was restored", tc.name)
			_ = tick(e, 50) // the epoch that answers it
		}
	}

	// The dumped states themselves restore and run on.
	for _, st := range []State{ckpt, withIdle} {
		e := testEngine(t, 2)
		if err := e.RestoreState(st); err != nil {
			t.Fatal(err)
		}
		if err := tick(e, 50); err != nil {
			t.Fatal(err)
		}
	}
}

// pathDigest is an order-free digest of a snapshot's paths and hotness.
func pathDigest(s *coordinator.Snapshot) uint64 {
	var d uint64
	for _, hp := range s.Unordered() {
		d += (uint64(hp.Path.ID)*0x9e3779b97f4a7c15 + 1) * uint64(hp.Hotness+1)
	}
	return d + uint64(s.Len())<<48
}

// Readers share the kept snapshot — and fill its ordering memos — while a
// writer observes and ticks. Every snapshot a reader gets must be the
// coordinator's state at the clock it was read with: the digest the
// writer took straight from the coordinator at that tick, the epoch count
// of that tick, and the engine counters read beside it.
func TestSnapshotSharedUntilTickRace(t *testing.T) {
	e := testEngine(t, 2)
	const last = 120
	ref := make(map[trajectory.Time]uint64)
	var done atomic.Bool
	var read atomic.Int64 // the latest clock a reader has checked
	var wg sync.WaitGroup
	seen := make([]map[trajectory.Time]uint64, 4)
	for r := range seen {
		seen[r] = make(map[trajectory.Time]uint64)
		wg.Add(1)
		go func(seen map[trajectory.Time]uint64) {
			defer wg.Done()
			for !done.Load() {
				s, now, st := e.Snapshot()
				s.Hottest(5, 0)
				s.Region(geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(400, 50)})
				if s.Epoch != st.Coordinator.Epochs || s.Epoch != int(now/10) || s.Len() != st.IndexSize {
					t.Errorf("clock %d: snapshot epoch %d with %d paths, engine epoch %d with %d", now, s.Epoch, s.Len(), st.Coordinator.Epochs, st.IndexSize)
					return
				}
				d := pathDigest(s)
				if old, ok := seen[now]; ok && old != d {
					t.Errorf("clock %d: two different snapshots", now)
					return
				}
				seen[now] = d
				read.Store(int64(now))
			}
		}(seen[r])
	}
	stop := func() { done.Store(true); wg.Wait() }
	defer stop() // also on a writer failure, so no reader outlives the test
	for now := trajectory.Time(1); now <= last; now++ {
		if err := e.ObserveBatchCtx(context.Background(), zigZag(now, 3)); err != nil {
			t.Fatal(err)
		}
		if err := tick(e, now); err != nil {
			t.Fatal(err)
		}
		e.mu.RLock()
		ref[now] = pathDigest(e.coord.Snapshot())
		e.mu.RUnlock()
		// Let a reader reach this tick's view before the next tick drops
		// it, so every view is checked even on one core.
		for read.Load() < int64(now) && !t.Failed() {
			runtime.Gosched()
		}
	}
	stop()
	for _, m := range seen {
		for now, d := range m {
			if now != 0 && d != ref[now] {
				t.Errorf("clock %d: a reader's snapshot differs from the coordinator's state at that tick", now)
			}
		}
	}
}
