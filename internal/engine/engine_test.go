package engine

import (
	"context"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"hotpaths/internal/coordinator"
	"hotpaths/internal/flightrec"
	"hotpaths/internal/geom"
	"hotpaths/internal/raytrace"
	"hotpaths/internal/trajectory"
)

func testCoordinator(t *testing.T) *coordinator.Coordinator {
	t.Helper()
	c, err := coordinator.New(coordinator.Config{
		Bounds: geom.Rect{Lo: geom.Pt(-5000, -5000), Hi: geom.Pt(5000, 5000)},
		W:      100,
		Eps:    5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// tick is the test shorthand for an untraced TickCtx.
// observe enqueues a batch the caller keeps as one slice.
func observe(e *Engine, batch []Observation) error {
	return e.ObserveBatchCtx(context.Background(), len(batch), func(i int) Observation { return batch[i] })
}

func tick(e *Engine, now trajectory.Time) error {
	_, err := e.TickCtx(context.Background(), now)
	return err
}

func testEngine(t *testing.T, shards int) *Engine {
	t.Helper()
	e, err := New(Config{
		Coord:  testCoordinator(t),
		Epoch:  10,
		Eps:    5,
		Shards: shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func TestNewValidation(t *testing.T) {
	coord := testCoordinator(t)
	bad := []Config{
		{Epoch: 10, Eps: 5},                        // no coordinator
		{Coord: coord, Eps: 5},                     // no epoch
		{Coord: coord, Epoch: -1, Eps: 5},          // negative epoch
		{Coord: coord, Epoch: 10},                  // no eps
		{Coord: coord, Epoch: 10, Eps: math.NaN()}, // NaN eps
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: config must be rejected", i)
		}
	}
	e, err := New(Config{Coord: coord, Epoch: 10, Eps: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Shards() <= 0 {
		t.Errorf("defaulted shard count = %d", e.Shards())
	}
}

func TestShardIndexStableAndInRange(t *testing.T) {
	e := testEngine(t, 8)
	for id := -100; id < 100; id++ {
		i := e.shardIndex(id)
		if i < 0 || i >= 8 {
			t.Fatalf("shardIndex(%d) = %d out of range", id, i)
		}
		if j := e.shardIndex(id); j != i {
			t.Fatalf("shardIndex(%d) unstable: %d then %d", id, i, j)
		}
	}
}

// The epoch-boundary barrier must drain every queued observation before
// Stats are read, making the counters exact.
func TestBarrierDrains(t *testing.T) {
	e := testEngine(t, 8)
	const n = 1000
	batch := make([]Observation, n)
	for i := range batch {
		batch[i] = Observation{ObjectID: i, X: float64(i), Y: 0, T: 1}
	}
	if err := observe(e, batch); err != nil {
		t.Fatal(err)
	}
	for now := trajectory.Time(1); now <= 10; now++ {
		if err := tick(e, now); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Stats().Observations; got != n {
		t.Errorf("Observations = %d after barrier, want %d", got, n)
	}
}

// The live-filter gauge reads one filter per object the shards hold once
// an epoch's barrier has drained them.
func TestFiltersGaugeCountsObjects(t *testing.T) {
	e := testEngine(t, 2)
	feed := []Observation{
		{ObjectID: 1, X: 0, Y: 0, T: 1},
		{ObjectID: 2, X: 5, Y: 0, T: 1},
		{ObjectID: 1, X: 1, Y: 0, T: 2},
		{ObjectID: 3, X: 9, Y: 9, T: 2},
	}
	if err := observe(e, feed); err != nil {
		t.Fatal(err)
	}
	if err := tick(e, 10); err != nil {
		t.Fatal(err)
	}
	if got := mFilters.Value(); got != 3 {
		t.Errorf("hotpaths_engine_filters = %d after the first epoch of 3 objects, want 3", got)
	}
}

// A refused observation is counted, not returned: the tick that finds it
// at the barrier succeeds and runs the epoch for everyone else, and the
// event that barrier records says how many it found.
func TestRefusalsAreCountedNotReturned(t *testing.T) {
	e := testEngine(t, 4)
	feed := []Observation{
		{ObjectID: 7, X: 0, Y: 0, T: 5},
		{ObjectID: 7, X: 1, Y: 1, T: 6},
		{ObjectID: 7, X: 2, Y: 2, T: 6}, // repeated timestamp
		{ObjectID: 7, X: 3, Y: 3, T: 4}, // out of order
	}
	before := mRefused.Value()
	if err := observe(e, feed); err != nil {
		t.Fatal(err)
	}
	if err := tick(e, 10); err != nil {
		t.Fatalf("a tick after refused observations: %v, want nil", err)
	}
	if got := mRefused.Value() - before; got != 2 {
		t.Errorf("refused counter moved by %d, want 2", got)
	}
	if got := e.Stats().Observations; got != len(feed) {
		t.Errorf("Observations = %d, want %d: a refused one still counts", got, len(feed))
	}
	if got := e.Stats().Epochs; got != 1 {
		t.Errorf("Epochs = %d after the tick, want 1", got)
	}
	evs := flightrec.Default.Snapshot(flightrec.EvEpochBarrier, time.Time{}, 1)
	if len(evs) != 1 || !slices.Contains(evs[0].Attrs, flightrec.KV("refused", 2)) {
		t.Errorf("the tick's epoch_barrier event %+v does not carry refused=2", evs)
	}
	if err := tick(e, 20); err != nil {
		t.Errorf("next epoch: %v", err)
	}
}

func TestTickMonotonic(t *testing.T) {
	e := testEngine(t, 2)
	if err := tick(e, 0); err == nil {
		t.Error("Tick(0) must error (clock starts at 0)")
	}
	if err := tick(e, 5); err != nil {
		t.Fatal(err)
	}
	if err := tick(e, 5); err == nil {
		t.Error("repeated Tick must error")
	}
	if err := tick(e, 3); err == nil {
		t.Error("backwards Tick must error")
	}
}

func TestCloseSemantics(t *testing.T) {
	e := testEngine(t, 4)
	if err := observe(e, []Observation{{ObjectID: 1, X: 0, Y: 0, T: 1}}); err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close() // a no-op
	if err := observe(e, []Observation{{ObjectID: 1, X: 1, Y: 1, T: 2}}); err != ErrClosed {
		t.Errorf("observe after Close = %v, want ErrClosed", err)
	}
	if err := tick(e, 10); err != ErrClosed {
		t.Errorf("Tick after Close = %v, want ErrClosed", err)
	}
	// Queries remain valid.
	if got := e.Stats().Observations; got != 1 {
		t.Errorf("Stats after Close: Observations = %d, want 1", got)
	}
	if snap, now, _ := e.Snapshot(); snap.Len() != 0 || now != 0 {
		t.Errorf("Snapshot after Close: %d paths at clock %d, want an empty view at 0", snap.Len(), now)
	}
}

// sortByObject moves whole entries: after it, ids ascend and every entry
// still carries the payload it had beside its id, for shuffles that mix
// fixed points, two-cycles and long cycles.
func TestSortByObjectMovesWholeEntries(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 17, 500} {
		for seed := range 4 {
			fs := make([]raytrace.FilterEntry, n)
			for i := range fs {
				id := 3*i - n // negative ids too
				fs[i] = raytrace.FilterEntry{ObjectID: id, SigmaX: float64(id), Filter: raytrace.FilterState{LastT: trajectory.Time(id)}}
			}
			rng := rand.New(rand.NewPCG(uint64(n), uint64(seed)))
			if seed > 0 {
				rng.Shuffle(n, func(i, j int) { fs[i], fs[j] = fs[j], fs[i] })
			}
			sortByObject(fs)
			for i, fe := range fs {
				if fe.ObjectID != 3*i-n || fe.SigmaX != float64(fe.ObjectID) || fe.Filter.LastT != trajectory.Time(fe.ObjectID) {
					t.Fatalf("n=%d seed=%d: entry %d is %+v", n, seed, i, fe)
				}
			}
		}
	}
}
