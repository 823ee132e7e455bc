package engine

import (
	"context"
	"errors"
	"testing"

	"hotpaths/internal/coordinator"
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

func fixedTol(_, _ float64) raytrace.ToleranceFunc { return raytrace.FixedTolerance(5) }

// tick is the test shorthand for an untraced TickCtx.
func tick(e *Engine, now trajectory.Time) error {
	_, err := e.TickCtx(context.Background(), now)
	return err
}

func testEngine(t *testing.T, shards int) *Engine {
	t.Helper()
	e, err := New(Config{
		Coord:     testCoordinator(t),
		Epoch:     10,
		Tolerance: fixedTol,
		Shards:    shards,
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
		{Epoch: 10, Tolerance: fixedTol},               // no coordinator
		{Coord: coord, Tolerance: fixedTol},            // no epoch
		{Coord: coord, Epoch: -1, Tolerance: fixedTol}, // negative epoch
		{Coord: coord, Epoch: 10},                      // no tolerance factory
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: config must be rejected", i)
		}
	}
	e, err := New(Config{Coord: coord, Epoch: 10, Tolerance: fixedTol})
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
		batch[i] = Observation{ObjectID: i, P: geom.Pt(float64(i), 0), T: 1}
	}
	if err := e.ObserveBatchCtx(context.Background(), batch); err != nil {
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

// A per-observation processing error must surface from the next
// epoch-boundary Tick, naming the object — without suppressing the epoch
// for everyone else.
func TestProcessingErrorSurfaces(t *testing.T) {
	e := testEngine(t, 4)
	feed := []Observation{
		{ObjectID: 7, P: geom.Pt(0, 0), T: 5},
		{ObjectID: 7, P: geom.Pt(1, 1), T: 6},
		{ObjectID: 7, P: geom.Pt(2, 2), T: 6}, // repeated timestamp
	}
	if err := e.ObserveBatchCtx(context.Background(), feed); err != nil {
		t.Fatal(err)
	}
	err := tick(e, 10)
	if err == nil {
		t.Fatal("Tick must surface the shard processing error")
	}
	// Typed classification (errstring contract): the object is carried
	// on *raytrace.ObjectError, not fished out of the rendered message.
	var objErr *raytrace.ObjectError
	if !errors.As(err, &objErr) || objErr.ObjectID != 7 {
		t.Errorf("error %q does not carry *ObjectError for object 7", err)
	}
	// The epoch itself still ran: one bad client must not stall hot-path
	// discovery for well-behaved objects.
	if got := e.Stats().Coordinator.Epochs; got != 1 {
		t.Errorf("Epochs = %d after erroring Tick, want 1", got)
	}
	// The error is consumed; the engine keeps working.
	if err := tick(e, 20); err != nil {
		t.Errorf("engine did not recover: %v", err)
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
	if err := e.ObserveBatchCtx(context.Background(), []Observation{{ObjectID: 1, P: geom.Pt(0, 0), T: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Errorf("double Close must be a no-op, got %v", err)
	}
	if err := e.ObserveBatchCtx(context.Background(), []Observation{{ObjectID: 1, P: geom.Pt(1, 1), T: 2}}); err != ErrClosed {
		t.Errorf("ObserveBatchCtx after Close = %v, want ErrClosed", err)
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
