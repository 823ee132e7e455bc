package hotpaths

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// feedBoth drives the same workload through a System and an Engine and
// returns both, ticked to the same instant.
func feedBoth(t *testing.T, cfg Config, nObjects int, horizon, seed int64) (*System, *Engine) {
	t.Helper()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(EngineConfig{Config: cfg, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	for _, batch := range IngestWorkload(nObjects, horizon, seed) {
		for _, o := range batch {
			if err := sys.Observe(o.ObjectID, o.X, o.Y, o.T); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.ObserveBatchCtx(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
		now := batch[0].T
		if err := sys.Tick(now); err != nil {
			t.Fatal(err)
		}
		if err := eng.TickCtx(context.Background(), now); err != nil {
			t.Fatal(err)
		}
	}
	return sys, eng
}

// Golden contract: Snapshot().Query() answers are bit-identical between
// the System and Engine deployments for every query shape, including the
// snapshot's clock, counters and GeoJSON serialisation. CI runs this
// under -race.
func TestSnapshotQueryGoldenSystemVsEngine(t *testing.T) {
	sys, eng := feedBoth(t, engineTestConfig(), 48, 120, 42)
	ss, es := sys.Snapshot(), eng.Snapshot()

	if ss.Clock() != es.Clock() {
		t.Errorf("clocks diverge: system %d engine %d", ss.Clock(), es.Clock())
	}
	if !reflect.DeepEqual(ss.Stats(), es.Stats()) {
		t.Errorf("stats diverge:\n system %+v\n engine %+v", ss.Stats(), es.Stats())
	}
	if ss.Len() == 0 {
		t.Fatal("workload produced no paths")
	}

	queries := []Query{
		{},
		Query{}.K(3),
		Query{}.MinHotness(2),
		Query{}.SortBy(ByScore),
		Query{}.SortBy(ByScore).K(5),
		Query{}.Region(Rect{Min: Pt(-500, -500), Max: Pt(500, 500)}),
		Query{}.Region(Rect{Min: Pt(-500, -500), Max: Pt(500, 500)}).MinHotness(2).SortBy(ByScore).K(4),
		Query{}.Region(Rect{Min: Pt(-500, -500), Max: Pt(500, 500)}).K(2),
		Query{}.MinHotness(1 << 30),
	}
	for i, q := range queries {
		a, b := ss.Query(q), es.Query(q)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("query %d diverges:\n system %+v\n engine %+v", i, a, b)
		}
	}

	var gs, ge bytes.Buffer
	if err := ss.WriteGeoJSON(&gs); err != nil {
		t.Fatal(err)
	}
	if err := es.WriteGeoJSON(&ge); err != nil {
		t.Fatal(err)
	}
	if gs.String() != ge.String() {
		t.Error("GeoJSON serialisations diverge between System and Engine snapshots")
	}
}

// Region queries must match a brute-force end-vertex filter over the full
// path set, on randomized workloads and randomized rectangles.
func TestRegionMatchesBruteForce(t *testing.T) {
	for _, seed := range []int64{1, 7, 99} {
		sys, err := New(engineTestConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range IngestWorkload(48, 100, seed) {
			for _, o := range batch {
				if err := sys.Observe(o.ObjectID, o.X, o.Y, o.T); err != nil {
					t.Fatal(err)
				}
			}
			if err := sys.Tick(batch[0].T); err != nil {
				t.Fatal(err)
			}
		}
		snap := sys.Snapshot()
		all := snap.HotPaths()
		if len(all) == 0 {
			t.Fatalf("seed %d produced no paths", seed)
		}
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 50; trial++ {
			lo := Pt(rng.Float64()*1200-600, rng.Float64()*1200-600)
			r := Rect{Min: lo, Max: Pt(lo.X+rng.Float64()*400, lo.Y+rng.Float64()*400)}
			var want []HotPath
			for _, hp := range all {
				if hp.End.X >= r.Min.X && hp.End.X <= r.Max.X &&
					hp.End.Y >= r.Min.Y && hp.End.Y <= r.Max.Y {
					want = append(want, hp)
				}
			}
			got := snap.Query(Query{}.Region(r))
			if len(want) == 0 {
				if len(got) != 0 {
					t.Fatalf("seed %d trial %d: got %d paths, want none", seed, trial, len(got))
				}
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d trial %d: region %v\n got %+v\n want %+v", seed, trial, r, got, want)
			}
		}
	}
}

// System's accessors must be exactly the documented thin wrappers, with
// the seed semantics: TopK is the K hottest in hotness-descending order,
// HotPaths is every live path, Score averages hotness×length over TopK.
func TestWrapperSeedSemantics(t *testing.T) {
	sys, _ := feedBoth(t, engineTestConfig(), 48, 120, 21)
	snap := sys.Snapshot()
	top, all, score, k := sys.TopK(), sys.HotPaths(), sys.Score(), sys.cfg.K
	if !reflect.DeepEqual(top, snap.TopK()) {
		t.Error("TopK() != Snapshot().TopK()")
	}
	if !reflect.DeepEqual(all, snap.HotPaths()) {
		t.Error("HotPaths() != Snapshot().HotPaths()")
	}
	if score != snap.Score() {
		t.Errorf("Score() %v != Snapshot().Score() %v", score, snap.Score())
	}
	if len(top) > k {
		t.Errorf("TopK returned %d > K=%d paths", len(top), k)
	}
	if !sort.SliceIsSorted(top, func(i, j int) bool { return top[i].Hotness > top[j].Hotness }) &&
		!sort.SliceIsSorted(top, func(i, j int) bool { return top[i].Hotness >= top[j].Hotness }) {
		t.Errorf("TopK not hotness-descending: %+v", top)
	}
	if len(all) < len(top) {
		t.Errorf("HotPaths (%d) smaller than TopK (%d)", len(all), len(top))
	}
	var sum float64
	for _, hp := range top {
		sum += hp.Score()
	}
	if want := sum / float64(len(top)); score != want {
		t.Errorf("Score %v, want avg top-k %v", score, want)
	}
}

// A snapshot is a frozen instant: ingestion that continues afterwards must
// not change its answers — and concurrent queries against one snapshot
// must be race-free while the engine keeps ingesting.
func TestSnapshotImmuneToLaterIngestion(t *testing.T) {
	cfg := engineTestConfig()
	eng, err := NewEngine(EngineConfig{Config: cfg, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	batches := IngestWorkload(48, 200, 5)
	for _, batch := range batches[:100] {
		if err := eng.ObserveBatchCtx(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
		if err := eng.TickCtx(context.Background(), batch[0].T); err != nil {
			t.Fatal(err)
		}
	}
	snap := eng.Snapshot()
	before := snap.Query(Query{}.SortBy(ByScore))
	beforeRegion := snap.Query(Query{}.Region(Rect{Min: Pt(-400, -400), Max: Pt(600, 600)}))
	if snap.Len() == 0 {
		t.Fatal("first half produced no paths")
	}

	// Hammer the snapshot from readers while the second half ingests.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				_ = snap.Query(Query{}.Region(Rect{Min: Pt(-400, -400), Max: Pt(600, 600)}))
				_ = snap.TopK()
			}
		}()
	}
	for _, batch := range batches[100:] {
		if err := eng.ObserveBatchCtx(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
		if err := eng.TickCtx(context.Background(), batch[0].T); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()

	if !reflect.DeepEqual(before, snap.Query(Query{}.SortBy(ByScore))) {
		t.Error("snapshot answer changed after later ingestion")
	}
	if !reflect.DeepEqual(beforeRegion, snap.Query(Query{}.Region(Rect{Min: Pt(-400, -400), Max: Pt(600, 600)}))) {
		t.Error("snapshot region answer changed after later ingestion")
	}
	if live := eng.Snapshot(); live.Stats().Observations == snap.Stats().Observations {
		t.Error("live engine did not advance past the snapshot")
	}
}

// MinHotness and K must compose with both sort orders.
func TestQueryComposition(t *testing.T) {
	sys, _ := feedBoth(t, engineTestConfig(), 48, 120, 13)
	snap := sys.Snapshot()
	all := snap.HotPaths()
	if len(all) < 3 {
		t.Fatalf("workload too tame: %d paths", len(all))
	}
	min := all[len(all)/2].Hotness + 1
	for _, hp := range snap.Query(Query{}.MinHotness(min)) {
		if hp.Hotness < min {
			t.Errorf("MinHotness(%d) returned hotness %d", min, hp.Hotness)
		}
	}
	got := snap.Query(Query{}.SortBy(ByScore).K(2))
	if len(got) > 2 {
		t.Errorf("K(2) returned %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Score() > got[i-1].Score() {
			t.Errorf("ByScore not descending: %v > %v", got[i].Score(), got[i-1].Score())
		}
	}
	// The zero Query is HotPaths.
	if !reflect.DeepEqual(snap.Query(Query{}), all) {
		t.Error("zero Query != HotPaths")
	}
	// A zero-value Snapshot answers emptily instead of panicking.
	var empty Snapshot
	if empty.Len() != 0 || empty.Query(Query{}) != nil || empty.Score() != 0 {
		t.Error("zero Snapshot must be empty")
	}
}

// Config.Bounds validation happens in the public constructor with a
// hotpaths-prefixed error, not deep inside the coordinator.
func TestBoundsValidation(t *testing.T) {
	for _, bad := range []Rect{
		{},                               // zero area
		{Min: Pt(10, 0), Max: Pt(0, 10)}, // max.X < min.X
		{Min: Pt(0, 10), Max: Pt(10, 0)}, // max.Y < min.Y
		{Min: Pt(0, 0), Max: Pt(100, 0)}, // degenerate strip
		{Min: Pt(5, 5), Max: Pt(5, 5)},   // degenerate point
	} {
		cfg := testConfig()
		cfg.Bounds = bad
		_, err := New(cfg)
		if err == nil {
			t.Errorf("bounds %+v must be rejected", bad)
			continue
		}
		// Typed classification (errstring contract): the rejected field
		// is carried on *ConfigError, not parsed out of the message.
		var cfgErr *ConfigError
		if !errors.As(err, &cfgErr) || cfgErr.Field != "Bounds" {
			t.Errorf("bounds %+v: error %q should be a *ConfigError for Bounds", bad, err)
		}
		if _, err := NewEngine(EngineConfig{Config: cfg}); err == nil {
			t.Errorf("engine with bounds %+v must be rejected", bad)
		}
	}
}
