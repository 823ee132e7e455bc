package hotpaths

import (
	"context"
	"reflect"
	"sync"
	"testing"
)

func engineTestConfig() Config {
	return Config{
		Eps:    5,
		W:      60,
		Epoch:  10,
		K:      10,
		Bounds: Rect{Min: Pt(-3000, -3000), Max: Pt(4000, 4000)},
	}
}

// The sharded Engine must be indistinguishable from the single-threaded
// System on the same workload: identical top-k (ids, geometry, hotness),
// identical score, identical counters.
func TestEngineMatchesSystem(t *testing.T) {
	cfg := engineTestConfig()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(EngineConfig{Config: cfg, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	const horizon = 120 // multiple of Epoch, so final counters are exact
	for _, batch := range IngestWorkload(48, horizon, 42) {
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
		if err := eng.Tick(now); err != nil {
			t.Fatal(err)
		}
	}

	sysStats, engStats := sys.Stats(), eng.Stats()
	if sysStats.Reports == 0 || sysStats.Crossings == 0 {
		t.Fatalf("workload too tame to be meaningful: %+v", sysStats)
	}
	if !reflect.DeepEqual(sysStats, engStats) {
		t.Errorf("stats diverge:\n system %+v\n engine %+v", sysStats, engStats)
	}
	sysTop, engTop := sys.TopK(), eng.TopK()
	if !reflect.DeepEqual(sysTop, engTop) {
		t.Errorf("top-k diverges:\n system %+v\n engine %+v", sysTop, engTop)
	}
	if sys.Score() != eng.Score() {
		t.Errorf("score diverges: system %v engine %v", sys.Score(), eng.Score())
	}
	if la, lb := len(sys.HotPaths()), len(eng.HotPaths()); la != lb {
		t.Errorf("live path counts diverge: system %d engine %d", la, lb)
	}

	// Close drains; queries keep answering from the last processed epoch.
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sys.TopK(), eng.TopK()) {
		t.Error("top-k changed across Close")
	}
}

// Many producers feeding disjoint object partitions concurrently, with
// queries racing the ingestion — the -race backstop for the Engine's
// locking discipline.
func TestEngineConcurrentIngest(t *testing.T) {
	const (
		producers = 4
		nObjects  = 64
		horizon   = 80
	)
	eng, err := NewEngine(EngineConfig{Config: engineTestConfig(), Shards: 4, Buffer: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	batches := IngestWorkload(nObjects, horizon, 7)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() { // concurrent reader hammering the query surface
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = eng.TopK()
				_ = eng.Stats()
				_ = eng.Score()
			}
		}
	}()

	for _, batch := range batches {
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			part := make([]Observation, 0, len(batch)/producers+1)
			for _, o := range batch {
				if o.ObjectID%producers == p {
					part = append(part, o)
				}
			}
			wg.Add(1)
			go func(part []Observation) {
				defer wg.Done()
				if err := eng.ObserveBatchCtx(context.Background(), part); err != nil {
					t.Error(err)
				}
			}(part)
		}
		wg.Wait()
		if err := eng.Tick(batch[0].T); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	readers.Wait()

	st := eng.Stats()
	if want := nObjects * horizon; st.Observations != want {
		t.Errorf("Observations = %d, want %d", st.Observations, want)
	}
	if st.Reports == 0 {
		t.Error("concurrent workload raised no reports")
	}
	if len(eng.TopK()) == 0 {
		t.Error("no hot paths discovered")
	}
}

// A sparse, client-driven clock that jumps over epoch boundaries must
// still trigger epoch processing — and System and Engine must agree on
// the sparse schedule too.
func TestSparseTicksCrossEpochBoundaries(t *testing.T) {
	cfg := engineTestConfig() // Epoch: 10
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(EngineConfig{Config: cfg, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// No tick ever lands on a multiple of 10.
	ticks := map[int64]int64{13: 0, 27: 0, 41: 0, 55: 0, 69: 0, 83: 0, 97: 0, 111: 0}
	for _, batch := range IngestWorkload(48, 120, 42) {
		for _, o := range batch {
			if err := sys.Observe(o.ObjectID, o.X, o.Y, o.T); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.ObserveBatchCtx(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
		now := batch[0].T
		if _, ok := ticks[now]; !ok {
			continue
		}
		if err := sys.Tick(now); err != nil {
			t.Fatal(err)
		}
		if err := eng.Tick(now); err != nil {
			t.Fatal(err)
		}
	}
	// Final sparse tick past the last batch (121 crosses the boundary at
	// 120) so the engine drains and the counters are exact.
	if err := sys.Tick(121); err != nil {
		t.Fatal(err)
	}
	if err := eng.Tick(121); err != nil {
		t.Fatal(err)
	}
	sysStats, engStats := sys.Stats(), eng.Stats()
	if sysStats.Responses == 0 {
		t.Fatal("sparse ticks must still process epochs")
	}
	if !reflect.DeepEqual(sysStats, engStats) {
		t.Errorf("stats diverge on sparse schedule:\n system %+v\n engine %+v", sysStats, engStats)
	}
	if !reflect.DeepEqual(sys.TopK(), eng.TopK()) {
		t.Error("top-k diverges on sparse schedule")
	}
}

// A clock jump far past the staged reports' exit timestamps must not
// surface phantom hot paths: the crossings recorded by the late epoch are
// already outside the window and expire within the same Tick.
func TestStaleJumpExpiresImmediately(t *testing.T) {
	cfg := engineTestConfig()
	cfg.W = 20
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(EngineConfig{Config: cfg, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// A sharp turn forces reports by t=8; then the clock stalls until 500.
	for now := int64(1); now <= 8; now++ {
		x := float64(now) * 6
		y := 0.0
		if now > 4 {
			y = 40
		}
		if err := sys.Observe(1, x, y, now); err != nil {
			t.Fatal(err)
		}
		if err := eng.Observe(1, x, y, now); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Tick(500); err != nil {
		t.Fatal(err)
	}
	if err := eng.Tick(500); err != nil {
		t.Fatal(err)
	}
	if sys.Stats().Crossings == 0 {
		t.Fatal("the late epoch must still have processed the reports")
	}
	for name, top := range map[string][]HotPath{"system": sys.TopK(), "engine": eng.TopK()} {
		if len(top) != 0 {
			t.Errorf("%s reports phantom hot paths after a >W clock jump: %+v", name, top)
		}
	}
	if got := sys.Stats().IndexSize; got != 0 {
		t.Errorf("system index size = %d after stale-jump epoch", got)
	}
	if got := eng.Stats().IndexSize; got != 0 {
		t.Errorf("engine index size = %d after stale-jump epoch", got)
	}
}

func TestEngineValidation(t *testing.T) {
	bad := engineTestConfig()
	bad.Eps = 0
	if _, err := NewEngine(EngineConfig{Config: bad}); err == nil {
		t.Error("invalid config must be rejected")
	}

	eng, err := NewEngine(EngineConfig{Config: engineTestConfig(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if eng.Shards() != 2 {
		t.Errorf("Shards() = %d, want 2", eng.Shards())
	}
	if err := eng.ObserveNoisy(1, 0, 0, 1, 1, 1); err == nil {
		t.Error("ObserveNoisy without Delta must error")
	}
	if err := eng.ObserveBatchCtx(context.Background(), []Observation{{ObjectID: 1, X: 0, Y: 0, T: 1, SigmaX: 1}}); err == nil {
		t.Error("noisy batched observation without Delta must error")
	}

	noisy := engineTestConfig()
	noisy.Delta = 0.05
	eng2, err := NewEngine(EngineConfig{Config: noisy, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	if err := eng2.ObserveNoisy(1, 0, 0, 0, 1, 1); err == nil {
		t.Error("non-positive sigma must error")
	}
	if err := eng2.ObserveBatchCtx(context.Background(), []Observation{{ObjectID: 1, T: 1, SigmaX: 0.5, SigmaY: -1}}); err == nil {
		t.Error("mixed-sign sigmas must error")
	}
	if err := eng2.ObserveNoisy(1, 0, 0, 0.5, 0.5, 1); err != nil {
		t.Errorf("valid noisy observation rejected: %v", err)
	}
}
