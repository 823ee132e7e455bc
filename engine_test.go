package hotpaths

import (
	"context"
	"fmt"
	"math"
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
		if err := eng.TickCtx(context.Background(), now); err != nil {
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
	snap := eng.Snapshot()
	sysTop, engTop := sys.TopK(), snap.TopK()
	if !reflect.DeepEqual(sysTop, engTop) {
		t.Errorf("top-k diverges:\n system %+v\n engine %+v", sysTop, engTop)
	}
	if sys.Score() != snap.Score() {
		t.Errorf("score diverges: system %v engine %v", sys.Score(), snap.Score())
	}
	if la, lb := len(sys.HotPaths()), len(snap.HotPaths()); la != lb {
		t.Errorf("live path counts diverge: system %d engine %d", la, lb)
	}

	// Close drains; queries keep answering from the last processed epoch.
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sys.TopK(), eng.Snapshot().TopK()) {
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
				_ = eng.Snapshot().TopK()
				_ = eng.Stats()
				_ = eng.Snapshot().Score()
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
		if err := eng.TickCtx(context.Background(), batch[0].T); err != nil {
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
	if len(eng.Snapshot().TopK()) == 0 {
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
		if err := eng.TickCtx(context.Background(), now); err != nil {
			t.Fatal(err)
		}
	}
	// Final sparse tick past the last batch (121 crosses the boundary at
	// 120) so the engine drains and the counters are exact.
	if err := sys.Tick(121); err != nil {
		t.Fatal(err)
	}
	if err := eng.TickCtx(context.Background(), 121); err != nil {
		t.Fatal(err)
	}
	sysStats, engStats := sys.Stats(), eng.Stats()
	if sysStats.Responses == 0 {
		t.Fatal("sparse ticks must still process epochs")
	}
	if !reflect.DeepEqual(sysStats, engStats) {
		t.Errorf("stats diverge on sparse schedule:\n system %+v\n engine %+v", sysStats, engStats)
	}
	if !reflect.DeepEqual(sys.TopK(), eng.Snapshot().TopK()) {
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
		if err := eng.ObserveBatchCtx(context.Background(), []Observation{{ObjectID: 1, X: x, Y: y, T: now}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Tick(500); err != nil {
		t.Fatal(err)
	}
	if err := eng.TickCtx(context.Background(), 500); err != nil {
		t.Fatal(err)
	}
	if sys.Stats().Crossings == 0 {
		t.Fatal("the late epoch must still have processed the reports")
	}
	for name, top := range map[string][]HotPath{"system": sys.TopK(), "engine": eng.Snapshot().TopK()} {
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
}

// readWriter is a deployment that accepts writes: System, Engine or Durable.
type readWriter interface {
	Reader
	Writer
}

// writers opens the three Writers under cfg, each closed at test end.
func writers(t *testing.T, cfg Config) map[string]readWriter {
	t.Helper()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(EngineConfig{Config: cfg, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	dur, err := OpenDurable(t.TempDir(), DurableConfig{Config: cfg, FsyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dur.Close() })
	return map[string]readWriter{"system": sys, "engine": eng, "durable": dur}
}

// Every Writer validates the whole batch before it ingests any of it: a
// batch whose element 2 is bad ingests nothing — no filter, shard or
// journal state — and fails with the same error on System, Engine and
// Durable. The daemon's 400 body is this text.
func TestWriterBatchValidation(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name  string
		delta float64
		bad   Observation
		want  string
	}{
		{"non-finite", 0, Observation{ObjectID: 3, X: math.NaN(), T: 1},
			"hotpaths: observation 2: coordinates must be finite, got (NaN, 0)"},
		{"noisy without Delta", 0, Observation{ObjectID: 3, T: 1, SigmaX: 0.5, SigmaY: 0.5},
			"hotpaths: observation 2 carries noise but Config.Delta is 0"},
		{"mixed-sign sigmas", 0.05, Observation{ObjectID: 3, T: 1, SigmaX: 0.5, SigmaY: -1},
			"hotpaths: observation 2: standard deviations must be positive and finite, got (0.5, -1)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := engineTestConfig()
			cfg.Delta = tc.delta
			for name, w := range writers(t, cfg) {
				batch := []Observation{{ObjectID: 1, T: 1}, {ObjectID: 2, X: 5, T: 1}, tc.bad}
				if err := w.ObserveBatchCtx(ctx, batch); fmt.Sprint(err) != tc.want {
					t.Errorf("%s: got %v, want %q", name, err, tc.want)
				}
				// An epoch-boundary tick drains the Engine's shards, so the
				// counter below is exact on every deployment.
				if err := w.TickCtx(ctx, cfg.Epoch); err != nil {
					t.Fatal(err)
				}
				if n := w.Stats().Observations; n != 0 {
					t.Errorf("%s: a rejected batch ingested %d observations", name, n)
				}
				if dur, ok := w.(*Durable); ok && dur.NextLSN() != 1 {
					t.Errorf("durable: the rejected batch reached the journal: %d records, want only the tick", dur.NextLSN())
				}
				// The same batch without the bad element goes through.
				if err := w.ObserveBatchCtx(ctx, batch[:2]); err != nil {
					t.Errorf("%s: valid batch rejected: %v", name, err)
				}
			}
		})
	}
}
