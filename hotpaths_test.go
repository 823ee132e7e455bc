package hotpaths

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"testing"
)

func testConfig() Config {
	return Config{
		Eps:    5,
		W:      100,
		Epoch:  10,
		K:      10,
		Bounds: Rect{Min: Pt(-1000, -1000), Max: Pt(1000, 1000)},
	}
}

func TestNewValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Eps = 0 },
		func(c *Config) { c.Delta = 1 },
		func(c *Config) { c.Delta = -0.1 },
		func(c *Config) { c.W = 0 },
		func(c *Config) { c.Epoch = 0 },
		func(c *Config) { c.Bounds = Rect{} },
	}
	for i, mutate := range bad {
		cfg := testConfig()
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: config must be rejected", i)
		}
	}
	if _, err := New(testConfig()); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestExtremeCoordinatesRefused: a coordinate may be finite and still
// wreck the index. Between ±1e308 a path's length and its end cell's
// centroid overflow to ±Inf, which no read can encode, so ingest refuses
// any magnitude above 2^53, and Config refuses an Eps above it (or a
// non-finite one) as a *ConfigError.
func TestExtremeCoordinatesRefused(t *testing.T) {
	for _, eps := range []float64{math.NaN(), math.Inf(1), 1e300} {
		cfg := testConfig()
		cfg.Eps = eps
		var ce *ConfigError
		if _, err := New(cfg); !errors.As(err, &ce) || ce.Field != "Eps" {
			t.Errorf("New(Eps: %v) = %v, want a *ConfigError on Eps", eps, err)
		}
	}

	sys, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	edge := float64(1 << 53)
	if err := sys.Observe(7, edge, -edge, 1); err != nil {
		t.Fatalf("coordinates at the bound refused: %v", err)
	}
	// One client alternates ±1e308 while two objects share a route.
	for now := int64(1); now <= 12; now++ {
		huge := 1e308
		if now%2 == 0 {
			huge = -huge
		}
		if err := sys.Observe(999, huge, huge, now); err == nil {
			t.Fatalf("t=%d: Observe accepted (%v, %v)", now, huge, huge)
		}
		batch := []Observation{
			{ObjectID: 1, X: float64(now) * 8, Y: 0, T: now},
			{ObjectID: 2, X: float64(now) * 8, Y: 0.5, T: now},
			{ObjectID: 999, X: math.Nextafter(edge, math.Inf(1)), Y: 0, T: now},
		}
		if err := sys.ObserveBatchCtx(context.Background(), batch); err == nil {
			t.Fatalf("t=%d: a batch with a coordinate beyond 2^53 was accepted", now)
		}
		if err := sys.ObserveBatchCtx(context.Background(), batch[:2]); err != nil {
			t.Fatal(err)
		}
		if err := sys.Tick(now); err != nil {
			t.Fatal(err)
		}
	}
	for _, hp := range sys.HotPaths() {
		for _, v := range []float64{hp.Start.X, hp.Start.Y, hp.End.X, hp.End.Y, hp.Score()} {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				t.Fatalf("stored path %+v is not finite", hp)
			}
		}
	}
	if _, err := json.Marshal(sys.HotPaths()); err != nil {
		t.Fatalf("paths do not encode: %v", err)
	}
}

func TestHotPathScore(t *testing.T) {
	hp := HotPath{Start: Pt(0, 0), End: Pt(3, 4), Hotness: 2}
	if hp.Length() != 5 || hp.Score() != 10 {
		t.Errorf("Length=%v Score=%v", hp.Length(), hp.Score())
	}
}

// Two objects follow the same L-shaped route with a small offset; the
// system must discover shared hot paths.
func TestSharedRouteBecomesHot(t *testing.T) {
	sys, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// A route with two sharp corners: the first corner forces both filters
	// to report and re-seeds them at a shared vertex; at the second corner
	// they report from that shared start, concentrating hotness on one path.
	pos := func(step int, offset float64) (float64, float64) {
		switch {
		case step < 30:
			return float64(step) * 8, offset // east leg
		case step < 60:
			return 240, offset + float64(step-30)*8 // north leg
		default:
			return 240 + float64(step-60)*8, offset + 240 // east again
		}
	}
	for now := int64(1); now <= 100; now++ {
		step := int(now - 1)
		x0, y0 := pos(step, 0)
		if err := sys.Observe(1, x0, y0, now); err != nil {
			t.Fatal(err)
		}
		// The offset must stay well below ε: at a corner the final safe
		// area degenerates to a thin sliver around the turn, and two
		// objects share vertices only if their slivers intersect.
		x1, y1 := pos(step, 0.5)
		if err := sys.Observe(2, x1, y1, now); err != nil {
			t.Fatal(err)
		}
		if err := sys.Tick(now); err != nil {
			t.Fatal(err)
		}
	}
	st := sys.Stats()
	if st.Observations != 200 {
		t.Errorf("observations = %d", st.Observations)
	}
	if st.Reports == 0 {
		t.Fatal("the corner must force at least one report")
	}
	top := sys.TopK()
	if len(top) == 0 {
		t.Fatal("no hot paths discovered")
	}
	found := false
	for _, hp := range top {
		if hp.Hotness >= 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("two objects on the same route should share a path: %+v", top)
	}
	if sys.Score() <= 0 {
		t.Error("score must be positive")
	}
	if len(sys.HotPaths()) < len(top) {
		t.Error("HotPaths must include at least the top-k")
	}
}

func TestObserveTimestampValidation(t *testing.T) {
	sys, _ := New(testConfig())
	sys.Observe(1, 0, 0, 5)
	if err := sys.Observe(1, 1, 1, 5); err == nil {
		t.Error("repeated timestamp must error")
	}
	if err := sys.Observe(1, 1, 1, 4); err == nil {
		t.Error("decreasing timestamp must error")
	}
}

func TestTickValidation(t *testing.T) {
	sys, _ := New(testConfig())
	if err := sys.Tick(1); err != nil {
		t.Fatal(err)
	}
	if err := sys.Tick(1); err == nil {
		t.Error("repeated Tick must error")
	}
	if err := sys.Tick(0); err == nil {
		t.Error("backwards Tick must error")
	}
}

func TestObserveNoisyRequiresDelta(t *testing.T) {
	sys, _ := New(testConfig())
	if err := sys.ObserveNoisy(1, 0, 0, 1, 1, 1); err == nil {
		t.Error("ObserveNoisy without Delta must error")
	}
	cfg := testConfig()
	cfg.Delta = 0.05
	sys2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys2.ObserveNoisy(1, 0, 0, 0, 1, 1); err == nil {
		t.Error("non-positive sigma must error")
	}
	if err := sys2.ObserveNoisy(1, 0, 0, 0.5, 0.5, 1); err != nil {
		t.Errorf("valid noisy observation rejected: %v", err)
	}
}

// The (ε,δ) mode must behave like a slightly tightened ε mode: a straight
// mover with mild noise still produces few reports.
func TestUncertaintyModeEndToEnd(t *testing.T) {
	cfg := testConfig()
	cfg.Eps = 10
	cfg.Delta = 0.05
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for now := int64(1); now <= 100; now++ {
		x := float64(now)*7 + rng.NormFloat64()*0.5
		y := rng.NormFloat64() * 0.5
		if err := sys.ObserveNoisy(1, x, y, 0.5, 0.5, now); err != nil {
			t.Fatal(err)
		}
		if err := sys.Tick(now); err != nil {
			t.Fatal(err)
		}
	}
	st := sys.Stats()
	if st.Reports > 20 {
		t.Errorf("straight noisy mover raised %d reports; tolerance looks broken", st.Reports)
	}
}

// Hotness expires: a burst of activity followed by silence empties the
// index after W timestamps.
func TestWindowExpiry(t *testing.T) {
	cfg := testConfig()
	cfg.W = 50
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Zig-zag for 40 ts to force reports and path creation.
	for now := int64(1); now <= 40; now++ {
		x := float64(now) * 6
		y := 0.0
		if (now/5)%2 == 0 {
			y = 40
		}
		if err := sys.Observe(1, x, y, now); err != nil {
			t.Fatal(err)
		}
		if err := sys.Tick(now); err != nil {
			t.Fatal(err)
		}
	}
	if sys.Stats().IndexSize == 0 {
		t.Fatal("zig-zag produced no paths")
	}
	// Silence until every crossing has expired.
	for now := int64(41); now <= 200; now++ {
		if err := sys.Tick(now); err != nil {
			t.Fatal(err)
		}
	}
	if got := sys.Stats().IndexSize; got != 0 {
		t.Errorf("index size = %d after expiry window", got)
	}
	if len(sys.TopK()) != 0 {
		t.Error("TopK must be empty after expiry")
	}
}

// Reported paths approximate the true movement: every hot path endpoint
// pair must be near some observed position of some object.
func TestPathsStayNearObservations(t *testing.T) {
	sys, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var observed []Point
	rng := rand.New(rand.NewSource(9))
	x, y := 0.0, 0.0
	dx, dy := 6.0, 0.0
	for now := int64(1); now <= 200; now++ {
		if rng.Float64() < 0.1 {
			dx, dy = rng.Float64()*12-6, rng.Float64()*12-6
		}
		x += dx
		y += dy
		observed = append(observed, Pt(x, y))
		if err := sys.Observe(1, x, y, now); err != nil {
			t.Fatal(err)
		}
		if err := sys.Tick(now); err != nil {
			t.Fatal(err)
		}
	}
	for _, hp := range sys.HotPaths() {
		for _, end := range []Point{hp.Start, hp.End} {
			best := math.Inf(1)
			for _, o := range observed {
				d := math.Max(math.Abs(o.X-end.X), math.Abs(o.Y-end.Y))
				if d < best {
					best = d
				}
			}
			// Endpoints are chosen inside FSAs, which live within ε of
			// observations.
			if best > 5+1e-9 {
				t.Errorf("endpoint %v at distance %v from every observation", end, best)
			}
		}
	}
}
