package coordinator

import (
	"testing"

	"hotpaths/internal/geom"
	"hotpaths/internal/motion"
	"hotpaths/internal/raytrace"
	"hotpaths/internal/trajectory"
)

func testConfig() Config {
	return Config{
		Bounds: geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(1000, 1000)},
		Cols:   16,
		Rows:   16,
		W:      100,
		Eps:    10,
	}
}

func mustCoord(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func report(obj int, s geom.Point, fsa geom.Rect, ts, te trajectory.Time) Report {
	return Report{ObjectID: obj, State: raytrace.State{Start: s, Ts: ts, FSA: fsa, Te: te}}
}

func TestNewValidation(t *testing.T) {
	cfg := testConfig()
	cfg.Eps = 0
	if _, err := New(cfg); err == nil {
		t.Error("Eps=0 must error")
	}
	cfg = testConfig()
	cfg.W = 0
	if _, err := New(cfg); err == nil {
		t.Error("W=0 must error")
	}
	cfg = testConfig()
	cfg.Bounds = geom.Rect{Lo: geom.Pt(1, 1), Hi: geom.Pt(0, 0)}
	if _, err := New(cfg); err == nil {
		t.Error("bad bounds must error")
	}
	// Defaults fill in.
	cfg = testConfig()
	cfg.Cols, cfg.Rows = 0, 0
	if _, err := New(cfg); err != nil {
		t.Errorf("defaults should apply: %v", err)
	}
}

func TestProcessEpochValidation(t *testing.T) {
	c := mustCoord(t, testConfig())
	bad := report(1, geom.Pt(0, 0), geom.Rect{Lo: geom.Pt(1, 1), Hi: geom.Pt(0, 0)}, 0, 5)
	if _, err := c.ProcessEpoch([]Report{bad}); err == nil {
		t.Error("empty FSA must error")
	}
	bad2 := report(1, geom.Pt(0, 0), geom.RectAround(geom.Pt(5, 5), 2), 5, 5)
	if _, err := c.ProcessEpoch([]Report{bad2}); err == nil {
		t.Error("zero-length interval must error")
	}
}

func TestCase3CreatesPath(t *testing.T) {
	c := mustCoord(t, testConfig())
	fsa := geom.RectAround(geom.Pt(100, 100), 10)
	resps, err := c.ProcessEpoch([]Report{report(1, geom.Pt(50, 50), fsa, 0, 10)})
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 1 {
		t.Fatalf("got %d responses", len(resps))
	}
	r := resps[0]
	if r.Case != 3 {
		t.Errorf("case = %d want 3", r.Case)
	}
	if !fsa.Contains(r.End.P) {
		t.Errorf("endpoint %v outside FSA", r.End.P)
	}
	if r.End.T != 10 {
		t.Errorf("endpoint timestamp = %d", r.End.T)
	}
	if c.IndexSize() != 1 {
		t.Errorf("index size = %d", c.IndexSize())
	}
	if c.Hotness(r.PathID) != 1 {
		t.Errorf("hotness = %d", c.Hotness(r.PathID))
	}
	p, ok := c.Path(r.PathID)
	if !ok || !p.S.Eq(geom.Pt(50, 50)) || !p.E.Eq(r.End.P) {
		t.Errorf("stored path = %v", p)
	}
}

func TestCase1ReusesPath(t *testing.T) {
	c := mustCoord(t, testConfig())
	s := geom.Pt(50, 50)
	fsa := geom.RectAround(geom.Pt(100, 100), 10)
	first, err := c.ProcessEpoch([]Report{report(1, s, fsa, 0, 10)})
	if err != nil {
		t.Fatal(err)
	}
	// Same start, overlapping FSA containing the existing endpoint.
	second, err := c.ProcessEpoch([]Report{report(2, s, fsa, 5, 15)})
	if err != nil {
		t.Fatal(err)
	}
	if second[0].Case != 1 {
		t.Fatalf("case = %d want 1", second[0].Case)
	}
	if second[0].PathID != first[0].PathID {
		t.Error("existing path must be reused")
	}
	if c.IndexSize() != 1 {
		t.Errorf("index size = %d want 1 (no new path)", c.IndexSize())
	}
	if c.Hotness(first[0].PathID) != 2 {
		t.Errorf("hotness = %d want 2", c.Hotness(first[0].PathID))
	}
}

func TestCase2PicksExistingVertex(t *testing.T) {
	c := mustCoord(t, testConfig())
	// Object 1 creates path (50,50)→v.
	fsa := geom.RectAround(geom.Pt(100, 100), 10)
	first, _ := c.ProcessEpoch([]Report{report(1, geom.Pt(50, 50), fsa, 0, 10)})
	v := first[0].End.P
	// Object 2 starts elsewhere but its FSA contains v: no path from its
	// start exists → Case 2, and it should adopt v as its endpoint.
	second, err := c.ProcessEpoch([]Report{report(2, geom.Pt(200, 200), fsa, 2, 12)})
	if err != nil {
		t.Fatal(err)
	}
	if second[0].Case != 2 {
		t.Fatalf("case = %d want 2", second[0].Case)
	}
	if !second[0].End.P.Eq(v) {
		t.Errorf("endpoint %v want existing vertex %v", second[0].End.P, v)
	}
	if c.IndexSize() != 2 {
		t.Errorf("index size = %d want 2", c.IndexSize())
	}
}

func TestHotterVertexWins(t *testing.T) {
	c := mustCoord(t, testConfig())
	// Build two vertices with different hotness: v1 crossed 3 times, v2 once.
	fsa1 := geom.RectAround(geom.Pt(100, 100), 5)
	r1, _ := c.ProcessEpoch([]Report{report(1, geom.Pt(50, 50), fsa1, 0, 10)})
	c.ProcessEpoch([]Report{report(2, geom.Pt(50, 50), geom.RectAround(r1[0].End.P, 1), 1, 11)})
	c.ProcessEpoch([]Report{report(3, geom.Pt(50, 50), geom.RectAround(r1[0].End.P, 1), 2, 12)})
	fsa2 := geom.RectAround(geom.Pt(130, 100), 5)
	c.ProcessEpoch([]Report{report(4, geom.Pt(60, 60), fsa2, 0, 10)})

	// Object 5's FSA covers both vertices; it must pick the hotter v1.
	big := geom.Rect{Lo: geom.Pt(90, 90), Hi: geom.Pt(140, 110)}
	resp, err := c.ProcessEpoch([]Report{report(5, geom.Pt(300, 300), big, 5, 15)})
	if err != nil {
		t.Fatal(err)
	}
	if resp[0].Case != 2 {
		t.Fatalf("case = %d want 2", resp[0].Case)
	}
	if !resp[0].End.P.Eq(r1[0].End.P) {
		t.Errorf("picked %v want hotter vertex %v", resp[0].End.P, r1[0].End.P)
	}
}

func TestOverlapVertexSharedAcrossObjects(t *testing.T) {
	// Paper Example 2: several objects with overlapping FSAs and an empty
	// index should converge on a vertex in the common intersection.
	c := mustCoord(t, testConfig())
	fsaA := geom.Rect{Lo: geom.Pt(90, 90), Hi: geom.Pt(110, 110)}
	fsaB := geom.Rect{Lo: geom.Pt(95, 95), Hi: geom.Pt(115, 115)}
	fsaC := geom.Rect{Lo: geom.Pt(85, 98), Hi: geom.Pt(105, 118)}
	resps, err := c.ProcessEpoch([]Report{
		report(1, geom.Pt(10, 10), fsaA, 0, 10),
		report(2, geom.Pt(20, 10), fsaB, 0, 10),
		report(3, geom.Pt(10, 20), fsaC, 0, 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	// The triple intersection is [95,105]x[98,110].
	core := geom.Rect{Lo: geom.Pt(95, 98), Hi: geom.Pt(105, 110)}
	if !core.Contains(resps[0].End.P) {
		t.Errorf("object 1 endpoint %v not in core %v", resps[0].End.P, core)
	}
	// Later objects see object 1's fresh vertex through the live index and
	// should share it exactly.
	if !resps[1].End.P.Eq(resps[0].End.P) || !resps[2].End.P.Eq(resps[0].End.P) {
		t.Errorf("objects did not converge: %v %v %v",
			resps[0].End.P, resps[1].End.P, resps[2].End.P)
	}
}

func TestAdvanceExpiresPaths(t *testing.T) {
	c := mustCoord(t, testConfig()) // W = 100
	fsa := geom.RectAround(geom.Pt(100, 100), 10)
	resp, _ := c.ProcessEpoch([]Report{report(1, geom.Pt(50, 50), fsa, 0, 10)})
	id := resp[0].PathID
	c.Advance(109)
	if c.IndexSize() != 1 {
		t.Error("path must survive until te+W")
	}
	c.Advance(110)
	if c.IndexSize() != 0 {
		t.Error("path must expire at te+W")
	}
	if c.Hotness(id) != 0 {
		t.Error("hotness must be 0 after expiry")
	}
	if c.Stats().PathsExpired != 1 {
		t.Errorf("stats = %+v", c.Stats())
	}
	// Expired vertex is gone from the grid, so a new identical report
	// re-discovers the path from scratch (Case 3) — and, because ids are
	// content-addressed, the re-discovered path carries the SAME id.
	resp2, _ := c.ProcessEpoch([]Report{report(2, geom.Pt(50, 50), fsa, 120, 130)})
	if resp2[0].PathID != id {
		t.Errorf("re-discovered identical geometry got id %d, want the content-addressed %d", resp2[0].PathID, id)
	}
	if resp2[0].Case != 3 {
		t.Errorf("case = %d want 3 after expiry", resp2[0].Case)
	}
}

func TestTopKAndScore(t *testing.T) {
	c := mustCoord(t, testConfig())
	s := geom.Pt(0, 0)
	// Path A crossed twice, path B once; both from s.
	fsaA := geom.RectAround(geom.Pt(100, 0), 5)
	rA, _ := c.ProcessEpoch([]Report{report(1, s, fsaA, 0, 10)})
	c.ProcessEpoch([]Report{report(2, s, geom.RectAround(rA[0].End.P, 1), 1, 11)})
	fsaB := geom.RectAround(geom.Pt(0, 50), 5)
	rB, _ := c.ProcessEpoch([]Report{report(3, geom.Pt(10, 300), fsaB, 0, 10)})

	top := c.TopK(10)
	if len(top) != 2 {
		t.Fatalf("TopK returned %d", len(top))
	}
	if top[0].Path.ID != rA[0].PathID || top[0].Hotness != 2 {
		t.Errorf("top[0] = %+v", top[0])
	}
	if top[1].Path.ID != rB[0].PathID || top[1].Hotness != 1 {
		t.Errorf("top[1] = %+v", top[1])
	}
	one := c.TopK(1)
	if len(one) != 1 || one[0].Path.ID != rA[0].PathID {
		t.Error("TopK(1) truncation wrong")
	}
	if got := motion.TopKScore(top); got <= 0 {
		t.Errorf("score = %v", got)
	}
	if len(c.TopK(0)) != 2 {
		t.Error("TopK(0) size")
	}
}

func TestStatsCounters(t *testing.T) {
	c := mustCoord(t, testConfig())
	fsa := geom.RectAround(geom.Pt(100, 100), 10)
	c.ProcessEpoch([]Report{report(1, geom.Pt(50, 50), fsa, 0, 10)})
	c.ProcessEpoch([]Report{report(2, geom.Pt(50, 50), fsa, 1, 11)})
	st := c.Stats()
	if st.Epochs != 2 || st.Reports != 2 || st.Crossings != 2 {
		t.Errorf("stats = %+v", st)
	}
	if st.Case3 != 1 || st.Case1 != 1 {
		t.Errorf("case counts = %+v", st)
	}
	if st.PathsCreated != 1 {
		t.Errorf("paths created = %d", st.PathsCreated)
	}
}

func TestSharedCandidateBoost(t *testing.T) {
	// Two objects share a start vertex and two candidate paths exist; the
	// cross-object boost (Alg. 2 lines 13–15) must not change which path is
	// hottest when both objects see the same candidates, but both must pick
	// the SAME path, concentrating hotness.
	c := mustCoord(t, testConfig())
	s := geom.Pt(0, 0)
	// Create two paths from s with distinct endpoints.
	r1, _ := c.ProcessEpoch([]Report{report(1, s, geom.RectAround(geom.Pt(100, 0), 3), 0, 10)})
	c.ProcessEpoch([]Report{report(2, s, geom.RectAround(geom.Pt(100, 30), 3), 0, 10)})
	// Make path 1 hotter.
	c.ProcessEpoch([]Report{report(3, s, geom.RectAround(r1[0].End.P, 1), 1, 11)})

	// Both objects' FSAs include both endpoints.
	big := geom.Rect{Lo: geom.Pt(90, -10), Hi: geom.Pt(110, 40)}
	resps, err := c.ProcessEpoch([]Report{
		report(4, s, big, 5, 15),
		report(5, s, big, 5, 15),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resps[0].PathID != resps[1].PathID {
		t.Error("objects with identical candidates must converge")
	}
	if resps[0].PathID != r1[0].PathID {
		t.Error("the hotter path must win")
	}
}

// Regression: two objects reporting from the SAME start vertex in the SAME
// epoch must not create duplicate s→p paths; the second selection must
// reuse the path the first one created intra-batch.
func TestIntraBatchPathReuse(t *testing.T) {
	c := mustCoord(t, testConfig())
	s := geom.Pt(50, 50)
	fsa := geom.RectAround(geom.Pt(100, 100), 10)
	resps, err := c.ProcessEpoch([]Report{
		report(1, s, fsa, 0, 10),
		report(2, s, fsa, 0, 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resps[0].PathID != resps[1].PathID {
		t.Errorf("objects created distinct paths %d and %d from the same start",
			resps[0].PathID, resps[1].PathID)
	}
	if c.IndexSize() != 1 {
		t.Errorf("index size = %d want 1", c.IndexSize())
	}
	if c.Hotness(resps[0].PathID) != 2 {
		t.Errorf("hotness = %d want 2", c.Hotness(resps[0].PathID))
	}
}

// Every response endpoint must lie inside the reporting FSA — otherwise the
// RayTrace filter would reject it and the covering-set guarantee breaks.
func TestResponseAlwaysInsideFSA(t *testing.T) {
	c := mustCoord(t, testConfig())
	fsas := []geom.Rect{
		geom.RectAround(geom.Pt(100, 100), 10),
		geom.RectAround(geom.Pt(105, 95), 8),
		geom.RectAround(geom.Pt(500, 500), 3),
		{Lo: geom.Pt(98, 92), Hi: geom.Pt(112, 104)},
	}
	var reports []Report
	for i, f := range fsas {
		reports = append(reports, report(i, geom.Pt(float64(i*7), float64(i*13)), f, 0, 10))
	}
	resps, err := c.ProcessEpoch(reports)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resps {
		if !fsas[i].Contains(r.End.P) {
			t.Errorf("object %d: endpoint %v outside FSA %v", i, r.End.P, fsas[i])
		}
	}
}
