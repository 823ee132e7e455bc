package raytrace

import (
	"math/rand"
	"testing"

	"hotpaths/internal/geom"
	"hotpaths/internal/trajectory"
)

func tp(x, y float64, t trajectory.Time) trajectory.TimePoint {
	return trajectory.TP(geom.Pt(x, y), t)
}

func TestFirstTimepointSetsFSA(t *testing.T) {
	f := New(tp(0, 0, 0), 2)
	_, report, err := f.Process(tp(10, 0, 1))
	if err != nil || report {
		t.Fatalf("unexpected report/err: %v %v", report, err)
	}
	st := f.State()
	want := geom.RectAround(geom.Pt(10, 0), 2)
	if st.FSA != want || st.Te != 1 || st.Ts != 0 || !st.Start.Eq(geom.Pt(0, 0)) {
		t.Errorf("state = %v", st)
	}
}

func TestSSAIntersectionShrinks(t *testing.T) {
	// Straight movement along x at speed 10; tolerance 2.
	f := New(tp(0, 0, 0), 2)
	mustProcess(t, f, tp(10, 0, 1))
	mustProcess(t, f, tp(20, 0, 2))
	st := f.State()
	if st.Te != 2 {
		t.Fatalf("Te = %d", st.Te)
	}
	// Projection of FSA [(8,-2),(12,2)] at t=2 is [(16,-4),(24,4)];
	// intersection with [(18,-2),(22,2)] is [(18,-2),(22,2)].
	want := geom.Rect{Lo: geom.Pt(18, -2), Hi: geom.Pt(22, 2)}
	if st.FSA != want {
		t.Errorf("FSA = %v want %v", st.FSA, want)
	}
}

func TestViolationReports(t *testing.T) {
	f := New(tp(0, 0, 0), 1)
	mustProcess(t, f, tp(10, 0, 1))
	// A sharp reversal the cone cannot absorb.
	st, report, err := f.Process(tp(-10, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !report {
		t.Fatal("expected report")
	}
	if st.Te != 1 || st.Ts != 0 {
		t.Errorf("reported interval [%d,%d]", st.Ts, st.Te)
	}
	if !f.s.Waiting {
		t.Error("filter should be waiting")
	}
	if len(f.s.Buf) != 1 {
		t.Errorf("violating point must be buffered, len=%d", len(f.s.Buf))
	}
}

func TestBufferingWhileWaiting(t *testing.T) {
	f := New(tp(0, 0, 0), 1)
	mustProcess(t, f, tp(10, 0, 1))
	_, report, _ := f.Process(tp(-10, 0, 2))
	if !report {
		t.Fatal("expected report")
	}
	for i := trajectory.Time(3); i <= 5; i++ {
		_, r, err := f.Process(tp(-10-float64(i)*2, 0, i))
		if err != nil || r {
			t.Fatalf("waiting filter must only buffer (r=%v err=%v)", r, err)
		}
	}
	if len(f.s.Buf) != 4 {
		t.Errorf("buffer len = %d want 4", len(f.s.Buf))
	}
	stats := f.s.Stats
	if stats.MaxBuffer != 4 || stats.Buffered != 4 || stats.StatesSent != 1 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestRespondReplaysBuffer(t *testing.T) {
	f := New(tp(0, 0, 0), 1)
	mustProcess(t, f, tp(10, 0, 1))
	st, report, _ := f.Process(tp(-10, 0, 2))
	if !report {
		t.Fatal("expected report")
	}
	// Respond with the FSA centroid.
	e := trajectory.TP(st.FSA.Centroid(), st.Te)
	st2, report2, err := f.Respond(e)
	if err != nil {
		t.Fatal(err)
	}
	if report2 {
		t.Fatalf("single buffered point should seed the new SSA without violating: %v", st2)
	}
	if f.s.Waiting {
		t.Error("filter should have left waiting mode")
	}
	ns := f.State()
	if ns.Ts != 1 || !ns.Start.Eq(e.P) {
		t.Errorf("new SSA apex = %v @%d", ns.Start, ns.Ts)
	}
	if ns.Te != 2 {
		t.Errorf("buffered point should extend new SSA to te=2, got %d", ns.Te)
	}
}

func TestRespondValidation(t *testing.T) {
	f := New(tp(0, 0, 0), 1)
	mustProcess(t, f, tp(10, 0, 1))
	if _, _, err := f.Respond(tp(10, 0, 1)); err == nil {
		t.Error("Respond while not waiting must error")
	}
	st, report, _ := f.Process(tp(-10, 0, 2))
	if !report {
		t.Fatal("expected report")
	}
	if _, _, err := f.Respond(trajectory.TP(st.FSA.Centroid(), st.Te+1)); err == nil {
		t.Error("wrong response timestamp must error")
	}
	outside := st.FSA.Hi.Add(geom.Pt(5, 5))
	if _, _, err := f.Respond(trajectory.TP(outside, st.Te)); err == nil {
		t.Error("endpoint outside FSA must error")
	}
	// A valid response still works afterwards.
	if _, _, err := f.Respond(trajectory.TP(st.FSA.Centroid(), st.Te)); err != nil {
		t.Errorf("valid respond failed: %v", err)
	}
}

func TestRespondCanImmediatelyReport(t *testing.T) {
	f := New(tp(0, 0, 0), 1)
	mustProcess(t, f, tp(10, 0, 1))
	st, report, _ := f.Process(tp(-10, 0, 2))
	if !report {
		t.Fatal("expected report")
	}
	// While waiting, feed a zig-zag that cannot fit one SSA.
	f.Process(tp(50, 0, 3))
	f.Process(tp(-50, 0, 4))
	st2, report2, err := f.Respond(trajectory.TP(st.FSA.Centroid(), st.Te))
	if err != nil {
		t.Fatal(err)
	}
	if !report2 {
		t.Fatal("zig-zag buffer must violate the fresh SSA")
	}
	if !f.s.Waiting {
		t.Error("filter must be waiting again")
	}
	if st2.Ts != st.Te {
		t.Errorf("new state must chain: Ts=%d want %d", st2.Ts, st.Te)
	}
}

// Regression test: when a replayed buffer point violates the fresh SSA, it
// must return to the FRONT of the buffer. A bug that appended it to the
// back scrambled the ordering and produced states with Te < Ts.
func TestReplayViolationPreservesBufferOrder(t *testing.T) {
	f := New(tp(0, 0, 0), 1)
	mustProcess(t, f, tp(10, 0, 1))
	st, report, _ := f.Process(tp(-10, 0, 2))
	if !report {
		t.Fatal("expected report")
	}
	// Buffer a zig-zag: after the first respond, the replay will violate
	// mid-buffer repeatedly.
	f.Process(tp(30, 0, 3))
	f.Process(tp(-30, 0, 4))
	f.Process(tp(50, 0, 5))
	for rounds := 0; report && rounds < 10; rounds++ {
		st, report, _ = f.Respond(trajectory.TP(st.FSA.Centroid(), st.Te))
		if report {
			if st.Te <= st.Ts {
				t.Fatalf("inverted state interval [%d,%d]", st.Ts, st.Te)
			}
		}
	}
	if f.s.Waiting {
		t.Fatal("zig-zag should drain within a few rounds")
	}
}

// A replay that reports again at point i parks buf[i:], whose later
// timestamps the filter has already accepted: a measurement at or before
// the newest buffered one is refused, as it would be before the respond.
func TestReplayKeepsBufferedTimestamps(t *testing.T) {
	f := New(tp(0, 0, 0), 1)
	mustProcess(t, f, tp(10, 0, 1))
	st, report, _ := f.Process(tp(-10, 0, 2))
	if !report {
		t.Fatal("expected report")
	}
	f.Process(tp(50, 0, 3))
	f.Process(tp(-50, 0, 4))
	if _, report, err := f.Respond(trajectory.TP(st.FSA.Centroid(), st.Te)); err != nil || !report {
		t.Fatalf("replay must report mid-buffer: report %v, err %v", report, err)
	}
	if n := len(f.s.Buf); n < 2 || f.s.Buf[n-1].T != 4 {
		t.Fatalf("buffer after the replay: %v, want it to end at t=4", f.s.Buf)
	}
	for _, ts := range []trajectory.Time{4, 3} {
		if _, _, err := f.Process(tp(0, 0, ts)); err == nil {
			t.Errorf("t=%d after t=4 was buffered: accepted, want refused", ts)
		}
	}
	mustProcess(t, f, tp(0, 0, 5))
}

func TestTimestampValidation(t *testing.T) {
	f := New(tp(0, 0, 5), 1)
	if _, _, err := f.Process(tp(1, 1, 5)); err == nil {
		t.Error("equal timestamp must error")
	}
	if _, _, err := f.Process(tp(1, 1, 4)); err == nil {
		t.Error("decreasing timestamp must error")
	}
	var zero Filter
	if _, _, err := zero.Process(tp(1, 1, 9)); err == nil {
		t.Error("unprimed filter must error")
	}
}

func TestAnisotropicTolerance(t *testing.T) {
	// Half-widths that are wider in x than in y.
	f := &Filter{half: geom.Pt(4, 1)}
	f.reset(tp(0, 0, 0))
	mustProcess(t, f, tp(10, 0, 1))
	st := f.State()
	want := geom.Rect{Lo: geom.Pt(6, -1), Hi: geom.Pt(14, 1)}
	if st.FSA != want {
		t.Errorf("FSA = %v want %v", st.FSA, want)
	}
	// Negative half-widths make an empty tolerance rect, which is an error.
	g := New(tp(0, 0, 0), -1)
	if _, _, err := g.Process(tp(1, 0, 1)); err == nil {
		t.Error("empty tolerance rect must error")
	}
}

// randomWalk produces a jittery trajectory starting at the origin.
func randomWalk(rng *rand.Rand, n int, step float64) []trajectory.TimePoint {
	pts := make([]trajectory.TimePoint, n)
	cur := geom.Pt(0, 0)
	dir := geom.Pt(1, 0)
	tcur := trajectory.Time(0)
	for i := range pts {
		// Mostly keep heading, occasionally turn.
		if rng.Float64() < 0.2 {
			dir = geom.Pt(rng.Float64()*2-1, rng.Float64()*2-1)
		}
		cur = cur.Add(dir.Scale(step)).Add(geom.Pt(rng.Float64()-0.5, rng.Float64()-0.5))
		pts[i] = trajectory.TP(cur, tcur)
		tcur += trajectory.Time(1 + rng.Intn(3))
	}
	return pts
}

// The central correctness property (paper Section 4): for any endpoint e in
// a reported FSA, the motion path start→e over [ts,te] is within ε of every
// measurement the SSA absorbed.
func TestSSAClosenessInvariant(t *testing.T) {
	const eps = 3.0
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		pts := randomWalk(rng, 120, 4)
		f := New(pts[0], eps)
		recorded := []trajectory.TimePoint{pts[0]}

		check := func(st State) {
			// Try several endpoints inside the FSA, including corners.
			ends := []geom.Point{
				st.FSA.Centroid(), st.FSA.Lo, st.FSA.Hi,
				geom.Pt(st.FSA.Lo.X, st.FSA.Hi.Y),
				geom.Pt(st.FSA.Lo.X+rng.Float64()*st.FSA.Width(),
					st.FSA.Lo.Y+rng.Float64()*st.FSA.Height()),
			}
			for _, e := range ends {
				mp := trajectory.MotionPath{S: st.Start, E: e, Ts: st.Ts, Te: st.Te}
				for _, m := range recorded {
					if m.T < st.Ts || m.T > st.Te {
						continue
					}
					if d := mp.LocationAt(m.T).MaxDist(m.P); d > eps+1e-9 {
						t.Fatalf("trial %d: endpoint %v: measurement %v at distance %v > eps",
							trial, e, m, d)
					}
				}
			}
		}

		for _, p := range pts[1:] {
			st, report, err := f.Process(p)
			if err != nil {
				t.Fatal(err)
			}
			recorded = append(recorded, p)
			for report {
				check(st)
				st, report, err = f.Respond(trajectory.TP(st.FSA.Centroid(), st.Te))
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		// The last safe area, if a point extended it, as a final report.
		if st := f.State(); st.Te != st.Ts {
			check(st)
		}
	}
}

// Reported states must chain into a covering motion path set when the
// coordinator always answers with a point inside the FSA.
func TestCoveringChainInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pts := randomWalk(rng, 300, 5)
	f := New(pts[0], 2.5)
	var paths []trajectory.MotionPath
	for _, p := range pts[1:] {
		st, report, err := f.Process(p)
		if err != nil {
			t.Fatal(err)
		}
		for report {
			e := st.FSA.Centroid()
			paths = append(paths, trajectory.MotionPath{S: st.Start, E: e, Ts: st.Ts, Te: st.Te})
			st, report, err = f.Respond(trajectory.TP(e, st.Te))
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(paths) < 2 {
		t.Skip("walk too tame to emit multiple paths")
	}
	if !trajectory.CoveringSet(paths, paths[0].Ts, paths[len(paths)-1].Te) {
		t.Error("reported paths do not chain into a covering set")
	}
}

// A straight-line mover should never trigger a report: one SSA absorbs the
// entire trip.
func TestStraightLineNeverReports(t *testing.T) {
	f := New(tp(0, 0, 0), 1)
	for i := 1; i <= 1000; i++ {
		st, report, err := f.Process(tp(float64(i)*7, float64(i)*3, trajectory.Time(i)))
		if err != nil {
			t.Fatal(err)
		}
		if report {
			t.Fatalf("straight line reported at i=%d: %v", i, st)
		}
	}
	if f.s.Stats.StatesSent != 0 {
		t.Error("no states should have been sent")
	}
}

// O(1) space: the filter never keeps more than the SSA regardless of input
// length (buffer only grows while waiting).
func TestConstantSpaceWhenNotWaiting(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pts := randomWalk(rng, 2000, 3)
	f := New(pts[0], 5)
	for _, p := range pts[1:] {
		st, report, err := f.Process(p)
		if err != nil {
			t.Fatal(err)
		}
		if report {
			if _, _, err := f.Respond(trajectory.TP(st.FSA.Centroid(), st.Te)); err != nil {
				t.Fatal(err)
			}
		}
		if len(f.s.Buf) > 1 {
			t.Fatalf("buffer grew to %d while being serviced every step", len(f.s.Buf))
		}
	}
}

func mustProcess(t *testing.T, f *Filter, p trajectory.TimePoint) {
	t.Helper()
	st, report, err := f.Process(p)
	if err != nil {
		t.Fatal(err)
	}
	if report {
		t.Fatalf("unexpected report: %v", st)
	}
}
