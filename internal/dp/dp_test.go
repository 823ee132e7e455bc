package dp

import (
	"math"
	"math/rand"
	"testing"

	"hotpaths/internal/geom"
	"hotpaths/internal/trajectory"
)

func TestSimplifyTrivial(t *testing.T) {
	if got := Simplify(nil, 1); len(got) != 0 {
		t.Error("nil input")
	}
	one := []geom.Point{geom.Pt(1, 1)}
	if got := Simplify(one, 1); len(got) != 1 {
		t.Error("single point")
	}
	two := []geom.Point{geom.Pt(0, 0), geom.Pt(5, 5)}
	if got := Simplify(two, 1); len(got) != 2 {
		t.Error("two points")
	}
}

func TestSimplifyCollinear(t *testing.T) {
	var pts []geom.Point
	for i := 0; i <= 10; i++ {
		pts = append(pts, geom.Pt(float64(i), 2*float64(i)))
	}
	got := Simplify(pts, 0.01)
	if len(got) != 2 {
		t.Errorf("collinear points should simplify to 2, got %d", len(got))
	}
	if !got[0].Eq(pts[0]) || !got[1].Eq(pts[10]) {
		t.Error("endpoints must be preserved")
	}
}

func TestSimplifyKeepsSalientVertex(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(5, 10), geom.Pt(10, 0)}
	got := Simplify(pts, 1)
	if len(got) != 3 {
		t.Errorf("sharp corner must be kept, got %v", got)
	}
	got = Simplify(pts, 100)
	if len(got) != 2 {
		t.Errorf("huge eps should drop the corner, got %v", got)
	}
}

// Property: every dropped point stays within eps of the simplified
// polyline.
func TestSimplifyErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		n := 10 + rng.Intn(100)
		pts := make([]geom.Point, n)
		cur := geom.Pt(0, 0)
		for i := range pts {
			cur = cur.Add(geom.Pt(rng.Float64()*10, rng.Float64()*10-5))
			pts[i] = cur
		}
		eps := 1 + rng.Float64()*10
		simp := Simplify(pts, eps)
		for _, p := range pts {
			best := math.Inf(1)
			for i := 1; i < len(simp); i++ {
				if d := geom.Seg(simp[i-1], simp[i]).DistToPoint(p); d < best {
					best = d
				}
			}
			if best > eps+1e-9 {
				t.Fatalf("trial %d: point %v at distance %v > eps %v", trial, p, best, eps)
			}
		}
	}
}

func TestNewOpeningWindowValidation(t *testing.T) {
	if _, err := NewOpeningWindow(0, NOPW); err == nil {
		t.Error("eps=0 must error")
	}
	if _, err := NewOpeningWindow(1, Policy(9)); err == nil {
		t.Error("bad policy must error")
	}
	if NOPW.String() != "NOPW" || BOPW.String() != "BOPW" {
		t.Error("Policy.String")
	}
}

func tp(x, y float64, tt trajectory.Time) trajectory.TimePoint {
	return trajectory.TP(geom.Pt(x, y), tt)
}

func TestOpeningWindowStraightLine(t *testing.T) {
	w, _ := NewOpeningWindow(1, NOPW)
	for i := 0; i < 100; i++ {
		ems, err := w.Process(tp(float64(i)*5, 0, trajectory.Time(i)))
		if err != nil {
			t.Fatal(err)
		}
		if len(ems) != 0 {
			t.Fatalf("straight line emitted at %d", i)
		}
	}
	em, ok := w.Flush()
	if !ok {
		t.Fatal("flush must emit")
	}
	if em.Seg != geom.Seg(geom.Pt(0, 0), geom.Pt(495, 0)) || em.Ts != 0 || em.Te != 99 {
		t.Errorf("flush = %+v", em)
	}
	if _, ok := w.Flush(); ok {
		t.Error("second flush must be empty")
	}
}

func TestOpeningWindowTimestampValidation(t *testing.T) {
	w, _ := NewOpeningWindow(1, NOPW)
	w.Process(tp(0, 0, 5))
	if _, err := w.Process(tp(1, 1, 5)); err == nil {
		t.Error("equal timestamp must error")
	}
}

func TestOpeningWindowNOPWBreaksAtDeviant(t *testing.T) {
	w, _ := NewOpeningWindow(1, NOPW)
	// A right-angle turn: up then right. The corner is the deviant point.
	w.Process(tp(0, 0, 0))
	w.Process(tp(0, 10, 1))
	w.Process(tp(0, 20, 2)) // corner
	ems, err := w.Process(tp(20, 20, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(ems) != 1 {
		t.Fatalf("expected 1 emission, got %d", len(ems))
	}
	if !ems[0].Seg.B.Eq(geom.Pt(0, 20)) {
		t.Errorf("NOPW must break at the corner, broke at %v", ems[0].Seg.B)
	}
	if ems[0].Ts != 0 || ems[0].Te != 2 {
		t.Errorf("emitted interval [%d,%d]", ems[0].Ts, ems[0].Te)
	}
}

func TestOpeningWindowBOPWBreaksBeforeFloat(t *testing.T) {
	w, _ := NewOpeningWindow(1, BOPW)
	w.Process(tp(0, 0, 0))
	w.Process(tp(0, 10, 1))
	w.Process(tp(0, 20, 2))
	ems, _ := w.Process(tp(20, 20, 3))
	if len(ems) != 1 {
		t.Fatalf("expected 1 emission, got %d", len(ems))
	}
	// BOPW breaks at the point just before the floating endpoint, which
	// here coincides with the corner.
	if !ems[0].Seg.B.Eq(geom.Pt(0, 20)) {
		t.Errorf("BOPW break at %v", ems[0].Seg.B)
	}
}

// Property: for both policies, every input point is within eps of the union
// of emitted segments (plus the final flush), i.e. the synopsis respects
// the tolerance.
func TestOpeningWindowToleranceInvariant(t *testing.T) {
	for _, pol := range []Policy{NOPW, BOPW} {
		rng := rand.New(rand.NewSource(13))
		for trial := 0; trial < 25; trial++ {
			const eps = 3.0
			w, _ := NewOpeningWindow(eps, pol)
			var pts []geom.Point
			cur := geom.Pt(0, 0)
			dir := geom.Pt(5, 0)
			var segs []geom.Segment
			for i := 0; i < 150; i++ {
				if rng.Float64() < 0.15 {
					dir = geom.Pt(rng.Float64()*10-5, rng.Float64()*10-5)
				}
				cur = cur.Add(dir).Add(geom.Pt(rng.Float64()-0.5, rng.Float64()-0.5))
				pts = append(pts, cur)
				ems, err := w.Process(trajectory.TP(cur, trajectory.Time(i)))
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range ems {
					segs = append(segs, e.Seg)
				}
			}
			if em, ok := w.Flush(); ok {
				segs = append(segs, em.Seg)
			}
			for _, p := range pts {
				best := math.Inf(1)
				for _, s := range segs {
					if d := s.DistToPoint(p); d < best {
						best = d
					}
				}
				if best > eps+1e-9 {
					t.Fatalf("%v trial %d: point %v at distance %v from synopsis", pol, trial, p, best)
				}
			}
		}
	}
}

// Emitted segments chain: each segment's start is the previous segment's
// end (the anchor hand-off).
func TestOpeningWindowChaining(t *testing.T) {
	w, _ := NewOpeningWindow(2, NOPW)
	rng := rand.New(rand.NewSource(77))
	var all []Emitted
	cur := geom.Pt(0, 0)
	for i := 0; i < 500; i++ {
		cur = cur.Add(geom.Pt(rng.Float64()*12-2, rng.Float64()*12-6))
		ems, err := w.Process(trajectory.TP(cur, trajectory.Time(i)))
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, ems...)
	}
	if len(all) < 2 {
		t.Skip("walk too tame")
	}
	for i := 1; i < len(all); i++ {
		if !all[i].Seg.A.Eq(all[i-1].Seg.B) || all[i].Ts != all[i-1].Te {
			t.Fatalf("segments %d and %d do not chain: %+v %+v", i-1, i, all[i-1], all[i])
		}
	}
}
