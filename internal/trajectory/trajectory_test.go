package trajectory

import (
	"math/rand"
	"testing"

	"hotpaths/internal/geom"
)

func line(n int) *Trajectory {
	pts := make([]TimePoint, n)
	for i := range pts {
		pts[i] = TP(geom.Pt(float64(i)*10, 0), Time(i))
	}
	return MustNew(pts...)
}

func TestNewRejectsUnordered(t *testing.T) {
	_, err := New(TP(geom.Pt(0, 0), 5), TP(geom.Pt(1, 1), 5))
	if err == nil {
		t.Error("equal timestamps must be rejected")
	}
	_, err = New(TP(geom.Pt(0, 0), 5), TP(geom.Pt(1, 1), 3))
	if err == nil {
		t.Error("decreasing timestamps must be rejected")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic on bad input")
		}
	}()
	MustNew(TP(geom.Pt(0, 0), 2), TP(geom.Pt(0, 0), 1))
}

func TestAppend(t *testing.T) {
	tr := MustNew()
	if err := tr.Append(TP(geom.Pt(1, 1), 10)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Append(TP(geom.Pt(2, 2), 10)); err == nil {
		t.Error("Append must reject non-increasing timestamp")
	}
	if err := tr.Append(TP(geom.Pt(2, 2), 11)); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestAccessors(t *testing.T) {
	tr := line(5)
	if tr.Start().T != 0 || tr.End().T != 4 {
		t.Error("Start/End wrong")
	}
	t0, t1 := tr.Span()
	if t0 != 0 || t1 != 4 {
		t.Errorf("Span = %d,%d", t0, t1)
	}
	if tr.At(2).P != geom.Pt(20, 0) {
		t.Errorf("At(2) = %v", tr.At(2))
	}
	if len(tr.Points()) != 5 {
		t.Error("Points length")
	}
	empty := MustNew()
	if a, b := empty.Span(); a != 0 || b != 0 {
		t.Error("empty Span should be 0,0")
	}
}

func TestLocationAtInterpolation(t *testing.T) {
	tr := MustNew(
		TP(geom.Pt(0, 0), 0),
		TP(geom.Pt(10, 0), 2),
		TP(geom.Pt(10, 10), 4),
	)
	cases := []struct {
		t    Time
		want geom.Point
		ok   bool
	}{
		{0, geom.Pt(0, 0), true},
		{1, geom.Pt(5, 0), true},
		{2, geom.Pt(10, 0), true},
		{3, geom.Pt(10, 5), true},
		{4, geom.Pt(10, 10), true},
		{-1, geom.Point{}, false},
		{5, geom.Point{}, false},
	}
	for _, c := range cases {
		got, ok := tr.LocationAt(c.t)
		if ok != c.ok || (ok && !got.Eq(c.want)) {
			t.Errorf("LocationAt(%d) = %v,%v want %v,%v", c.t, got, ok, c.want, c.ok)
		}
	}
}

func TestSub(t *testing.T) {
	tr := line(10)
	got := tr.Sub(3, 6)
	if len(got) != 4 || got[0].T != 3 || got[3].T != 6 {
		t.Errorf("Sub(3,6) = %v", got)
	}
	if len(tr.Sub(100, 200)) != 0 {
		t.Error("out-of-range Sub should be empty")
	}
}

func TestMBB(t *testing.T) {
	tr := MustNew(
		TP(geom.Pt(0, 0), 0),
		TP(geom.Pt(3, 4), 1),
		TP(geom.Pt(3, 10), 2),
	)
	if got := tr.MBB(); got != (geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(3, 10)}) {
		t.Errorf("MBB = %v", got)
	}
	if got := MustNew().MBB(); got != (geom.Rect{}) {
		t.Errorf("empty MBB = %v", got)
	}
}

func TestMotionPathBasics(t *testing.T) {
	mp := MotionPath{S: geom.Pt(0, 0), E: geom.Pt(30, 40), Ts: 0, Te: 10}
	if mp.Length() != 50 {
		t.Errorf("Length = %v", mp.Length())
	}
	if mp.Duration() != 10 {
		t.Errorf("Duration = %v", mp.Duration())
	}
	if !mp.LocationAt(5).Eq(geom.Pt(15, 20)) {
		t.Errorf("LocationAt(5) = %v", mp.LocationAt(5))
	}
	// Clamping outside the interval.
	if !mp.LocationAt(-5).Eq(mp.S) || !mp.LocationAt(99).Eq(mp.E) {
		t.Error("LocationAt should clamp")
	}
	zero := MotionPath{S: geom.Pt(1, 1), E: geom.Pt(2, 2), Ts: 3, Te: 3}
	if !zero.LocationAt(3).Eq(zero.S) {
		t.Error("zero-duration path should sit at S")
	}
}

func TestMotionPathFits(t *testing.T) {
	// Object moves straight along x at 10 m/ts.
	tr := line(11)
	exact := MotionPath{S: geom.Pt(0, 0), E: geom.Pt(100, 0), Ts: 0, Te: 10}
	if !exact.Fits(tr, 0.001, geom.LInf) {
		t.Error("exact path must fit")
	}
	// A path that lags: at time t it is at x=8t vs the object at x=10t,
	// so the deviation is 2t with maximum 20 at t=10.
	lag := MotionPath{S: geom.Pt(0, 0), E: geom.Pt(80, 0), Ts: 0, Te: 10}
	if lag.Fits(tr, 19, geom.LInf) {
		t.Error("lagging path must not fit with eps=19")
	}
	if !lag.Fits(tr, 20, geom.LInf) {
		t.Error("lagging path must fit with eps=20")
	}
	// A path whose interval leaves the trajectory span never fits.
	out := MotionPath{S: geom.Pt(0, 0), E: geom.Pt(100, 0), Ts: 5, Te: 15}
	if out.Fits(tr, 1e9, geom.LInf) {
		t.Error("interval outside trajectory must not fit")
	}
}

func TestCoveringSet(t *testing.T) {
	a := MotionPath{S: geom.Pt(0, 0), E: geom.Pt(10, 0), Ts: 0, Te: 5}
	b := MotionPath{S: geom.Pt(10, 0), E: geom.Pt(10, 10), Ts: 5, Te: 9}
	if !CoveringSet([]MotionPath{a, b}, 0, 9) {
		t.Error("chained paths should form a covering set")
	}
	if CoveringSet([]MotionPath{a, b}, 0, 10) {
		t.Error("wrong end time should fail")
	}
	gap := MotionPath{S: geom.Pt(11, 0), E: geom.Pt(10, 10), Ts: 5, Te: 9}
	if CoveringSet([]MotionPath{a, gap}, 0, 9) {
		t.Error("spatial gap should fail")
	}
	tgap := MotionPath{S: geom.Pt(10, 0), E: geom.Pt(10, 10), Ts: 6, Te: 9}
	if CoveringSet([]MotionPath{a, tgap}, 0, 9) {
		t.Error("temporal gap should fail")
	}
	if !CoveringSet(nil, 3, 3) {
		t.Error("empty set covers an empty range")
	}
	if CoveringSet(nil, 3, 4) {
		t.Error("empty set cannot cover a non-empty range")
	}
}

// Property: LocationAt at stored timestamps returns stored points exactly,
// and interpolated points lie inside the segment MBB.
func TestLocationAtProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(20)
		pts := make([]TimePoint, n)
		tcur := Time(rng.Intn(5))
		for i := range pts {
			pts[i] = TP(geom.Pt(rng.Float64()*1000, rng.Float64()*1000), tcur)
			tcur += Time(1 + rng.Intn(4))
		}
		tr := MustNew(pts...)
		for _, tp := range pts {
			got, ok := tr.LocationAt(tp.T)
			if !ok || !got.Eq(tp.P) {
				t.Fatalf("stored timepoint not returned exactly: %v vs %v", got, tp.P)
			}
		}
		// Interpolation containment.
		for i := 1; i < n; i++ {
			a, b := pts[i-1], pts[i]
			for tt := a.T; tt <= b.T; tt++ {
				got, ok := tr.LocationAt(tt)
				if !ok {
					t.Fatal("in-span timestamp rejected")
				}
				mbb := geom.RectFromPoints(a.P, b.P).Expand(1e-9)
				if !mbb.Contains(got) {
					t.Fatalf("interpolated point %v outside segment MBB %v", got, mbb)
				}
			}
		}
	}
}
