package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointArithmetic(t *testing.T) {
	p, q := Pt(1, 2), Pt(3, -4)
	if got := p.Add(q); !got.Eq(Pt(4, -2)) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); !got.Eq(Pt(-2, 6)) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); !got.Eq(Pt(2, 4)) {
		t.Errorf("Scale = %v", got)
	}
}

func TestPointLerp(t *testing.T) {
	p, q := Pt(0, 0), Pt(10, 20)
	if got := p.Lerp(q, 0); !got.Eq(p) {
		t.Errorf("Lerp(0) = %v", got)
	}
	if got := p.Lerp(q, 1); !got.Eq(q) {
		t.Errorf("Lerp(1) = %v", got)
	}
	if got := p.Lerp(q, 0.5); !got.Eq(Pt(5, 10)) {
		t.Errorf("Lerp(0.5) = %v", got)
	}
}

func TestDistances(t *testing.T) {
	p, q := Pt(0, 0), Pt(3, 4)
	if got := p.Dist(q); got != 5 {
		t.Errorf("Dist = %v", got)
	}
	if got := p.MaxDist(q); got != 4 {
		t.Errorf("MaxDist = %v", got)
	}
	if LInf.Distance(p, q) != 4 || L2.Distance(p, q) != 5 {
		t.Error("Metric.Distance mismatch")
	}
}

func TestMetricString(t *testing.T) {
	if LInf.String() != "LInf" || L2.String() != "L2" {
		t.Error("Metric.String mismatch")
	}
}

func TestPointMinMax(t *testing.T) {
	p, q := Pt(1, 5), Pt(2, 3)
	if got := p.Min(q); !got.Eq(Pt(1, 3)) {
		t.Errorf("Min = %v", got)
	}
	if got := p.Max(q); !got.Eq(Pt(2, 5)) {
		t.Errorf("Max = %v", got)
	}
}

func TestRectAround(t *testing.T) {
	r := RectAround(Pt(5, 5), 2)
	want := Rect{Lo: Pt(3, 3), Hi: Pt(7, 7)}
	if r != want {
		t.Errorf("RectAround = %v want %v", r, want)
	}
	if r.Width() != 4 || r.Height() != 4 || r.Area() != 16 {
		t.Errorf("dims wrong: %v %v %v", r.Width(), r.Height(), r.Area())
	}
	if !r.Centroid().Eq(Pt(5, 5)) {
		t.Errorf("Centroid = %v", r.Centroid())
	}
}

func TestRectFromPoints(t *testing.T) {
	r := RectFromPoints(Pt(1, 8), Pt(4, 2), Pt(-1, 5))
	want := Rect{Lo: Pt(-1, 2), Hi: Pt(4, 8)}
	if r != want {
		t.Errorf("RectFromPoints = %v want %v", r, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for empty input")
		}
	}()
	RectFromPoints()
}

func TestRectContains(t *testing.T) {
	r := Rect{Lo: Pt(0, 0), Hi: Pt(10, 10)}
	for _, p := range []Point{Pt(0, 0), Pt(10, 10), Pt(5, 5), Pt(0, 10)} {
		if !r.Contains(p) {
			t.Errorf("should contain %v", p)
		}
	}
	for _, p := range []Point{Pt(-0.1, 5), Pt(5, 10.1), Pt(11, 11)} {
		if r.Contains(p) {
			t.Errorf("should not contain %v", p)
		}
	}
	if !r.ContainsRect(Rect{Pt(1, 1), Pt(9, 9)}) {
		t.Error("should contain inner rect")
	}
	if r.ContainsRect(Rect{Pt(1, 1), Pt(11, 9)}) {
		t.Error("should not contain overflowing rect")
	}
}

func TestRectIntersection(t *testing.T) {
	a := Rect{Pt(0, 0), Pt(10, 10)}
	b := Rect{Pt(5, 5), Pt(15, 15)}
	if !a.Intersects(b) {
		t.Fatal("a,b should intersect")
	}
	got := a.Intersect(b)
	want := Rect{Pt(5, 5), Pt(10, 10)}
	if got != want {
		t.Errorf("Intersect = %v want %v", got, want)
	}
	c := Rect{Pt(20, 20), Pt(30, 30)}
	if a.Intersects(c) {
		t.Error("a,c should not intersect")
	}
	if !a.Intersect(c).Empty() {
		t.Error("empty intersection should be Empty")
	}
	// Touching rectangles share a boundary point.
	d := Rect{Pt(10, 10), Pt(20, 20)}
	if !a.Intersects(d) {
		t.Error("touching rects should intersect")
	}
	if a.Intersect(d).Area() != 0 {
		t.Error("touching intersection should have zero area")
	}
}

func TestRectExpand(t *testing.T) {
	a := Rect{Pt(0, 0), Pt(1, 1)}
	e := a.Expand(1)
	if e != (Rect{Pt(-1, -1), Pt(2, 2)}) {
		t.Errorf("Expand = %v", e)
	}
	if !a.Expand(-1).Empty() {
		t.Error("over-shrunk rect should be empty")
	}
}

func TestRectLerp(t *testing.T) {
	apex := Pt(0, 0)
	r := Rect{Pt(8, -2), Pt(12, 2)}
	if got := r.Lerp(apex, 0); got.Lo != apex || got.Hi != apex {
		t.Errorf("Lerp(0) = %v", got)
	}
	if got := r.Lerp(apex, 1); got != r {
		t.Errorf("Lerp(1) = %v", got)
	}
	got := r.Lerp(apex, 0.5)
	want := Rect{Pt(4, -1), Pt(6, 1)}
	if got != want {
		t.Errorf("Lerp(0.5) = %v want %v", got, want)
	}
}

func TestSegment(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(6, 8))
	if s.Length() != 10 {
		t.Errorf("Length = %v", s.Length())
	}
	if !s.At(0.5).Eq(Pt(3, 4)) {
		t.Errorf("At(0.5) = %v", s.At(0.5))
	}
	if s.MBB() != (Rect{Pt(0, 0), Pt(6, 8)}) {
		t.Errorf("MBB = %v", s.MBB())
	}
	if s.Reverse() != Seg(Pt(6, 8), Pt(0, 0)) {
		t.Error("Reverse mismatch")
	}
}

func TestSegmentDistToPoint(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(10, 0))
	cases := []struct {
		p    Point
		want float64
	}{
		{Pt(5, 3), 3},   // above the middle
		{Pt(-3, 4), 5},  // before A: distance to A
		{Pt(13, -4), 5}, // after B: distance to B
		{Pt(7, 0), 0},   // on the segment
		{Pt(0, 0), 0},   // endpoint
	}
	for _, c := range cases {
		if got := s.DistToPoint(c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("DistToPoint(%v) = %v want %v", c.p, got, c.want)
		}
	}
	deg := Seg(Pt(2, 2), Pt(2, 2))
	if got := deg.DistToPoint(Pt(5, 6)); got != 5 {
		t.Errorf("degenerate DistToPoint = %v", got)
	}
}

func TestStringMethods(t *testing.T) {
	// Smoke-test the formatters; they are used in error paths.
	if Pt(1, 2).String() == "" || (Rect{}).String() == "" ||
		Seg(Pt(0, 0), Pt(1, 1)).String() == "" {
		t.Error("empty String output")
	}
}

// Property: intersection is commutative, contained in both operands, and
// intersecting is equivalent to a non-empty intersection.
func TestRectIntersectProperties(t *testing.T) {
	f := func(ax, ay, aw, ah, bx, by, bw, bh float64) bool {
		a := Rect{Pt(ax, ay), Pt(ax+math.Abs(aw), ay+math.Abs(ah))}
		b := Rect{Pt(bx, by), Pt(bx+math.Abs(bw), by+math.Abs(bh))}
		i1, i2 := a.Intersect(b), b.Intersect(a)
		if i1 != i2 {
			return false
		}
		if a.Intersects(b) != !i1.Empty() {
			return false
		}
		if !i1.Empty() {
			if !a.ContainsRect(i1) || !b.ContainsRect(i1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Lerp of a rect stays inside the union of apex and rect, and
// distances to apex scale linearly.
func TestRectLerpProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		apex := Pt(rng.Float64()*100, rng.Float64()*100)
		lo := Pt(rng.Float64()*100, rng.Float64()*100)
		r := Rect{lo, lo.Add(Pt(rng.Float64()*50, rng.Float64()*50))}
		lam := rng.Float64()
		p := r.Lerp(apex, lam)
		if !p.Valid() {
			t.Fatalf("Lerp produced invalid rect %v", p)
		}
		wantW := r.Width() * lam
		if math.Abs(p.Width()-wantW) > 1e-9 {
			t.Fatalf("width %v want %v", p.Width(), wantW)
		}
	}
}

// Property: DistToPoint is always ≤ distance to either endpoint and ≥ the
// perpendicular distance to the supporting line.
func TestSegmentDistProperties(t *testing.T) {
	f := func(ax, ay, bx, by, px, py float64) bool {
		// Constrain magnitudes for numerical sanity.
		clamp := func(v float64) float64 { return math.Mod(v, 1e6) }
		s := Seg(Pt(clamp(ax), clamp(ay)), Pt(clamp(bx), clamp(by)))
		p := Pt(clamp(px), clamp(py))
		d := s.DistToPoint(p)
		if d > p.Dist(s.A)+1e-9 || d > p.Dist(s.B)+1e-9 {
			return false
		}
		if s.Length() == 0 {
			return true
		}
		dir := s.B.Sub(s.A)
		lineDist := math.Abs(dir.X*(s.A.Y-p.Y)-dir.Y*(s.A.X-p.X)) / s.Length()
		return d+1e-9 >= lineDist
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
