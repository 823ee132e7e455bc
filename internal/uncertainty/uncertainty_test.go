package uncertainty

import (
	"math"
	"math/rand"
	"testing"

	"hotpaths/internal/geom"
)

func TestPhi(t *testing.T) {
	cases := []struct{ z, want float64 }{
		{0, 0.5},
		{1.959963985, 0.975},
		{-1.959963985, 0.025},
		{3, 0.998650101968370},
	}
	for _, c := range cases {
		if got := Phi(c.z); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Phi(%v) = %v want %v", c.z, got, c.want)
		}
	}
}

func TestMaxOffsetValidation(t *testing.T) {
	if _, err := MaxOffset(1, 0.05, 0); err == nil {
		t.Error("sigma=0 must error")
	}
	if _, err := MaxOffset(0, 0.05, 1); err == nil {
		t.Error("eps=0 must error")
	}
	if _, err := MaxOffset(1, 0, 1); err == nil {
		t.Error("delta=0 must error")
	}
	if _, err := MaxOffset(1, 1, 1); err == nil {
		t.Error("delta=1 must error")
	}
}

func TestMaxOffsetNoSolution(t *testing.T) {
	// With sigma huge relative to eps, even w=0 fails: coverage(0,a) =
	// 2Φ(a)−1 ≈ a·√(2/π) → tiny.
	_, err := MaxOffset(1, 0.05, 100)
	if err != ErrNoSolution {
		t.Errorf("want ErrNoSolution, got %v", err)
	}
}

// The defining equation must hold at the returned offset.
func TestMaxOffsetSolvesEquation(t *testing.T) {
	for _, c := range []struct{ eps, delta, sigma float64 }{
		{10, 0.05, 1},
		{10, 0.05, 3},
		{1, 0.1, 0.3},
		{5, 0.01, 1.5},
		{2, 0.5, 1},
	} {
		w, err := MaxOffset(c.eps, c.delta, c.sigma)
		if err != nil {
			t.Fatalf("MaxOffset(%+v): %v", c, err)
		}
		got := Phi((w+c.eps)/c.sigma) - Phi((w-c.eps)/c.sigma)
		if math.Abs(got-(1-c.delta)) > 1e-9 {
			t.Errorf("coverage at w=%v is %v want %v (case %+v)", w, got, 1-c.delta, c)
		}
	}
}

// Monotonicity: w grows with eps, shrinks as delta shrinks, shrinks with
// noisier sigma (for fixed eps).
func TestMaxOffsetMonotonicity(t *testing.T) {
	w1, _ := MaxOffset(5, 0.05, 1)
	w2, _ := MaxOffset(10, 0.05, 1)
	if w2 <= w1 {
		t.Errorf("offset must grow with eps: %v vs %v", w1, w2)
	}
	w3, _ := MaxOffset(5, 0.01, 1)
	if w3 >= w1 {
		t.Errorf("offset must shrink as delta shrinks: %v vs %v", w3, w1)
	}
	w4, _ := MaxOffset(5, 0.05, 2)
	if w4 >= w1 {
		t.Errorf("offset must shrink with larger sigma: %v vs %v", w4, w1)
	}
}

// As sigma→0 the measurement becomes exact and w→eps (the deterministic
// tolerance square is recovered).
func TestMaxOffsetDeterministicLimit(t *testing.T) {
	w, err := MaxOffset(10, 0.05, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w-10) > 1e-3 {
		t.Errorf("w = %v want ≈ 10", w)
	}
}

func TestToleranceRect(t *testing.T) {
	m := Measurement{Mean: geom.Pt(50, 80), SigmaX: 1, SigmaY: 2}
	r, err := ToleranceRect(m, 10, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Contains(m.Mean) {
		t.Error("rect must contain the mean")
	}
	// Noisier axis gets a narrower admissible band.
	if r.Height() >= r.Width() {
		t.Errorf("sigmaY > sigmaX should give height < width: w=%v h=%v", r.Width(), r.Height())
	}
	// Both half-widths below eps.
	if r.Width()/2 >= 10 || r.Height()/2 >= 10 {
		t.Error("half-extents must be < eps")
	}
	// Error propagation.
	bad := Measurement{Mean: geom.Pt(0, 0), SigmaX: 100, SigmaY: 1}
	if _, err := ToleranceRect(bad, 1, 0.05); err == nil {
		t.Error("excessive SigmaX must error")
	}
}

func TestToleranceRectOrMin(t *testing.T) {
	bad := Measurement{Mean: geom.Pt(5, 5), SigmaX: 100, SigmaY: 100}
	r := ToleranceRectOrMin(bad, 1, 0.05, 0.5)
	if r != geom.RectAround(geom.Pt(5, 5), 0.5) {
		t.Errorf("fallback rect = %v", r)
	}
	good := Measurement{Mean: geom.Pt(5, 5), SigmaX: 1, SigmaY: 1}
	r2 := ToleranceRectOrMin(good, 10, 0.05, 0.5)
	if r2.Width() <= 1 {
		t.Error("solvable case must not use the fallback")
	}
	// An exact measurement is refused by MaxOffset, but it is not too
	// noisy: it gets the ε square the filters use, not the fallback.
	for _, exact := range []Measurement{
		{Mean: geom.Pt(5, 5), SigmaX: 0, SigmaY: 1},
		{Mean: geom.Pt(5, 5), SigmaX: 1, SigmaY: 0},
	} {
		if r := ToleranceRectOrMin(exact, 10, 0.05, 0.5); r != geom.RectAround(geom.Pt(5, 5), 10) {
			t.Errorf("σ (%v, %v): rect = %v, want the ε square", exact.SigmaX, exact.SigmaY, r)
		}
	}
	if r := ToleranceRectOrMin(good, 10, 0, 0.5); r != geom.RectAround(geom.Pt(5, 5), 10) {
		t.Errorf("δ = 0: rect = %v, want the ε square", r)
	}
}

// Monte-Carlo check: a point at the boundary offset really does contain the
// true location with probability ≈ 1−δ.
func TestMaxOffsetMonteCarlo(t *testing.T) {
	const (
		eps   = 10.0
		delta = 0.10
		sigma = 4.0
		n     = 200000
	)
	w, err := MaxOffset(eps, delta, sigma)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	hits := 0
	for i := 0; i < n; i++ {
		x := rng.NormFloat64() * sigma // true deviation from mean
		if math.Abs(x-w) <= eps {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-(1-delta)) > 0.005 {
		t.Errorf("empirical coverage %v want %v", got, 1-delta)
	}
}

// A filter solves its tolerance once, for its σ; centred on any point,
// its half-widths must give bit for bit the rectangle ToleranceRectOrMin
// solves there, the ε/10 fallback square included (σ = 2.5 and 40 have
// no solution at ε = 5, δ = 0.05). Exact measurements, and any with
// δ = 0, get the plain ε square.
func TestHalfWidthsMatchPerPointSolve(t *testing.T) {
	const eps, delta = 5.0, 0.05
	rng := rand.New(rand.NewSource(3))
	sigmas := []float64{1e-9, 0.1, 1, 2, 2.2, 2.5, 40}
	points := []geom.Point{geom.Pt(0, 0), geom.Pt(math.Copysign(0, -1), 1<<53), geom.Pt(-(1 << 53), 0.1)}
	for range 50 {
		points = append(points, geom.Pt(rng.NormFloat64()*1e4, rng.Float64()*4e6))
	}
	same := func(a, b geom.Rect) bool {
		bits := math.Float64bits
		return bits(a.Lo.X) == bits(b.Lo.X) && bits(a.Lo.Y) == bits(b.Lo.Y) &&
			bits(a.Hi.X) == bits(b.Hi.X) && bits(a.Hi.Y) == bits(b.Hi.Y)
	}
	around := func(p, h geom.Point) geom.Rect { return geom.Rect{Lo: p.Sub(h), Hi: p.Add(h)} }
	for _, sx := range sigmas {
		for _, sy := range sigmas {
			h := HalfWidths(eps, delta, sx, sy)
			for _, p := range points {
				want := ToleranceRectOrMin(Measurement{Mean: p, SigmaX: sx, SigmaY: sy}, eps, delta, eps/10)
				if got := around(p, h); !same(got, want) {
					t.Fatalf("σ (%v, %v) at %v: %v, want %v", sx, sy, p, got, want)
				}
			}
		}
	}
	for _, c := range []struct{ delta, sx, sy float64 }{{delta, 0, 0}, {delta, 0, 1}, {0, 1, 1}, {0, 0, 0}} {
		h := HalfWidths(eps, c.delta, c.sx, c.sy)
		for _, p := range points {
			if got, want := around(p, h), geom.RectAround(p, eps); !same(got, want) {
				t.Fatalf("δ %v, σ (%v, %v) at %v: %v, want the ε square %v", c.delta, c.sx, c.sy, p, got, want)
			}
		}
	}
}
