package overlap

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"hotpaths/internal/geom"
)

// referenceDeepestWithin is DeepestWithin as it was before the sweep sorted
// once per query: every strip filters the clipped rectangles and sorts its
// own y events. It is the differential oracle for the sort-once sweep.
func referenceDeepestWithin(s *Set, q geom.Rect) (geom.Point, int) {
	if q.Empty() {
		return geom.Point{}, 0
	}
	var clipped []geom.Rect
	for _, i := range referenceCandidates(s, q) {
		c := s.rects[i].Intersect(q)
		if !c.Empty() {
			clipped = append(clipped, c)
		}
	}
	if len(clipped) == 0 {
		return q.Centroid(), 0
	}
	xs := make([]float64, 0, 2*len(clipped))
	for _, c := range clipped {
		xs = append(xs, c.Lo.X, c.Hi.X)
	}
	sort.Float64s(xs)
	xs = dedup(xs)

	bestDepth := 0
	var bestPt geom.Point
	consider := func(depth int, pt geom.Point) {
		if depth > bestDepth {
			bestDepth = depth
			bestPt = pt
		}
	}
	for i := 0; i < len(xs); i++ {
		referenceSweepStrip(clipped, xs[i], xs[i], consider)
		if i+1 < len(xs) {
			referenceSweepStrip(clipped, xs[i], xs[i+1], consider)
		}
	}
	if bestDepth == 0 {
		return q.Centroid(), 0
	}
	return bestPt, bestDepth
}

func referenceCandidates(s *Set, q geom.Rect) []int32 {
	c0, r0, c1, r1 := s.cellRange(q)
	seen := make(map[int32]struct{})
	var out []int32
	for row := r0; row <= r1; row++ {
		for col := c0; col <= c1; col++ {
			for _, i := range s.bucket(col, row) {
				if _, dup := seen[i]; dup {
					continue
				}
				seen[i] = struct{}{}
				out = append(out, i)
			}
		}
	}
	return out
}

func referenceSweepStrip(clipped []geom.Rect, x0, x1 float64, consider func(int, geom.Point)) {
	type yev struct {
		y     float64
		delta int
	}
	var evs []yev
	for _, c := range clipped {
		if c.Lo.X <= x0 && c.Hi.X >= x1 {
			evs = append(evs, yev{c.Lo.Y, +1}, yev{c.Hi.Y, -1})
		}
	}
	if len(evs) == 0 {
		return
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].y != evs[j].y {
			return evs[i].y < evs[j].y
		}
		return evs[i].delta > evs[j].delta
	})
	depth := 0
	xmid := (x0 + x1) / 2
	for i, e := range evs {
		depth += e.delta
		if e.delta != +1 {
			continue
		}
		yStart := e.y
		yEnd := yStart
		if i+1 < len(evs) {
			yEnd = evs[i+1].y
		}
		consider(depth, geom.Pt(xmid, (yStart+yEnd)/2))
	}
}

// checkAgainstReference requires DeepestWithin to return the reference's
// depth and point, the point compared by its bits.
func checkAgainstReference(t *testing.T, s *Set, q geom.Rect) {
	t.Helper()
	gotPt, gotDepth := s.DeepestWithin(q)
	wantPt, wantDepth := referenceDeepestWithin(s, q)
	if gotDepth != wantDepth || !sameBits(gotPt, wantPt) {
		t.Fatalf("DeepestWithin(%v) over %v = %v depth %d, reference %v depth %d",
			q, s.rects, gotPt, gotDepth, wantPt, wantDepth)
	}
}

func sameBits(a, b geom.Point) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) && math.Float64bits(a.Y) == math.Float64bits(b.Y)
}

// arrangement draws one of the shapes the sweep's tie handling depends on:
// rectangles on a coarse lattice (touching edges, shared breakpoints),
// zero-width and zero-height slivers, rectangles nested in one another, and
// unconstrained random ones.
func arrangement(rng *rand.Rand) (rects []geom.Rect, q geom.Rect) {
	lattice := func() float64 { return float64(rng.Intn(9)) * 2.5 }
	n := 1 + rng.Intn(14)
	for i := 0; i < n; i++ {
		var r geom.Rect
		switch rng.Intn(5) {
		case 0: // on the lattice: edges touch and breakpoints coincide
			r = geom.RectFromPoints(geom.Pt(lattice(), lattice()), geom.Pt(lattice(), lattice()))
		case 1: // a vertical sliver
			x := lattice()
			r = geom.Rect{Lo: geom.Pt(x, lattice()), Hi: geom.Pt(x, 20)}
		case 2: // a horizontal sliver
			y := lattice()
			r = geom.Rect{Lo: geom.Pt(lattice(), y), Hi: geom.Pt(20, y)}
		case 3: // nested inside the previous one
			if len(rects) > 0 {
				p := rects[len(rects)-1]
				f := rng.Float64() / 2
				r = geom.Rect{
					Lo: geom.Pt(p.Lo.X+p.Width()*f/2, p.Lo.Y+p.Height()*f/2),
					Hi: geom.Pt(p.Hi.X-p.Width()*f/2, p.Hi.Y-p.Height()*f/2),
				}
				break
			}
			fallthrough
		default:
			lo := geom.Pt(rng.Float64()*20, rng.Float64()*20)
			r = geom.Rect{Lo: lo, Hi: lo.Add(geom.Pt(rng.Float64()*12, rng.Float64()*12))}
		}
		rects = append(rects, r)
	}
	if rng.Intn(3) == 0 {
		q = geom.RectFromPoints(geom.Pt(lattice(), lattice()), geom.Pt(lattice(), lattice()))
	} else {
		lo := geom.Pt(rng.Float64()*15-2, rng.Float64()*15-2)
		q = geom.Rect{Lo: lo, Hi: lo.Add(geom.Pt(rng.Float64()*20, rng.Float64()*20))}
	}
	return rects, q
}

// Property: across random arrangements, the sort-once sweep finds the
// reference's depth and point bit for bit — also when one Set is Reset
// and refilled, as the coordinator reuses it every epoch.
func TestDeepestWithinMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	s := mustSet(t, 5)
	for trial := 0; trial < 5000; trial++ {
		s.Reset()
		rects, q := arrangement(rng)
		for _, r := range rects {
			s.Add(r)
		}
		checkAgainstReference(t, s, q)
		for _, r := range rects { // every FSA queries its own area too
			checkAgainstReference(t, s, r)
		}
	}
}

// A signed zero is the one input where "equal (y, delta) events are
// interchangeable" holds only up to the sign: -0 and +0 compare equal, so
// either implementation may meet them in either order. The depth and the
// point's value must still agree (the coordinator looks the point's cell up
// by comparison, which cannot tell the two zeros apart).
func TestDeepestWithinSignedZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	s := mustSet(t, 5)
	s.Add(geom.Rect{Lo: geom.Pt(0, negZero), Hi: geom.Pt(4, 4)})
	s.Add(geom.Rect{Lo: geom.Pt(1, -3), Hi: geom.Pt(5, 0)})
	s.Add(geom.Rect{Lo: geom.Pt(2, negZero), Hi: geom.Pt(3, negZero)})
	for _, q := range []geom.Rect{
		{Lo: geom.Pt(0, -5), Hi: geom.Pt(5, 5)},
		{Lo: geom.Pt(2, negZero), Hi: geom.Pt(3, 0)},
	} {
		gotPt, gotDepth := s.DeepestWithin(q)
		wantPt, wantDepth := referenceDeepestWithin(s, q)
		if gotDepth != wantDepth || !gotPt.Eq(wantPt) {
			t.Errorf("DeepestWithin(%v) = %v depth %d, reference %v depth %d", q, gotPt, gotDepth, wantPt, wantDepth)
		}
	}
}

// FuzzDeepestWithin reads the query and then one rectangle per four bytes,
// each byte a coordinate on a quarter-unit lattice: corners collide often,
// so touching edges, shared breakpoints, zero-width and zero-height
// rectangles and nesting are the common case rather than the rare one.
// The sweep must return the reference's depth and point, by bits.
func FuzzDeepestWithin(f *testing.F) {
	f.Add([]byte{0, 0, 40, 40, 0, 0, 20, 20, 20, 0, 40, 20})                    // touching along x=5
	f.Add([]byte{0, 0, 80, 80, 8, 8, 8, 30, 8, 8, 30, 8, 0, 0, 40, 40})         // slivers on a shared corner
	f.Add([]byte{10, 10, 60, 60, 0, 0, 80, 80, 10, 10, 70, 70, 20, 20, 60, 60}) // nested
	f.Add([]byte{5, 5, 5, 5, 5, 5, 5, 5})                                       // a point query on a point
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		rect := func(b []byte) geom.Rect {
			return geom.RectFromPoints(
				geom.Pt(float64(b[0])/4, float64(b[1])/4),
				geom.Pt(float64(b[2])/4, float64(b[3])/4))
		}
		q := rect(data)
		s := mustSet(t, 5)
		for b := data[4:]; len(b) >= 4; b = b[4:] {
			s.Add(rect(b))
		}
		checkAgainstReference(t, s, q)
	})
}

// A warm DeepestWithin allocates nothing: its clip, breakpoint and event
// lists, and the candidate stamps, are scratch on the Set.
func TestDeepestWithinAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := mustSet(t, 20)
	for i := 0; i < 2000; i++ {
		cx := float64(rng.Intn(50)) * 200
		cy := float64(rng.Intn(50)) * 200
		lo := geom.Pt(cx+rng.Float64()*30, cy+rng.Float64()*30)
		s.Add(geom.Rect{Lo: lo, Hi: lo.Add(geom.Pt(20, 20))})
	}
	qs := make([]geom.Rect, 64)
	for i := range qs {
		cx := float64(rng.Intn(50)) * 200
		qs[i] = geom.Rect{Lo: geom.Pt(cx, cx), Hi: geom.Pt(cx+60, cx+60)}
	}
	for _, q := range qs { // warm the scratch to its high-water mark
		s.DeepestWithin(q)
	}
	i := 0
	if allocs := testing.AllocsPerRun(200, func() {
		s.DeepestWithin(qs[i%len(qs)])
		s.Cell(qs[i%len(qs)].Centroid())
		i++
	}); allocs != 0 {
		t.Errorf("warm DeepestWithin + Cell allocate %v times per call, want 0", allocs)
	}
}
