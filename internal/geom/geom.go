// Package geom provides the planar geometry kernel used throughout the
// hot-motion-path system: points, axis-aligned rectangles, directed
// segments, and the distance metrics of the paper (max-distance / L∞ by
// default, Euclidean / L2 as an option).
//
// All coordinates are float64 metres in an arbitrary Cartesian frame.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the xy plane.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns p+q componentwise.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p−q componentwise.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by f.
func (p Point) Scale(f float64) Point { return Point{p.X * f, p.Y * f} }

// Lerp linearly interpolates from p to q; λ=0 gives p, λ=1 gives q.
// The conversions round each product, so no architecture fuses it with
// the sum (the Go spec allows x*y + z to round once otherwise).
func (p Point) Lerp(q Point, lambda float64) Point {
	return Point{p.X + float64(lambda*(q.X-p.X)), p.Y + float64(lambda*(q.Y-p.Y))}
}

// MaxDist returns the L∞ (Chebyshev) distance between p and q. This is the
// paper's default proximity metric.
func (p Point) MaxDist(q Point) float64 {
	return math.Max(math.Abs(p.X-q.X), math.Abs(p.Y-q.Y))
}

// Dist returns the Euclidean (L2) distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Eq reports whether p and q are exactly equal.
func (p Point) Eq(q Point) bool { return p.X == q.X && p.Y == q.Y }

// Min returns the componentwise minimum of p and q.
func (p Point) Min(q Point) Point {
	return Point{math.Min(p.X, q.X), math.Min(p.Y, q.Y)}
}

// Max returns the componentwise maximum of p and q.
func (p Point) Max(q Point) Point {
	return Point{math.Max(p.X, q.X), math.Max(p.Y, q.Y)}
}

func (p Point) String() string { return fmt.Sprintf("(%.3f, %.3f)", p.X, p.Y) }

// Metric selects a distance function.
type Metric int

const (
	// LInf is the max-distance metric used by the paper.
	LInf Metric = iota
	// L2 is the Euclidean metric.
	L2
)

// Distance computes the distance between p and q under the metric.
func (m Metric) Distance(p, q Point) float64 {
	if m == L2 {
		return p.Dist(q)
	}
	return p.MaxDist(q)
}

func (m Metric) String() string {
	if m == L2 {
		return "L2"
	}
	return "LInf"
}

// Rect is an axis-aligned rectangle with inclusive bounds Lo ≤ Hi.
// The zero Rect is the degenerate rectangle at the origin.
type Rect struct {
	Lo, Hi Point
}

// RectAround returns the tolerance square of side 2·eps centred at p
// (the paper's "tolerance square Q").
func RectAround(p Point, eps float64) Rect {
	d := Point{eps, eps}
	return Rect{Lo: p.Sub(d), Hi: p.Add(d)}
}

// RectFromPoints returns the minimum bounding rectangle of the points.
// It panics on an empty slice.
func RectFromPoints(pts ...Point) Rect {
	if len(pts) == 0 {
		panic("geom: RectFromPoints with no points")
	}
	r := Rect{Lo: pts[0], Hi: pts[0]}
	for _, p := range pts[1:] {
		r.Lo = r.Lo.Min(p)
		r.Hi = r.Hi.Max(p)
	}
	return r
}

// Valid reports whether Lo ≤ Hi on both axes.
func (r Rect) Valid() bool { return r.Lo.X <= r.Hi.X && r.Lo.Y <= r.Hi.Y }

// Empty reports whether the rectangle encloses no area and no point
// (i.e. it is invalid). A degenerate rectangle (a point or a segment)
// is not empty.
func (r Rect) Empty() bool { return !r.Valid() }

// Width returns the x extent.
func (r Rect) Width() float64 { return r.Hi.X - r.Lo.X }

// Height returns the y extent.
func (r Rect) Height() float64 { return r.Hi.Y - r.Lo.Y }

// Area returns the rectangle's area; 0 for degenerate or invalid rects.
func (r Rect) Area() float64 {
	if !r.Valid() {
		return 0
	}
	return r.Width() * r.Height()
}

// Centroid returns the centre point.
func (r Rect) Centroid() Point {
	return Point{(r.Lo.X + r.Hi.X) / 2, (r.Lo.Y + r.Hi.Y) / 2}
}

// Contains reports whether p lies inside r (inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Lo.X && p.X <= r.Hi.X && p.Y >= r.Lo.Y && p.Y <= r.Hi.Y
}

// ContainsRect reports whether s lies entirely inside r (inclusive).
func (r Rect) ContainsRect(s Rect) bool {
	return r.Contains(s.Lo) && r.Contains(s.Hi)
}

// Intersects reports whether r and s share at least one point.
func (r Rect) Intersects(s Rect) bool {
	return r.Lo.X <= s.Hi.X && s.Lo.X <= r.Hi.X &&
		r.Lo.Y <= s.Hi.Y && s.Lo.Y <= r.Hi.Y
}

// Intersect returns the intersection of r and s. If they do not intersect
// the result is invalid (Empty() is true).
func (r Rect) Intersect(s Rect) Rect {
	return Rect{Lo: r.Lo.Max(s.Lo), Hi: r.Hi.Min(s.Hi)}
}

// Expand grows the rectangle by d on every side (shrinks for d<0).
func (r Rect) Expand(d float64) Rect {
	dd := Point{d, d}
	return Rect{Lo: r.Lo.Sub(dd), Hi: r.Hi.Add(dd)}
}

// Lerp interpolates between the rectangle's corners: λ=0 yields the
// degenerate rectangle {p,p}, λ=1 yields r itself. It is used to project
// the SSA pyramid with apex p onto intermediate timestamps.
func (r Rect) Lerp(apex Point, lambda float64) Rect {
	return Rect{
		Lo: apex.Lerp(r.Lo, lambda),
		Hi: apex.Lerp(r.Hi, lambda),
	}
}

func (r Rect) String() string {
	return fmt.Sprintf("[%v - %v]", r.Lo, r.Hi)
}

// Segment is a directed line segment from A to B.
type Segment struct {
	A, B Point
}

// Seg is shorthand for Segment{a, b}.
func Seg(a, b Point) Segment { return Segment{A: a, B: b} }

// Length returns the Euclidean length of the segment.
func (s Segment) Length() float64 { return s.A.Dist(s.B) }

// At returns the point A + λ(B−A).
func (s Segment) At(lambda float64) Point { return s.A.Lerp(s.B, lambda) }

// MBB returns the segment's minimum bounding rectangle.
func (s Segment) MBB() Rect { return RectFromPoints(s.A, s.B) }

// Reverse returns the segment with its direction flipped.
func (s Segment) Reverse() Segment { return Segment{A: s.B, B: s.A} }

// DistToPoint returns the minimum Euclidean distance from p to the segment.
// The conversions round each product before the sum (see Point.Lerp).
func (s Segment) DistToPoint(p Point) float64 {
	d := s.B.Sub(s.A)
	len2 := float64(d.X*d.X) + float64(d.Y*d.Y)
	if len2 == 0 {
		return s.A.Dist(p)
	}
	t := (float64((p.X-s.A.X)*d.X) + float64((p.Y-s.A.Y)*d.Y)) / len2
	t = math.Max(0, math.Min(1, t))
	return s.At(t).Dist(p)
}

func (s Segment) String() string { return fmt.Sprintf("%v->%v", s.A, s.B) }
