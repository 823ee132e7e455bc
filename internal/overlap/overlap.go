// Package overlap analyses the arrangement of the final safe areas (FSAs)
// of a batch of reporting objects, supporting the Rall structure of the
// SinglePath strategy (paper Section 5.3, Algorithm 2 lines 8–12, 23–34).
//
// Two queries are provided:
//
//   - StabCount(p): how many rectangles contain p. The smallest
//     intersection region containing p is exactly the intersection of all
//     rectangles containing p, so its count equals the stabbing number —
//     this implements line 24–25 without materialising the (potentially
//     exponential) set of intersection regions.
//
//   - DeepestWithin(q): an exact maximum-depth point of the rectangle
//     arrangement restricted to q, with its depth. This implements the
//     choice of the hottest overlap region Rm (lines 27–34): the returned
//     point is the centroid of a deepest cell. The nearby rectangles' y
//     events are sorted once per query; every vertical strip then sweeps
//     the subsequence of rectangles spanning it, which is already sorted.
//
// A uniform spatial hash bucketises rectangles so that both queries touch
// only nearby rectangles; FSAs are small (at most one tolerance square), so
// batches of many thousands of objects stay fast. A Set is rebuilt every
// epoch: Reset empties it and keeps its memory, so a coordinator reusing
// one Set allocates nothing once it has seen its largest batch.
package overlap

import (
	"fmt"
	"math"
	"slices"

	"hotpaths/internal/geom"
)

// Set is a batch of rectangles. It is built once per epoch and queried many
// times; it is not safe for concurrent use, queries included (they share
// the Set's scratch space).
type Set struct {
	rects    []geom.Rect
	cellSize float64
	buckets  map[[2]int]int32 // cell -> index into lists
	// lists[:used] are the live buckets' rectangle indices. Reset keeps
	// the arrays behind lists[used:] for the next epoch's buckets.
	lists [][]int32
	used  int

	// Query scratch. stamp[i] == gen marks rectangle i as already gathered
	// by the current query.
	stamp []uint32
	gen   uint32
	cands []int32
	xs    []float64
	evs   []yEvent
}

// yEvent is where a rectangle clipped to the query opens (+1) or closes
// (−1) along y, with the x extent that decides which strips it spans.
type yEvent struct {
	y      float64
	delta  int
	lo, hi float64
}

// NewSet creates a set with the given bucket cell size, which should be on
// the order of the typical rectangle diameter (e.g. 2ε for FSAs).
func NewSet(cellSize float64) (*Set, error) {
	if cellSize <= 0 || math.IsNaN(cellSize) || math.IsInf(cellSize, 0) {
		return nil, fmt.Errorf("overlap: cell size must be positive and finite, got %v", cellSize)
	}
	return &Set{cellSize: cellSize, buckets: make(map[[2]int]int32)}, nil
}

// Len returns the number of rectangles in the set.
func (s *Set) Len() int { return len(s.rects) }

// Reset empties the set, keeping its memory for the next batch.
func (s *Set) Reset() {
	s.rects = s.rects[:0]
	clear(s.buckets)
	s.used = 0
}

func (s *Set) cellRange(r geom.Rect) (c0, r0, c1, r1 int) {
	c0 = int(math.Floor(r.Lo.X / s.cellSize))
	r0 = int(math.Floor(r.Lo.Y / s.cellSize))
	c1 = int(math.Floor(r.Hi.X / s.cellSize))
	r1 = int(math.Floor(r.Hi.Y / s.cellSize))
	return
}

// bucket returns the indices of the rectangles overlapping cell (col,row).
func (s *Set) bucket(col, row int) []int32 {
	if b, ok := s.buckets[[2]int{col, row}]; ok {
		return s.lists[b]
	}
	return nil
}

// bucketAt is the bucket of the cell containing p.
func (s *Set) bucketAt(p geom.Point) []int32 {
	return s.bucket(int(math.Floor(p.X/s.cellSize)), int(math.Floor(p.Y/s.cellSize)))
}

// Add inserts a rectangle. Invalid (empty) rectangles are ignored.
func (s *Set) Add(r geom.Rect) {
	if r.Empty() {
		return
	}
	idx := int32(len(s.rects))
	s.rects = append(s.rects, r)
	c0, r0, c1, r1 := s.cellRange(r)
	for row := r0; row <= r1; row++ {
		for col := c0; col <= c1; col++ {
			key := [2]int{col, row}
			b, ok := s.buckets[key]
			if !ok {
				if s.used == len(s.lists) {
					s.lists = append(s.lists, nil)
				}
				b = int32(s.used)
				s.lists[b] = s.lists[b][:0]
				s.used++
				s.buckets[key] = b
			}
			s.lists[b] = append(s.lists[b], idx)
		}
	}
}

// candidates returns indices of rectangles whose buckets overlap q,
// deduplicated, in first-seen order. The slice is scratch, valid until the
// next query.
func (s *Set) candidates(q geom.Rect) []int32 {
	if n := len(s.rects); len(s.stamp) < n {
		s.stamp = append(s.stamp, make([]uint32, n-len(s.stamp))...)
	}
	s.gen++
	if s.gen == 0 { // wrapped: old stamps could alias the new generation
		clear(s.stamp)
		s.gen = 1
	}
	c0, r0, c1, r1 := s.cellRange(q)
	out := s.cands[:0]
	for row := r0; row <= r1; row++ {
		for col := c0; col <= c1; col++ {
			for _, i := range s.bucket(col, row) {
				if s.stamp[i] == s.gen {
					continue
				}
				s.stamp[i] = s.gen
				out = append(out, i)
			}
		}
	}
	s.cands = out
	return out
}

// StabCount returns the number of rectangles containing p (inclusive).
func (s *Set) StabCount(p geom.Point) int {
	n := 0
	for _, i := range s.bucketAt(p) {
		if s.rects[i].Contains(p) {
			n++
		}
	}
	return n
}

// Cell returns the smallest intersection region containing p — the
// intersection of every rectangle in the set that contains p — together
// with the number of such rectangles. When no rectangle contains p it
// returns an empty rect and 0.
//
// The cell is a property of the arrangement alone (not of any query
// window), so two objects whose deepest points land in the same cell
// compute the exact same rectangle — and hence the same centroid vertex.
func (s *Set) Cell(p geom.Point) (geom.Rect, int) {
	var cell geom.Rect
	n := 0
	for _, i := range s.bucketAt(p) {
		r := s.rects[i]
		if !r.Contains(p) {
			continue
		}
		if n == 0 {
			cell = r
		} else {
			cell = cell.Intersect(r)
		}
		n++
	}
	if n == 0 {
		return geom.Rect{Lo: geom.Pt(1, 1), Hi: geom.Pt(0, 0)}, 0
	}
	return cell, n
}

// DeepestWithin returns a point inside q covered by the maximum number of
// rectangles in the set, together with that count. If no rectangle
// intersects q it returns q's centroid with count 0.
//
// The computation is exact: rectangles are clipped to q, their x
// coordinates partition q into vertical strips, and within each strip a
// 1-D sweep over y events finds the deepest interval. The returned point is
// the centroid of one deepest cell, which keeps it strictly inside the
// deepest region whenever that region has positive area.
//
// The y events of all clipped rectangles are sorted once, by y with
// openings before closings; a strip keeps the events of the rectangles
// spanning it. A filtered sorted list is the sorted filtered list, and
// events with equal (y, delta) are interchangeable in the sweep, so this
// finds the same point, bit for bit, as sorting each strip's own events.
func (s *Set) DeepestWithin(q geom.Rect) (geom.Point, int) {
	if q.Empty() {
		return geom.Point{}, 0
	}
	xs, evs := s.xs[:0], s.evs[:0]
	for _, i := range s.candidates(q) {
		c := s.rects[i].Intersect(q)
		if c.Empty() {
			continue
		}
		xs = append(xs, c.Lo.X, c.Hi.X)
		evs = append(evs, yEvent{c.Lo.Y, +1, c.Lo.X, c.Hi.X}, yEvent{c.Hi.Y, -1, c.Lo.X, c.Hi.X})
	}
	s.xs, s.evs = xs, evs
	if len(evs) == 0 {
		return q.Centroid(), 0
	}
	slices.Sort(xs)
	xs = dedup(xs)
	// At equal y, openings (+1) sort before closings (−1) so that
	// rectangles touching at a single y line still count as overlapping
	// (bounds are inclusive).
	slices.SortFunc(evs, func(a, b yEvent) int {
		switch {
		case a.y < b.y:
			return -1
		case a.y > b.y:
			return +1
		}
		return b.delta - a.delta
	})

	bestDepth := 0
	var bestPt geom.Point
	// Examine every strip [xs[i], xs[i+1]] and every degenerate strip
	// {xs[i]} (degenerate strips matter when rectangles touch only along a
	// vertical line).
	for i, x := range xs {
		bestDepth, bestPt = sweepStrip(evs, x, x, bestDepth, bestPt)
		if i+1 < len(xs) {
			bestDepth, bestPt = sweepStrip(evs, x, xs[i+1], bestDepth, bestPt)
		}
	}
	if bestDepth == 0 {
		return q.Centroid(), 0
	}
	return bestPt, bestDepth
}

// sweepStrip sweeps the sorted events of the rectangles spanning the whole
// x strip [x0,x1] and returns the deepest y interval's depth and the
// centroid of its cell if it is deeper than bestDepth, else the best
// passed in.
func sweepStrip(evs []yEvent, x0, x1 float64, bestDepth int, bestPt geom.Point) (int, geom.Point) {
	xmid := (x0 + x1) / 2
	depth := 0
	// An opening's depth holds from its y until the next kept event's y,
	// so it is measured when that event arrives (or at its own y if none
	// does).
	open := false
	var yStart float64
	for _, e := range evs {
		if !(e.lo <= x0 && e.hi >= x1) {
			continue
		}
		if open && depth > bestDepth {
			bestDepth, bestPt = depth, geom.Pt(xmid, (yStart+e.y)/2)
		}
		depth += e.delta
		open, yStart = e.delta == +1, e.y
	}
	if open && depth > bestDepth {
		bestDepth, bestPt = depth, geom.Pt(xmid, (yStart+yStart)/2)
	}
	return bestDepth, bestPt
}

func dedup(xs []float64) []float64 {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}
