// Package dp implements the Douglas-Peucker family of trajectory
// simplifiers used by the paper as its competitor (Sections 2 and 6):
//
//   - Simplify: the classic offline, recursive Douglas-Peucker line
//     generalisation [Douglas & Peucker 1973].
//   - OpeningWindow: the on-line windowed adaptation of Meratnia & de By
//     (EDBT 2004), with both endpoint-fixing policies: NOPW (conservative —
//     break at the most deviant location) and BOPW (eager — break at the
//     location just before the floating endpoint).
//   - HotSegments: the paper's DP benchmark (Section 6): emitted segments
//     are reused when an existing segment lies completely within the
//     candidate's ε-expanded MBB, otherwise inserted with hotness 1; time
//     is ignored, hotness still slides out of the window W.
package dp

import (
	"fmt"

	"hotpaths/internal/geom"
	"hotpaths/internal/trajectory"
)

// Simplify applies the classic offline Douglas-Peucker algorithm: it keeps
// the subset of input vertices whose removal would leave some dropped
// vertex farther than eps (perpendicular segment distance) from the
// simplified polyline. The first and last points are always kept.
func Simplify(pts []geom.Point, eps float64) []geom.Point {
	if len(pts) <= 2 {
		out := make([]geom.Point, len(pts))
		copy(out, pts)
		return out
	}
	keep := make([]bool, len(pts))
	keep[0], keep[len(pts)-1] = true, true
	simplifyRange(pts, 0, len(pts)-1, eps, keep)
	var out []geom.Point
	for i, k := range keep {
		if k {
			out = append(out, pts[i])
		}
	}
	return out
}

func simplifyRange(pts []geom.Point, lo, hi int, eps float64, keep []bool) {
	if hi-lo < 2 {
		return
	}
	seg := geom.Seg(pts[lo], pts[hi])
	maxD, maxI := -1.0, -1
	for i := lo + 1; i < hi; i++ {
		if d := seg.DistToPoint(pts[i]); d > maxD {
			maxD, maxI = d, i
		}
	}
	if maxD <= eps {
		return
	}
	keep[maxI] = true
	simplifyRange(pts, lo, maxI, eps, keep)
	simplifyRange(pts, maxI, hi, eps, keep)
}

// Policy selects how the opening-window algorithm fixes a segment endpoint
// when the tolerance is violated.
type Policy int

const (
	// NOPW (normal opening window) breaks at the location that caused the
	// violation: the buffered point with the greatest distance from the
	// candidate segment.
	NOPW Policy = iota
	// BOPW (before opening window) breaks at the location just before the
	// floating endpoint.
	BOPW
)

func (p Policy) String() string {
	if p == BOPW {
		return "BOPW"
	}
	return "NOPW"
}

// Emitted is a simplified trajectory segment produced by the opening-window
// algorithm, with the timestamps of its two endpoints.
type Emitted struct {
	Seg    geom.Segment
	Ts, Te trajectory.Time
}

// OpeningWindow is the on-line windowed Douglas-Peucker simplifier. Feed it
// timepoints in order; it emits a segment whenever the window can no longer
// be approximated by a single segment within eps.
//
// Unlike RayTrace, the endpoints of emitted segments are always input
// locations (the method "is constrained to choose a subset of the reported
// locations as endpoints"), and the per-point cost is linear in the window
// length (every buffered point is re-checked against the new candidate
// segment).
type OpeningWindow struct {
	eps    float64
	policy Policy
	win    []trajectory.TimePoint // win[0] is the anchor
}

// NewOpeningWindow returns a simplifier with the given tolerance and
// endpoint policy.
func NewOpeningWindow(eps float64, policy Policy) (*OpeningWindow, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("dp: eps must be positive, got %v", eps)
	}
	if policy != NOPW && policy != BOPW {
		return nil, fmt.Errorf("dp: unknown policy %d", policy)
	}
	return &OpeningWindow{eps: eps, policy: policy}, nil
}

// Process consumes one timepoint and returns any segments emitted as a
// consequence (usually zero or one; a violation can cascade when the
// remaining window again violates immediately).
func (w *OpeningWindow) Process(tp trajectory.TimePoint) ([]Emitted, error) {
	if n := len(w.win); n > 0 && tp.T <= w.win[n-1].T {
		return nil, fmt.Errorf("dp: non-increasing timestamp %d after %d", tp.T, w.win[n-1].T)
	}
	w.win = append(w.win, tp)
	var out []Emitted
	for {
		emitted, again := w.check()
		if emitted != nil {
			out = append(out, *emitted)
		}
		if !again {
			return out, nil
		}
	}
}

// check tests the current window against the candidate segment
// anchor→latest. It returns a segment if the policy fixed one, and whether
// the (shrunk) window must be re-checked.
func (w *OpeningWindow) check() (*Emitted, bool) {
	n := len(w.win)
	if n < 3 {
		return nil, false
	}
	anchor, float := w.win[0], w.win[n-1]
	cand := geom.Seg(anchor.P, float.P)
	maxD, maxI := -1.0, -1
	for i := 1; i < n-1; i++ {
		if d := cand.DistToPoint(w.win[i].P); d > maxD {
			maxD, maxI = d, i
		}
	}
	if maxD <= w.eps {
		return nil, false
	}
	// Violation: fix an endpoint per policy.
	breakI := maxI // NOPW: the most deviant location
	if w.policy == BOPW {
		breakI = n - 2 // the location just before the floating endpoint
	}
	em := &Emitted{
		Seg: geom.Seg(anchor.P, w.win[breakI].P),
		Ts:  anchor.T,
		Te:  w.win[breakI].T,
	}
	// The break point becomes the new anchor; everything after it stays in
	// the window and must be re-validated.
	w.win = append([]trajectory.TimePoint{}, w.win[breakI:]...)
	return em, len(w.win) >= 3
}

// Flush emits the remaining window as a final segment, if it holds at least
// two points, and resets the window.
func (w *OpeningWindow) Flush() (Emitted, bool) {
	n := len(w.win)
	if n < 2 {
		w.win = nil
		return Emitted{}, false
	}
	em := Emitted{
		Seg: geom.Seg(w.win[0].P, w.win[n-1].P),
		Ts:  w.win[0].T,
		Te:  w.win[n-1].T,
	}
	w.win = nil
	return em, true
}
