// Package trajectory models moving-object trajectories as sequences of
// timestamped locations ("timepoints") over discrete time, with the linear
// interpolation semantics of the paper: between consecutive timepoints the
// object moves with constant velocity.
package trajectory

import (
	"fmt"
	"sort"

	"hotpaths/internal/geom"
)

// Time is a discrete timestamp (a multiple of the system time granule).
type Time int64

// TimePoint is a location paired with the timestamp at which it was taken.
type TimePoint struct {
	P geom.Point
	T Time
}

// TP is shorthand for TimePoint{p, t}.
func TP(p geom.Point, t Time) TimePoint { return TimePoint{P: p, T: t} }

func (tp TimePoint) String() string { return fmt.Sprintf("<%v @%d>", tp.P, tp.T) }

// Trajectory is a time-ordered sequence of timepoints.
type Trajectory struct {
	pts []TimePoint
}

// New returns a trajectory from the given timepoints, which must be in
// strictly increasing timestamp order.
func New(pts ...TimePoint) (*Trajectory, error) {
	for i := 1; i < len(pts); i++ {
		if pts[i].T <= pts[i-1].T {
			return nil, fmt.Errorf("trajectory: timestamps not strictly increasing at index %d (%d after %d)",
				i, pts[i].T, pts[i-1].T)
		}
	}
	cp := make([]TimePoint, len(pts))
	copy(cp, pts)
	return &Trajectory{pts: cp}, nil
}

// MustNew is New but panics on error; intended for tests and literals.
func MustNew(pts ...TimePoint) *Trajectory {
	tr, err := New(pts...)
	if err != nil {
		panic(err)
	}
	return tr
}

// Append adds a timepoint at the end. It returns an error if the timestamp
// does not advance strictly.
func (tr *Trajectory) Append(tp TimePoint) error {
	if n := len(tr.pts); n > 0 && tp.T <= tr.pts[n-1].T {
		return fmt.Errorf("trajectory: non-increasing timestamp %d after %d", tp.T, tr.pts[n-1].T)
	}
	tr.pts = append(tr.pts, tp)
	return nil
}

// Len returns the number of stored timepoints.
func (tr *Trajectory) Len() int { return len(tr.pts) }

// At returns the i-th timepoint.
func (tr *Trajectory) At(i int) TimePoint { return tr.pts[i] }

// Points returns the underlying timepoints (not a copy; treat as read-only).
func (tr *Trajectory) Points() []TimePoint { return tr.pts }

// Start returns the first timepoint; it panics on an empty trajectory.
func (tr *Trajectory) Start() TimePoint { return tr.pts[0] }

// End returns the last timepoint; it panics on an empty trajectory.
func (tr *Trajectory) End() TimePoint { return tr.pts[len(tr.pts)-1] }

// Span returns the first and last timestamps (0,0 for an empty trajectory).
func (tr *Trajectory) Span() (Time, Time) {
	if len(tr.pts) == 0 {
		return 0, 0
	}
	return tr.pts[0].T, tr.pts[len(tr.pts)-1].T
}

// LocationAt returns the interpolated location T(t). The second return is
// false when t falls outside the trajectory's time span.
func (tr *Trajectory) LocationAt(t Time) (geom.Point, bool) {
	n := len(tr.pts)
	if n == 0 || t < tr.pts[0].T || t > tr.pts[n-1].T {
		return geom.Point{}, false
	}
	// Binary search for the first timepoint with timestamp ≥ t.
	i := sort.Search(n, func(i int) bool { return tr.pts[i].T >= t })
	if tr.pts[i].T == t {
		return tr.pts[i].P, true
	}
	a, b := tr.pts[i-1], tr.pts[i]
	lambda := float64(t-a.T) / float64(b.T-a.T)
	return a.P.Lerp(b.P, lambda), true
}

// Sub returns the timepoints with timestamps in [t0, t1], without
// interpolated boundary points.
func (tr *Trajectory) Sub(t0, t1 Time) []TimePoint {
	lo := sort.Search(len(tr.pts), func(i int) bool { return tr.pts[i].T >= t0 })
	hi := sort.Search(len(tr.pts), func(i int) bool { return tr.pts[i].T > t1 })
	return tr.pts[lo:hi]
}

// MBB returns the minimum bounding rectangle of all locations; the zero Rect
// for an empty trajectory.
func (tr *Trajectory) MBB() geom.Rect {
	if len(tr.pts) == 0 {
		return geom.Rect{}
	}
	r := geom.Rect{Lo: tr.pts[0].P, Hi: tr.pts[0].P}
	for _, tp := range tr.pts[1:] {
		r.Lo = r.Lo.Min(tp.P)
		r.Hi = r.Hi.Max(tp.P)
	}
	return r
}

// MotionPath is the paper's core object: a directed segment s→e paired with
// the time interval [Ts,Te] during which an object crosses it. A motion path
// fits an object's movement when the point moving uniformly from S at Ts to
// E at Te stays within tolerance ε of the object at every timestamp.
type MotionPath struct {
	S, E   geom.Point
	Ts, Te Time
}

// Segment returns the path's spatial segment.
func (mp MotionPath) Segment() geom.Segment { return geom.Seg(mp.S, mp.E) }

// Length returns the Euclidean length of the path.
func (mp MotionPath) Length() float64 { return mp.S.Dist(mp.E) }

// Duration returns Te−Ts.
func (mp MotionPath) Duration() Time { return mp.Te - mp.Ts }

// LocationAt returns the crossing point p(λ) at timestamp t, clamped to the
// path's interval.
func (mp MotionPath) LocationAt(t Time) geom.Point {
	if mp.Te == mp.Ts {
		return mp.S
	}
	lambda := float64(t-mp.Ts) / float64(mp.Te-mp.Ts)
	if lambda < 0 {
		lambda = 0
	} else if lambda > 1 {
		lambda = 1
	}
	return mp.S.Lerp(mp.E, lambda)
}

// Fits reports whether the motion path fits the trajectory within tolerance
// eps under the metric m: at every discrete timestamp in [Ts,Te] the
// uniformly-moving point must be within eps of the interpolated trajectory.
func (mp MotionPath) Fits(tr *Trajectory, eps float64, m geom.Metric) bool {
	for t := mp.Ts; t <= mp.Te; t++ {
		loc, ok := tr.LocationAt(t)
		if !ok {
			return false
		}
		if m.Distance(mp.LocationAt(t), loc) > eps {
			return false
		}
	}
	return true
}

func (mp MotionPath) String() string {
	return fmt.Sprintf("%v->%v @[%d,%d]", mp.S, mp.E, mp.Ts, mp.Te)
}

// CoveringSet reports whether the motion paths form a covering motion path
// set for the time range [t0,t1]: consecutive paths must chain exactly (one
// path's end point and timestamp are the next path's start), the first must
// start at t0 and the last end at t1.
func CoveringSet(paths []MotionPath, t0, t1 Time) bool {
	if len(paths) == 0 {
		return t0 == t1
	}
	if paths[0].Ts != t0 || paths[len(paths)-1].Te != t1 {
		return false
	}
	for i := 1; i < len(paths); i++ {
		prev, cur := paths[i-1], paths[i]
		if prev.Te != cur.Ts || !prev.E.Eq(cur.S) {
			return false
		}
	}
	return true
}
