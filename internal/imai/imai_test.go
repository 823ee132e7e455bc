package imai

import (
	"math/rand"
	"testing"

	"hotpaths/internal/geom"
	"hotpaths/internal/raytrace"
	"hotpaths/internal/trajectory"
)

func tp(x, y float64, t trajectory.Time) trajectory.TimePoint {
	return trajectory.TP(geom.Pt(x, y), t)
}

func TestValidation(t *testing.T) {
	if _, err := GreedyAnchored([]trajectory.TimePoint{tp(0, 0, 0), tp(1, 1, 1)}, 0); err == nil {
		t.Error("eps=0 must error")
	}
	if _, err := GreedyAnchored([]trajectory.TimePoint{tp(0, 0, 1), tp(1, 1, 1)}, 1); err == nil {
		t.Error("non-increasing timestamps must error")
	}
}

func TestTrivialInputs(t *testing.T) {
	if got, _ := GreedyAnchored(nil, 1); got != nil {
		t.Error("nil input")
	}
	if got, _ := GreedyAnchored([]trajectory.TimePoint{tp(0, 0, 0)}, 1); got != nil {
		t.Error("single point")
	}
}

func TestStraightLineOneSegment(t *testing.T) {
	var pts []trajectory.TimePoint
	for i := 0; i < 100; i++ {
		pts = append(pts, tp(float64(i)*5, float64(i)*2, trajectory.Time(i)))
	}
	paths, err := GreedyAnchored(pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("straight line needs 1 segment, got %d", len(paths))
	}
	if paths[0].Ts != 0 || paths[0].Te != 99 {
		t.Errorf("span [%d,%d]", paths[0].Ts, paths[0].Te)
	}
}

func TestRightAngleTwoSegments(t *testing.T) {
	var pts []trajectory.TimePoint
	for i := 0; i <= 10; i++ {
		pts = append(pts, tp(0, float64(i)*10, trajectory.Time(i)))
	}
	for i := 1; i <= 10; i++ {
		pts = append(pts, tp(float64(i)*10, 100, trajectory.Time(10+i)))
	}
	n, err := SegmentCount(pts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("right angle needs 2 segments, got %d", n)
	}
}

// Every produced path must fit the covered measurements within eps.
func TestFitInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	const eps = 3.0
	for trial := 0; trial < 40; trial++ {
		var pts []trajectory.TimePoint
		cur := geom.Pt(0, 0)
		dir := geom.Pt(4, 0)
		for i := 0; i < 200; i++ {
			if rng.Float64() < 0.15 {
				dir = geom.Pt(rng.Float64()*8-4, rng.Float64()*8-4)
			}
			cur = cur.Add(dir).Add(geom.Pt(rng.Float64()-0.5, rng.Float64()-0.5))
			pts = append(pts, trajectory.TP(cur, trajectory.Time(i)))
		}
		paths, err := GreedyAnchored(pts, eps)
		if err != nil {
			t.Fatal(err)
		}
		byTime := make(map[trajectory.Time]geom.Point, len(pts))
		for _, p := range pts {
			byTime[p.T] = p.P
		}
		for _, mp := range paths {
			for tt := mp.Ts; tt <= mp.Te; tt++ {
				loc, ok := byTime[tt]
				if !ok {
					continue
				}
				if d := mp.LocationAt(tt).MaxDist(loc); d > eps+1e-9 {
					t.Fatalf("trial %d: path %v misses measurement at t=%d by %v", trial, mp, tt, d)
				}
			}
		}
		// Chunks must jointly cover the whole time span.
		if paths[0].Ts != pts[0].T || paths[len(paths)-1].Te != pts[len(pts)-1].T {
			t.Fatalf("trial %d: chunks span [%d,%d], trajectory [%d,%d]",
				trial, paths[0].Ts, paths[len(paths)-1].Te, pts[0].T, pts[len(pts)-1].T)
		}
		for i := 1; i < len(paths); i++ {
			if paths[i].Ts != paths[i-1].Te {
				t.Fatalf("trial %d: temporal gap between chunks %d and %d", trial, i-1, i)
			}
		}
	}
}

// The offline greedy should track the on-line RayTrace+centroid pipeline
// closely. The two optimise different families (anchored vs chained
// segmentations), so neither strictly dominates per input; we assert the
// offline count stays within one segment per trial and wins in aggregate.
func TestNotWorseThanRayTrace(t *testing.T) {
	totalOffline, totalOnline := 0, 0
	rng := rand.New(rand.NewSource(29))
	const eps = 3.0
	for trial := 0; trial < 30; trial++ {
		var pts []trajectory.TimePoint
		cur := geom.Pt(0, 0)
		dir := geom.Pt(4, 0)
		for i := 0; i < 300; i++ {
			if rng.Float64() < 0.2 {
				dir = geom.Pt(rng.Float64()*8-4, rng.Float64()*8-4)
			}
			cur = cur.Add(dir)
			pts = append(pts, trajectory.TP(cur, trajectory.Time(i)))
		}
		offline, err := SegmentCount(pts, eps)
		if err != nil {
			t.Fatal(err)
		}
		// On-line pipeline with immediate centroid responses.
		f := raytrace.New(pts[0], eps)
		online := 0
		for _, p := range pts[1:] {
			st, report, err := f.Process(p)
			if err != nil {
				t.Fatal(err)
			}
			for report {
				online++
				st, report, err = f.Respond(trajectory.TP(st.FSA.Centroid(), st.Te))
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		if st := f.State(); st.Te != st.Ts {
			online++ // the last safe area, as a final report
		}
		totalOffline += offline
		totalOnline += online
		if offline > online+1 {
			t.Errorf("trial %d: offline %d far exceeds online %d segments", trial, offline, online)
		}
	}
	if totalOffline > totalOnline {
		t.Errorf("aggregate: offline %d > online %d segments", totalOffline, totalOnline)
	}
}
