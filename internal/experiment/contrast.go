package experiment

import (
	"fmt"

	"hotpaths"
	"hotpaths/internal/cluster"
	"hotpaths/internal/geom"
	"hotpaths/internal/trajectory"
)

// ContrastResult reports the moving-cluster differentiation experiment
// (paper Section 2): hot motion paths versus moving clusters on the same
// asynchronous flow.
type ContrastResult struct {
	MaxHotness     int // hottest motion path discovered
	MovingClusters int // qualifying moving clusters detected
	PathsStored    int
}

// MovingClusterContrast runs the scenario behind the paper's key
// differentiation claim: objects traverse the SAME two-leg route one after
// another, spaced far apart in time. Each crossing falls inside the hotness
// window, so the shared route becomes hot — yet no two objects are ever
// near each other simultaneously, so no moving cluster exists.
//
// objects is the number of travellers, spacing the departure gap in
// timestamps. eps is the path tolerance; the cluster detector uses a 2·eps
// proximity radius, which is generous to the competitor.
func MovingClusterContrast(objects int, spacing trajectory.Time, eps float64) (*ContrastResult, error) {
	if objects < 2 {
		return nil, fmt.Errorf("experiment: need at least 2 objects, got %d", objects)
	}
	if spacing < 1 {
		return nil, fmt.Errorf("experiment: spacing must be positive, got %d", spacing)
	}
	if eps <= 0 {
		return nil, fmt.Errorf("experiment: eps must be positive, got %v", eps)
	}

	const (
		legSteps = 40
		speed    = 10.0
		park     = 15 // observations after arrival; the stop flushes the trip
	)
	routeLen := trajectory.Time(2*legSteps + park)
	duration := spacing*trajectory.Time(objects) + routeLen + 20

	sys, err := hotpaths.New(hotpaths.Config{
		Eps:    eps,
		W:      int64(duration), // the window covers every crossing
		Epoch:  10,
		Bounds: hotpaths.Rect{Min: hotpaths.Pt(-100, -100), Max: hotpaths.Pt(1000, 1000)},
	})
	if err != nil {
		return nil, err
	}
	det, err := cluster.New(cluster.Config{
		R:           2 * eps,
		MinPts:      2,
		Theta:       0.5,
		MinDuration: 3,
	})
	if err != nil {
		return nil, err
	}

	pos := func(step int64) (geom.Point, bool) {
		switch {
		case step < 1:
			return geom.Point{}, false
		case step <= legSteps:
			return geom.Pt(float64(step)*speed, 0), true
		case step <= 2*legSteps:
			return geom.Pt(legSteps*speed, float64(step-legSteps)*speed), true
		case step <= int64(routeLen):
			return geom.Pt(legSteps*speed, legSteps*speed), true // parked
		default:
			return geom.Point{}, false
		}
	}

	for now := trajectory.Time(1); now <= duration; now++ {
		snapshot := make(map[int]geom.Point)
		for id := 0; id < objects; id++ {
			p, ok := pos(int64(now) - int64(id)*int64(spacing))
			if !ok {
				continue
			}
			snapshot[id] = p
			if err := sys.Observe(id, p.X, p.Y, int64(now)); err != nil {
				return nil, err
			}
		}
		if len(snapshot) > 0 {
			if err := det.Observe(now, snapshot); err != nil {
				return nil, err
			}
		}
		if err := sys.Tick(int64(now)); err != nil {
			return nil, err
		}
	}

	snap := sys.Snapshot()
	res := &ContrastResult{
		MovingClusters: len(det.Close()),
		PathsStored:    snap.Len(),
	}
	if top := snap.Query(hotpaths.Query{}.K(1)); len(top) > 0 {
		res.MaxHotness = top[0].Hotness
	}
	return res, nil
}
