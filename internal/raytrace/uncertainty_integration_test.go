package raytrace

import (
	"math/rand"
	"testing"

	"hotpaths/internal/trajectory"
	"hotpaths/internal/uncertainty"
)

// Integration of the bank with the (ε,δ) Gaussian tolerance model of
// Section 4.1: a noisy object's tolerance rectangle is strictly tighter
// than the deterministic ε square, so every motion path its filter
// certifies under (ε,δ) also satisfies the plain-ε closeness invariant —
// and it reports at least as often as the same walk in an exact bank.
func TestGaussianToleranceTighterThanFixed(t *testing.T) {
	const (
		eps   = 8.0
		delta = 0.05
		sigma = 1.0
	)
	// Tightness: the Gaussian rect sits inside the ε square.
	if h := uncertainty.HalfWidths(eps, delta, sigma, sigma); !(h.X < eps && h.Y < eps) {
		t.Fatalf("gaussian half-widths %v are not below eps %v", h, eps)
	}

	rng := rand.New(rand.NewSource(61))
	pts := randomWalk(rng, 300, 4)
	noisy, exact := NewBank(eps, delta), NewBank(eps, 0)

	var uncertainReports, fixedReports int
	recorded := []trajectory.TimePoint{}
	for _, p := range pts {
		recorded = append(recorded, p)
		st, report, err := noisy.Observe(1, p, sigma, sigma)
		if err != nil {
			t.Fatal(err)
		}
		for report {
			uncertainReports++
			// Plain-ε closeness must hold for the certified path.
			mp := trajectory.MotionPath{S: st.Start, E: st.FSA.Centroid(), Ts: st.Ts, Te: st.Te}
			for _, m := range recorded {
				if m.T < st.Ts || m.T > st.Te {
					continue
				}
				if d := mp.LocationAt(m.T).MaxDist(m.P); d > eps+1e-9 {
					t.Fatalf("(eps,delta) path violates plain-eps closeness: %v", d)
				}
			}
			st, report, err = noisy.Respond(1, trajectory.TP(st.FSA.Centroid(), st.Te))
			if err != nil {
				t.Fatal(err)
			}
		}
		std, reportd, err := exact.Observe(1, p, sigma, sigma)
		if err != nil {
			t.Fatal(err)
		}
		for reportd {
			fixedReports++
			std, reportd, err = exact.Respond(1, trajectory.TP(std.FSA.Centroid(), std.Te))
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if uncertainReports < fixedReports || uncertainReports == 0 {
		t.Errorf("(eps,delta) bank reported %d times, exact bank %d; tighter tolerance cannot report less",
			uncertainReports, fixedReports)
	}
}
