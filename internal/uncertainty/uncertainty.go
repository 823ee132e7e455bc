// Package uncertainty implements the paper's (ε,δ) tolerance model for
// imprecise location measurements (Section 4.1).
//
// A measurement reports the mean and standard deviation of a Gaussian
// location estimate. For a single axis, a reported value x' is "close" to
// the true location X ~ N(x,σ²) when
//
//	Pr(|X − x'| ≤ ε) ≥ 1 − δ.
//
// The admissible offsets w = x' − x form a symmetric interval [−w*, +w*]
// where w* is the largest solution of
//
//	Φ((w+ε)/σ) − Φ((w−ε)/σ) = 1 − δ.
//
// The package solves this equation numerically (bisection over the standard
// normal CDF, computed from math.Erf). The solution depends only on σ, so
// HalfWidths solves it once per filter rather than per measurement — the
// constant-time answer the paper gets from a lookup table. In two
// dimensions the per-axis failure budget is δ/2, since (1−δ/2)² ≥ 1−δ.
package uncertainty

import (
	"errors"
	"fmt"
	"math"

	"hotpaths/internal/geom"
)

// ErrNoSolution is returned when the measurement is too noisy for the
// requested (ε,δ): even the mean itself is not close with probability 1−δ.
var ErrNoSolution = errors.New("uncertainty: no admissible tolerance interval (sigma too large for eps,delta)")

// Phi is the standard normal cumulative distribution function.
// The conversion rounds the product, so a difference of two Phis (as in
// coverage) is not fused into one multiply-subtract on any architecture.
func Phi(z float64) float64 {
	return float64(0.5 * (1 + math.Erf(z/math.Sqrt2)))
}

// coverage returns Pr(X ∈ [x'−ε, x'+ε]) for X ~ N(0,1) scaled measurements:
// the probability mass of the ±a window centred at offset v, i.e.
// Φ(v+a) − Φ(v−a).
func coverage(v, a float64) float64 {
	return Phi(v+a) - Phi(v-a)
}

// MaxOffset returns the largest w ≥ 0 such that a reported location at
// distance w from the measurement mean is still close to the true location
// under tolerance (eps, delta), for a Gaussian with standard deviation
// sigma. sigma must be positive; eps must be positive; delta in (0,1).
func MaxOffset(eps, delta, sigma float64) (float64, error) {
	if sigma <= 0 {
		return 0, fmt.Errorf("uncertainty: sigma must be positive, got %v", sigma)
	}
	if eps <= 0 {
		return 0, fmt.Errorf("uncertainty: eps must be positive, got %v", eps)
	}
	if delta <= 0 || delta >= 1 {
		return 0, fmt.Errorf("uncertainty: delta must be in (0,1), got %v", delta)
	}
	a := eps / sigma
	v, err := maxOffsetNorm(a, delta)
	if err != nil {
		return 0, err
	}
	return v * sigma, nil
}

// maxOffsetNorm solves coverage(v, a) = 1−delta for the largest v ≥ 0, in
// normalized units (sigma = 1). coverage is strictly decreasing in v for
// v ≥ 0, so bisection applies.
func maxOffsetNorm(a, delta float64) (float64, error) {
	target := 1 - delta
	if coverage(0, a) < target {
		return 0, ErrNoSolution
	}
	// Upper bracket: coverage(v,a) ≤ Φ(v+a) − Φ(v−a) ≤ 1 − Φ(v−a); for
	// v = a + 40 the right side is astronomically below any target.
	lo, hi := 0.0, a+40
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if coverage(mid, a) >= target {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-13 {
			break
		}
	}
	return lo, nil
}

// HalfWidths returns the half-widths of the tolerance rectangle that a
// RayTrace filter centres on each measurement of an object whose
// measurements have noise levels sigmaX and sigmaY. This is the one place
// the tolerance model is decided:
//   - with delta ≤ 0, or either sigma ≤ 0 (an exact measurement), the
//     paper's square Q of side 2·eps;
//   - otherwise the Gaussian (eps, delta) rectangle, δ/2 per axis as in
//     ToleranceRect;
//   - and when that has no solution, the retroactive minimal square of
//     half-side eps/10 (see ToleranceRectOrMin).
//
// Centred on a point p, a noisy object's rectangle {p − h, p + h} is bit
// for bit what ToleranceRectOrMin(…, eps, delta, eps/10) solves at p.
func HalfWidths(eps, delta, sigmaX, sigmaY float64) geom.Point {
	if delta <= 0 || sigmaX <= 0 || sigmaY <= 0 {
		return geom.Pt(eps, eps)
	}
	wx, errX := MaxOffset(eps, delta/2, sigmaX)
	wy, errY := MaxOffset(eps, delta/2, sigmaY)
	if errX != nil || errY != nil {
		return geom.Pt(eps/10, eps/10)
	}
	return geom.Pt(wx, wy)
}

// Measurement is an imprecise 2-D location: independent Gaussian noise on
// each axis.
type Measurement struct {
	Mean   geom.Point
	SigmaX float64
	SigmaY float64
}

// ToleranceRect returns the tolerance rectangle for a 2-D measurement under
// tolerance (eps, delta), splitting the failure budget as δ/2 per axis as in
// the paper. The rectangle plays the role of RayTrace's tolerance square.
func ToleranceRect(m Measurement, eps, delta float64) (geom.Rect, error) {
	half := delta / 2
	wx, err := MaxOffset(eps, half, m.SigmaX)
	if err != nil {
		return geom.Rect{}, fmt.Errorf("x axis: %w", err)
	}
	wy, err := MaxOffset(eps, half, m.SigmaY)
	if err != nil {
		return geom.Rect{}, fmt.Errorf("y axis: %w", err)
	}
	return geom.Rect{
		Lo: geom.Pt(m.Mean.X-wx, m.Mean.Y-wy),
		Hi: geom.Pt(m.Mean.X+wx, m.Mean.Y+wy),
	}, nil
}

// ToleranceRectOrMin is the tolerance rectangle of one measurement under
// HalfWidths' rule, solved per measurement, the paper's literal form;
// tests hold the filters' HalfWidths to it. An exact measurement (either
// sigma ≤ 0), or delta ≤ 0, gets the paper's square of half-side eps.
// When (ε,δ) has no solution for the measurement's noise (ErrNoSolution)
// it is the paper's "retroactive" fallback: a predefined minimal square of
// half-side minHalf around the mean instead of a failure. It panics on an
// eps ≤ 0 or a delta ≥ 2, which no configuration allows.
func ToleranceRectOrMin(m Measurement, eps, delta, minHalf float64) geom.Rect {
	if delta <= 0 || m.SigmaX <= 0 || m.SigmaY <= 0 {
		return geom.RectAround(m.Mean, eps)
	}
	r, err := ToleranceRect(m, eps, delta)
	if errors.Is(err, ErrNoSolution) {
		return geom.RectAround(m.Mean, minHalf)
	}
	if err != nil {
		panic(err)
	}
	return r
}
