package httpapi

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"

	"hotpaths"
)

// ParseQuery builds a hotpaths.Query from the URL parameters every read
// endpoint shares: k (or limit), min_hotness, bbox=minx,miny,maxx,maxy
// and sort=hotness|score. defaultK caps the result when no k is given
// (0 means unlimited).
func ParseQuery(r *http.Request, defaultK int) (hotpaths.Query, error) {
	q := hotpaths.Query{}
	vals := r.URL.Query()
	if vals.Get("k") != "" && vals.Get("limit") != "" {
		return q, fmt.Errorf("k and limit are aliases; pass only one")
	}
	k := defaultK
	for _, name := range []string{"k", "limit"} {
		if s := vals.Get(name); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n < 0 {
				return q, fmt.Errorf("%s must be a non-negative integer, got %q", name, s)
			}
			k = n
		}
	}
	q = q.K(k)
	if s := vals.Get("min_hotness"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			return q, fmt.Errorf("min_hotness must be a non-negative integer, got %q", s)
		}
		q = q.MinHotness(n)
	}
	if s := vals.Get("bbox"); s != "" {
		rect, err := ParseBounds(s)
		if err != nil {
			return q, fmt.Errorf("bbox: %w", err)
		}
		if rect.Max.X < rect.Min.X || rect.Max.Y < rect.Min.Y {
			return q, fmt.Errorf("bbox %q has max < min", s)
		}
		q = q.Region(rect)
	}
	switch s := vals.Get("sort"); s {
	case "", "hotness":
		q = q.SortBy(hotpaths.ByHotness)
	case "score":
		q = q.SortBy(hotpaths.ByScore)
	default:
		return q, fmt.Errorf("sort must be \"hotness\" or \"score\", got %q", s)
	}
	return q, nil
}

// ParseBounds parses "minx,miny,maxx,maxy" — the bbox parameter and
// hotpathsd's -bounds flag.
func ParseBounds(s string) (hotpaths.Rect, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return hotpaths.Rect{}, fmt.Errorf("bounds must be minx,miny,maxx,maxy, got %q", s)
	}
	vals := make([]float64, 4)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return hotpaths.Rect{}, fmt.Errorf("bounds component %q: %w", p, err)
		}
		// ParseFloat accepts "NaN" and "Inf", and every ordered comparison
		// downstream (max < min, rectangle containment) is false for NaN —
		// a non-finite box would silently match nothing.
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return hotpaths.Rect{}, fmt.Errorf("bounds component %q must be finite", p)
		}
		vals[i] = v
	}
	return hotpaths.Rect{
		Min: hotpaths.Pt(vals[0], vals[1]),
		Max: hotpaths.Pt(vals[2], vals[3]),
	}, nil
}
