package httpapi_test

import (
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"hotpaths"
	"hotpaths/internal/httpapi"
	"hotpaths/internal/httpapi/httpapitest"
)

func TestParseBounds(t *testing.T) {
	r, err := httpapi.ParseBounds("0, 0, 100, 200")
	if err != nil {
		t.Fatal(err)
	}
	if r.Max.X != 100 || r.Max.Y != 200 {
		t.Errorf("parsed %+v", r)
	}
	for _, bad := range []string{
		"", "1,2,3", "a,b,c,d",
		// ParseFloat accepts these spellings; the contract must not.
		"NaN,0,1,1", "0,nan,1,1", "0,0,Inf,1", "0,0,1,-Inf", "+Inf,0,1,1",
	} {
		if _, err := httpapi.ParseBounds(bad); err == nil {
			t.Errorf("ParseBounds(%q) must fail", bad)
		}
	}
}

// The shared query-parameter parser must reject the whole error matrix
// and accept the good one. The same table is driven through the real
// hotpathsd and gateway handlers by cmd/hotpathsd's
// TestQueryMatrixBothServers.
func TestQueryParamsErrorMatrix(t *testing.T) {
	for _, u := range httpapitest.BadQueries {
		if _, err := httpapi.ParseQuery(httptest.NewRequest("GET", u, nil), 10); err == nil {
			t.Errorf("ParseQuery(%s) must fail", u)
		}
	}
	for _, u := range httpapitest.GoodQueries {
		if _, err := httpapi.ParseQuery(httptest.NewRequest("GET", u, nil), 10); err != nil {
			t.Errorf("ParseQuery(%s): %v", u, err)
		}
	}
}

// FuzzParseQuery: whatever the query string, ParseQuery never panics and
// agrees with the grammar on accept/reject — so no malformed input comes
// back as a zero query with a nil error — and every bbox it accepts is
// finite, ordered (max ≥ min), survives a shortest-'g' format round trip
// bit for bit, and is the region the query then applies.
func FuzzParseQuery(f *testing.F) {
	for _, u := range append(append([]string(nil), httpapitest.BadQueries...), httpapitest.GoodQueries...) {
		_, raw, _ := strings.Cut(u, "?")
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		r := &http.Request{Method: http.MethodGet, URL: &url.URL{Path: "/topk", RawQuery: raw}}
		q, err := httpapi.ParseQuery(r, 10)
		vals := r.URL.Query()
		if want := grammarRejects(vals); (err != nil) != want {
			t.Fatalf("ParseQuery(%q): err = %v, but the grammar rejects: %v", raw, err, want)
		}
		box := vals.Get("bbox")
		if err != nil || box == "" {
			return
		}
		rect, err := httpapi.ParseBounds(box)
		if err != nil {
			t.Fatalf("ParseQuery accepted bbox %q that ParseBounds rejects: %v", box, err)
		}
		corners := []float64{rect.Min.X, rect.Min.Y, rect.Max.X, rect.Max.Y}
		for _, v := range corners {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted bbox %q has a non-finite component %v", box, v)
			}
			back, err := strconv.ParseFloat(strconv.FormatFloat(v, 'g', -1, 64), 64)
			if err != nil || math.Float64bits(back) != math.Float64bits(v) {
				t.Fatalf("bbox component %v does not round-trip: %v, %v", v, back, err)
			}
		}
		if rect.Max.X < rect.Min.X || rect.Max.Y < rect.Min.Y {
			t.Fatalf("accepted bbox %q has max < min", box)
		}
		// The query applies that region: probes just outside each corner
		// never come back, and whatever comes back lies inside.
		var probes []hotpaths.HotPath
		add := func(x, y float64) {
			if !math.IsInf(x, 0) && !math.IsInf(y, 0) {
				probes = append(probes, hotpaths.HotPath{ID: uint64(len(probes) + 1), Hotness: math.MaxInt, End: hotpaths.Pt(x, y)})
			}
		}
		for _, x := range []float64{rect.Min.X, rect.Max.X} {
			for _, y := range []float64{rect.Min.Y, rect.Max.Y} {
				add(x, y)
			}
		}
		add(math.Nextafter(rect.Min.X, math.Inf(-1)), rect.Min.Y)
		add(rect.Min.X, math.Nextafter(rect.Min.Y, math.Inf(-1)))
		add(math.Nextafter(rect.Max.X, math.Inf(1)), rect.Max.Y)
		add(rect.Max.X, math.Nextafter(rect.Max.Y, math.Inf(1)))
		for _, hp := range hotpaths.SnapshotOf(probes, hotpaths.Rect{}, 0, 0, 0).Query(q) {
			if hp.End.X < rect.Min.X || hp.End.X > rect.Max.X || hp.End.Y < rect.Min.Y || hp.End.Y > rect.Max.Y {
				t.Fatalf("bbox %q: the query returned a path ending at %+v, outside it", box, hp.End)
			}
		}
	})
}

// grammarRejects is the read-query grammar, written out independently of
// ParseQuery: k and limit are exclusive aliases, k/limit/min_hotness are
// non-negative decimal ints, bbox is four comma-separated finite floats
// (spaces around each allowed) with max ≥ min, sort is hotness or score.
func grammarRejects(vals url.Values) bool {
	if vals.Get("k") != "" && vals.Get("limit") != "" {
		return true
	}
	for _, name := range []string{"k", "limit", "min_hotness"} {
		if s := vals.Get(name); s != "" {
			if n, err := strconv.ParseInt(s, 10, strconv.IntSize); err != nil || n < 0 {
				return true
			}
		}
	}
	if s := vals.Get("bbox"); s != "" {
		parts := strings.Split(s, ",")
		if len(parts) != 4 {
			return true
		}
		var v [4]float64
		for i, p := range parts {
			x, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil || math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			v[i] = x
		}
		if v[2] < v[0] || v[3] < v[1] {
			return true
		}
	}
	switch vals.Get("sort") {
	case "", "hotness", "score":
		return false
	}
	return true
}
