package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"hotpaths"
	"hotpaths/internal/httpapi"
)

// fixedSnapshot is a backend whose reads all answer one hand-built
// snapshot, so a test can serve path values no workload produces.
type fixedSnapshot struct {
	*hotpaths.Engine
	snap hotpaths.Snapshot
}

func (f fixedSnapshot) Snapshot() hotpaths.Snapshot { return f.snap }

func getAccept(h http.Handler, path, accept string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// checkBinaryMatchesJSON asks h for each read twice — as JSON and as the
// binary body a gateway asks for — and holds the two to the same paths,
// compared bit for bit, at the same epoch and clock.
func checkBinaryMatchesJSON(t *testing.T, h http.Handler) {
	t.Helper()
	bits := math.Float64bits
	for _, path := range []string{"/paths", "/topk", "/topk?k=1", "/paths?sort=score", "/paths?min_hotness=2", "/paths?bbox=-1,-1,1e301,1e301"} {
		js, bin := getAccept(h, path, ""), getAccept(h, path, httpapi.PathsType)
		if js.Code != http.StatusOK || bin.Code != http.StatusOK {
			t.Fatalf("%s: JSON %d, binary %d", path, js.Code, bin.Code)
		}
		if ct := js.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s without Accept: Content-Type %q", path, ct)
		}
		if ct := bin.Header().Get("Content-Type"); ct != httpapi.PathsType {
			t.Errorf("%s with Accept %s: Content-Type %q", path, httpapi.PathsType, ct)
		}
		for _, hdr := range []string{hotpaths.EpochHeader, hotpaths.ClockHeader} {
			if js.Header().Get(hdr) != bin.Header().Get(hdr) {
				t.Errorf("%s: %s %q as JSON, %q as binary", path, hdr, js.Header().Get(hdr), bin.Header().Get(hdr))
			}
		}
		var wire []hotpaths.PathJSON
		if err := json.Unmarshal(js.Body.Bytes(), &wire); err != nil {
			t.Fatal(err)
		}
		want := httpapi.HotPaths(wire)
		got, err := httpapi.ReadPaths(bin.Body, int64(bin.Body.Len()))
		if err != nil || len(got) != len(want) {
			t.Fatalf("%s: binary body decodes to %d paths (%v), JSON to %d", path, len(got), err, len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.ID != w.ID || g.Hotness != w.Hotness ||
				bits(g.Start.X) != bits(w.Start.X) || bits(g.Start.Y) != bits(w.Start.Y) ||
				bits(g.End.X) != bits(w.End.X) || bits(g.End.Y) != bits(w.End.Y) {
				t.Errorf("%s path %d: binary %+v, JSON %+v", path, i, g, w)
			}
		}
	}
	// GeoJSON ignores Accept.
	geo, geoBin := getAccept(h, "/paths.geojson", ""), getAccept(h, "/paths.geojson", httpapi.PathsType)
	if geoBin.Header().Get("Content-Type") != "application/geo+json" || !bytes.Equal(geo.Body.Bytes(), geoBin.Body.Bytes()) {
		t.Errorf("/paths.geojson answered Accept %s with %q, not the same GeoJSON", httpapi.PathsType, geoBin.Header().Get("Content-Type"))
	}
}

func TestBinaryPathsMatchJSON(t *testing.T) {
	t.Run("live engine", func(t *testing.T) {
		h := newTestHandler(t)
		feedZigZag(t, h)
		checkBinaryMatchesJSON(t, h)
	})
	t.Run("edge values", func(t *testing.T) {
		eng, err := hotpaths.NewEngine(hotpaths.EngineConfig{Config: serverTestConfig()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		negZero := math.Copysign(0, -1)
		snap := hotpaths.SnapshotOf([]hotpaths.HotPath{
			{ID: 1<<64 - 1, Start: hotpaths.Pt(negZero, 5e-324), End: hotpaths.Pt(1e300, -1e300), Hotness: 3},
			{ID: 2, Start: hotpaths.Pt(5e-324, negZero), End: hotpaths.Pt(negZero, 1e300), Hotness: 9},
			{ID: 3, Start: hotpaths.Pt(470000.125, 4200000.1), End: hotpaths.Pt(470010.3, 4200003.7), Hotness: 3},
			{ID: 4, Start: hotpaths.Pt(-1e300, negZero), End: hotpaths.Pt(negZero, negZero), Hotness: 1},
		}, hotpaths.Rect{}, 0, 0, 10)
		checkBinaryMatchesJSON(t, newServer(fixedSnapshot{eng, snap}, serverOpts{}).handler())
	})
}
