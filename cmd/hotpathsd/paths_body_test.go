package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
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

// decodeBody decodes a whole binary path body, as a gateway's merge does.
func decodeBody(t *testing.T, body []byte) []hotpaths.HotPath {
	t.Helper()
	b, err := httpapi.ReadPathsBody(bytes.NewReader(body), int64(len(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	paths := make([]hotpaths.HotPath, b.Len())
	for i := range paths {
		if paths[i], err = b.Path(i); err != nil {
			t.Fatal(err)
		}
	}
	return paths
}

// sameSet reports how a binary body's paths differ from a JSON answer's,
// as sets: the binary body carries the selection in no particular order,
// so it must hold as many paths, each id once, and each id's hotness and
// four coordinates bit for bit, -0 included. "" when they agree.
func sameSet(bin, js []hotpaths.HotPath) string {
	if len(bin) != len(js) {
		return fmt.Sprintf("binary body holds %d paths, JSON %d", len(bin), len(js))
	}
	byID := make(map[uint64]hotpaths.HotPath, len(js))
	for _, w := range js {
		byID[w.ID] = w
	}
	bits := math.Float64bits
	seen := make(map[uint64]bool, len(bin))
	for _, g := range bin {
		w, ok := byID[g.ID]
		switch {
		case seen[g.ID]:
			return fmt.Sprintf("binary body holds id %d twice", g.ID)
		case !ok:
			return fmt.Sprintf("binary body holds id %d, JSON does not", g.ID)
		case g.Hotness != w.Hotness ||
			bits(g.Start.X) != bits(w.Start.X) || bits(g.Start.Y) != bits(w.Start.Y) ||
			bits(g.End.X) != bits(w.End.X) || bits(g.End.Y) != bits(w.End.Y):
			return fmt.Sprintf("binary %+v, JSON %+v", g, w)
		}
		seen[g.ID] = true
	}
	return ""
}

// checkBinaryMatchesJSON asks h for each read twice — as JSON and as the
// binary body a gateway asks for — and holds the two to the same set of
// paths, compared bit for bit, at the same epoch and clock.
func checkBinaryMatchesJSON(t *testing.T, h http.Handler) {
	t.Helper()
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
		if diff := sameSet(decodeBody(t, bin.Body.Bytes()), httpapi.HotPaths(wire)); diff != "" {
			t.Errorf("%s: %s", path, diff)
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

// TestSameSetRefuses holds the set comparison itself to what it must
// catch: a path missing, one held twice, and one altered — in its
// hotness, or in a coordinate by nothing but the sign of a zero.
func TestSameSetRefuses(t *testing.T) {
	negZero := math.Copysign(0, -1)
	js := []hotpaths.HotPath{
		{ID: 1, Start: hotpaths.Pt(0, 1), End: hotpaths.Pt(2, 3), Hotness: 4},
		{ID: 2, Start: hotpaths.Pt(negZero, 1), End: hotpaths.Pt(2, 3), Hotness: 1},
	}
	altered := func(f func(*hotpaths.HotPath)) []hotpaths.HotPath {
		bin := []hotpaths.HotPath{js[1], js[0]}
		f(&bin[0])
		return bin
	}
	for name, bin := range map[string][]hotpaths.HotPath{
		"missing":   {js[0]},
		"twice":     {js[0], js[0]},
		"foreign":   {js[0], {ID: 3}},
		"hotness":   altered(func(hp *hotpaths.HotPath) { hp.Hotness++ }),
		"+0 for -0": altered(func(hp *hotpaths.HotPath) { hp.Start.X = 0 }),
		"end.y":     altered(func(hp *hotpaths.HotPath) { hp.End.Y = math.Nextafter(3, 4) }),
	} {
		if sameSet(bin, js) == "" {
			t.Errorf("%s: sameSet accepts %+v for %+v", name, bin, js)
		}
	}
	if diff := sameSet([]hotpaths.HotPath{js[1], js[0]}, js); diff != "" {
		t.Errorf("the same set reordered: %s", diff)
	}
}

// freshSnapshot is a backend whose every read takes a new snapshot of one
// path set, as a daemon's first read after a tick does.
type freshSnapshot struct {
	*hotpaths.Engine
	paths []hotpaths.HotPath
}

func (f freshSnapshot) Snapshot() hotpaths.Snapshot {
	return hotpaths.SnapshotOf(f.paths, hotpaths.Rect{}, 0, 0, 10)
}

// discardResponse is a ResponseWriter that keeps nothing of the body.
type discardResponse struct{ h http.Header }

func (d discardResponse) Header() http.Header         { return d.h }
func (d discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d discardResponse) WriteHeader(int)             {}

// BenchmarkPathsLeg measures a partition's side of a gateway leg: the
// binary /paths answer from a 2,000-path snapshot, taken fresh for each
// read as it is after every tick.
func BenchmarkPathsLeg(b *testing.B) {
	eng, err := hotpaths.NewEngine(hotpaths.EngineConfig{Config: serverTestConfig()})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { eng.Close() })
	rng := rand.New(rand.NewPCG(1, 2))
	paths := make([]hotpaths.HotPath, 2000)
	for i := range paths {
		x, y := rng.Float64()*2000, rng.Float64()*2000
		paths[i] = hotpaths.HotPath{
			ID:      rng.Uint64(),
			Start:   hotpaths.Pt(x, y),
			End:     hotpaths.Pt(x+rng.Float64()*10, y+rng.Float64()*10),
			Hotness: 1 + rng.IntN(6),
		}
	}
	h := newServer(freshSnapshot{eng, paths}, serverOpts{}).handler()
	req := httptest.NewRequest(http.MethodGet, "/paths", nil)
	req.Header.Set("Accept", httpapi.PathsType)
	w := discardResponse{http.Header{}}
	b.ReportAllocs()
	for b.Loop() {
		clear(w.h)
		h.ServeHTTP(w, req)
	}
}
