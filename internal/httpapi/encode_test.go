package httpapi_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"hotpaths"
	"hotpaths/internal/httpapi"
)

// jsonPaths is the /topk and /paths body as encoding/json writes it, and
// whether it can: the reference the streaming encoder is held to.
func jsonPaths(paths []hotpaths.HotPath) ([]byte, error) {
	var b bytes.Buffer
	err := json.NewEncoder(&b).Encode(hotpaths.PathsJSON(paths))
	return b.Bytes(), err
}

// jsonDelta is one /watch event as encoding/json writes its data: delta
// paths at rank 0, a nil Left as [].
func jsonDelta(d hotpaths.Delta) ([]byte, error) {
	unranked := func(paths []hotpaths.HotPath) []hotpaths.PathJSON {
		out := hotpaths.PathsJSON(paths)
		for i := range out {
			out[i].Rank = 0
		}
		return out
	}
	left := d.Left
	if left == nil {
		left = []uint64{}
	}
	body, err := json.Marshal(httpapi.DeltaJSON{
		Clock: d.Clock, Epoch: d.Epoch, Reset: d.Reset, Missed: d.Missed,
		Entered: unranked(d.Entered), Changed: unranked(d.Changed), Left: left,
	})
	return fmt.Appendf(nil, "id: %d\nevent: delta\ndata: %s\n\n", d.Epoch, body), err
}

// writePathsJSON answers paths as /topk does, to a plain JSON client.
func writePathsJSON(paths []hotpaths.HotPath) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	httpapi.WritePaths(rec, httptest.NewRequest(http.MethodGet, "/topk", nil), http.StatusOK, 3, 30, paths, false)
	return rec
}

// checkPathsJSON holds WritePaths' JSON answer to encoding/json's: the
// same bytes whenever encoding/json can encode the paths, and otherwise a
// 500 carrying only the error envelope.
func checkPathsJSON(t *testing.T, paths []hotpaths.HotPath) {
	t.Helper()
	want, err := jsonPaths(paths)
	rec := writePathsJSON(paths)
	if err != nil {
		var envelope map[string]string
		if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &envelope) != nil ||
			len(envelope) != 1 || envelope["error"] == "" {
			t.Fatalf("encoding/json refuses %+v (%v); got %d %q, want 500 and the error envelope", paths, err, rec.Code, rec.Body)
		}
		return
	}
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("paths %+v:\n got %d %s\nwant 200 %s", paths, rec.Code, rec.Body, want)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}
}

// checkDelta holds WriteDelta to encoding/json in the same way: the same
// bytes, or an error with nothing written.
func checkDelta(t *testing.T, d hotpaths.Delta) {
	t.Helper()
	want, wantErr := jsonDelta(d)
	var got bytes.Buffer
	err := httpapi.WriteDelta(&got, d)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("delta %+v: error %v, encoding/json says %v", d, err, wantErr)
	}
	if err != nil {
		if got.Len() != 0 {
			t.Fatalf("delta %+v: %d bytes written before the error", d, got.Len())
		}
		return
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("delta %+v:\n got %s\nwant %s", d, got.Bytes(), want)
	}
}

func path(id uint64, hotness int, sx, sy, ex, ey float64) hotpaths.HotPath {
	return hotpaths.HotPath{ID: id, Start: hotpaths.Pt(sx, sy), End: hotpaths.Pt(ex, ey), Hotness: hotness}
}

// edgePaths are the values whose text encoding/json words by a rule of
// its own: -0, the smallest subnormal, the switch to exponent form on
// either side of 1e-6 and 1e21 (and the e-07 → e-7 clean-up), 2^53, the
// largest id and a zero hotness.
var edgePaths = []hotpaths.HotPath{
	path(1<<64-1, 0, math.Copysign(0, -1), 5e-324, 1e-7, -1e-7),
	path(2, 1, 9.999999999999999e20, 1e21, -1e21, 0),
	path(1<<53, 1<<53, 1<<53, -(1 << 53), 1e-6, 9.99999e-7),
	path(4, -3, 123456.789, -0.5, 1e300, 1e-300),
	path(5, math.MaxInt64, 1, 2, 4, 6),
	path(0, math.MinInt64, 470001.25, 4200000.333333333, 470011.75, 4199999.142857143),
	path(7, 2, 1e20, 0.000001, 123e-20, 1.5e-8),
}

func TestPathsJSONMatchesEncodingJSON(t *testing.T) {
	for name, paths := range map[string][]hotpaths.HotPath{
		"empty":           nil,
		"empty, non-nil":  {},
		"one":             edgePaths[:1],
		"edge values":     edgePaths,
		"sample":          samplePaths(),
		"long":            cityPaths(2000), // several chunks
		"infinite length": {path(1, 1, -1e308, 0, 1e308, 0)},
		"infinite score":  {path(1, math.MaxInt64, 0, 0, 1e300, 0)},
		"NaN":             {edgePaths[0], path(1, 1, math.NaN(), 0, 0, 0)},
		"-Inf":            {path(1, 1, 0, 0, 0, math.Inf(-1))},
	} {
		t.Run(name, func(t *testing.T) { checkPathsJSON(t, paths) })
	}
	if got := writePathsJSON(nil).Body.String(); got != "[]\n" {
		t.Errorf("empty answer %q, want \"[]\\n\"", got)
	}
}

func TestDeltaJSONMatchesEncodingJSON(t *testing.T) {
	for name, d := range map[string]hotpaths.Delta{
		"empty":       {Clock: 10, Epoch: 1},
		"reset":       {Clock: 10, Epoch: 1, Reset: true, Entered: edgePaths},
		"every part":  {Clock: 70, Epoch: 7, Reset: true, Missed: 3, Entered: edgePaths[:2], Changed: edgePaths[2:], Left: []uint64{0, 1<<64 - 1, 9}},
		"empty left":  {Clock: 20, Epoch: 2, Changed: edgePaths[:1], Left: []uint64{}},
		"long":        {Clock: 30, Epoch: 3, Entered: cityPaths(2000), Left: make([]uint64, 5000)},
		"NaN entered": {Clock: 40, Epoch: 4, Entered: []hotpaths.HotPath{path(1, 1, math.NaN(), 0, 0, 0)}},
		"Inf changed": {Clock: 40, Epoch: 4, Changed: []hotpaths.HotPath{path(1, 1, 0, math.Inf(1), 0, 0)}},
	} {
		t.Run(name, func(t *testing.T) { checkDelta(t, d) })
	}
}

// FuzzPathsJSON: for any id, hotness and coordinate bits, the streaming
// encoder writes encoding/json's bytes for /topk and /watch, and answers
// 500 with nothing of the body exactly when encoding/json refuses.
func FuzzPathsJSON(f *testing.F) {
	bits := math.Float64bits
	for _, hp := range edgePaths {
		f.Add(hp.ID, int64(hp.Hotness), bits(hp.Start.X), bits(hp.Start.Y), bits(hp.End.X), bits(hp.End.Y))
	}
	f.Add(uint64(1), int64(1), bits(math.NaN()), uint64(0), uint64(0), uint64(0))
	f.Add(uint64(1), int64(1), bits(-math.MaxFloat64), uint64(0), bits(math.MaxFloat64), uint64(0))
	// Where a shortest-digits kernel goes wrong first: the smallest
	// subnormals (rescaled, one digit), the ends of the subnormal range and
	// of a binade, powers of two (the spacing below halves), a halfway
	// digit (ties to even), 2^53 ± 1 and the neighbours of 1e-6 and 1e21.
	for _, v := range [][4]uint64{
		{1, 2, 20, 3},
		{1<<52 - 1, 1 << 52, 0x3ff0000000000000, 0x3fefffffffffffff},
		{0x7fe0000000000000, 0x0010000000000000, 0x0010000000000001, bits(1125899906842624.25)},
		{bits(1<<53 - 1), bits(1<<53 + 2), bits(1 << 54), bits(562949953421312.125)},
		{bits(1e-6) - 1, bits(1e-6) + 1, bits(1e21) - 1, bits(1e21) + 1},
	} {
		f.Add(uint64(3), int64(2), v[0], v[1], v[2], v[3])
	}
	f.Fuzz(func(t *testing.T, id uint64, hotness int64, sx, sy, ex, ey uint64) {
		from := math.Float64frombits
		hp := path(id, int(hotness), from(sx), from(sy), from(ex), from(ey))
		paths := []hotpaths.HotPath{edgePaths[5], hp}
		checkPathsJSON(t, paths)
		checkDelta(t, hotpaths.Delta{Clock: 1, Epoch: 1, Entered: paths[:1], Changed: paths[1:]})
	})
}

// cityPaths are n paths with coordinates in the range of a projected
// city map, as the benchmark's are: 16–17 significant digits each.
func cityPaths(n int) []hotpaths.HotPath {
	rng := rand.New(rand.NewSource(int64(n)))
	paths := make([]hotpaths.HotPath, n)
	for i := range paths {
		x, y := 470000+rng.Float64()*30000, 4200000+rng.Float64()*30000
		paths[i] = path(rng.Uint64()>>rng.Intn(64), 1+rng.Intn(40), x, y, x+rng.Float64()*20-10, y+rng.Float64()*20-10)
	}
	return paths
}

// discard is a ResponseWriter that keeps nothing of the body, so what is
// counted or timed is the encoder's work alone.
type discard struct{ h http.Header }

func (d discard) Header() http.Header         { return d.h }
func (d discard) Write(b []byte) (int, error) { return len(b), nil }
func (d discard) WriteHeader(int)             {}

// A JSON answer is streamed through one pooled chunk: its allocations do
// not grow with its size.
func TestWritePathsAllocationsIndependentOfSize(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	w, r := discard{http.Header{}}, httptest.NewRequest(http.MethodGet, "/paths", nil)
	allocs := func(paths []hotpaths.HotPath) float64 {
		return testing.AllocsPerRun(20, func() { httpapi.WritePaths(w, r, http.StatusOK, 3, 30, paths, false) })
	}
	small, large := allocs(cityPaths(10)), allocs(cityPaths(10000))
	if small != large {
		t.Errorf("WritePaths allocates %v times for 10 paths and %v for 10,000", small, large)
	}
}

// BenchmarkWritePaths measures the encode of a read's answer: a bbox
// answer of /paths the size mixed_rw's is and a full /paths dump, by the
// streaming encoder the binaries serve from and by encoding/json, which
// it took over from.
func BenchmarkWritePaths(b *testing.B) {
	r := httptest.NewRequest(http.MethodGet, "/paths", nil)
	for _, n := range []int{268, 10850} {
		paths := cityPaths(n)
		body, _ := jsonPaths(paths)
		b.Run(fmt.Sprintf("paths=%d/stream", n), func(b *testing.B) {
			w := discard{http.Header{}}
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				httpapi.WritePaths(w, r, http.StatusOK, 3, 30, paths, false)
			}
		})
		b.Run(fmt.Sprintf("paths=%d/encoding-json", n), func(b *testing.B) {
			w := discard{http.Header{}}
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				if err := json.NewEncoder(w).Encode(hotpaths.PathsJSON(paths)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// raceEnabled is set by race_test.go in a -race build.
var raceEnabled bool
