package httpapi_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"hotpaths"
	"hotpaths/internal/httpapi"
)

// record lays one path out by hand, as the binary body's documentation
// says, so the tests check the layout rather than AppendPaths against
// itself.
func record(id uint64, hotness int64, sx, sy, ex, ey float64) []byte {
	b := binary.LittleEndian.AppendUint64(nil, id)
	b = binary.LittleEndian.AppendUint64(b, uint64(hotness))
	for _, v := range []float64{sx, sy, ex, ey} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// nonFinite reports whether any coordinate of a whole-record body has an
// all-ones exponent — an infinity or a NaN.
func nonFinite(body []byte) bool {
	for i := 0; i+httpapi.PathSize <= len(body); i += httpapi.PathSize {
		for off := 16; off < httpapi.PathSize; off += 8 {
			if binary.LittleEndian.Uint64(body[i+off:])>>52&0x7ff == 0x7ff {
				return true
			}
		}
	}
	return false
}

// decodePaths reads body through ReadPathsBody and decodes every path,
// as a gateway's merge does.
func decodePaths(body []byte) ([]hotpaths.HotPath, error) {
	b, err := httpapi.ReadPathsBody(bytes.NewReader(body), int64(len(body)))
	if err != nil {
		return nil, err
	}
	defer b.Close()
	paths := make([]hotpaths.HotPath, b.Len())
	for i := range paths {
		if paths[i], err = b.Path(i); err != nil {
			return nil, err
		}
	}
	return paths, nil
}

// checkPathsBody holds the body decoder to the body's contract: a length
// that is not a whole number of paths and a non-finite coordinate are
// rejected, and whatever is accepted re-encodes to the very same bytes.
func checkPathsBody(t *testing.T, body []byte) (accepted bool) {
	t.Helper()
	got, err := decodePaths(body)
	reject := len(body)%httpapi.PathSize != 0 || nonFinite(body)
	if (err != nil) != reject {
		t.Fatalf("error = %v, want rejected = %v\nbody: %x", err, reject, body)
	}
	if err != nil {
		return false
	}
	if len(got) != len(body)/httpapi.PathSize {
		t.Fatalf("%d paths from %d bytes", len(got), len(body))
	}
	if again := httpapi.AppendPaths(nil, got); !bytes.Equal(again, body) {
		t.Fatalf("re-encodes to\n %x\nnot\n %x", again, body)
	}
	return true
}

func samplePaths() []hotpaths.HotPath {
	paths := make([]hotpaths.HotPath, 50)
	for i := range paths {
		f := float64(i)
		paths[i] = hotpaths.HotPath{
			ID:      0x9e3779b97f4a7c15 * uint64(i+1),
			Start:   hotpaths.Pt(470000+f*1.25, 4200000-f/3),
			End:     hotpaths.Pt(470010.5+f*1.25, 4200000+f/7),
			Hotness: 1 + i%5,
		}
	}
	return paths
}

// edgeRecord holds the values a decimal round trip is most likely to get
// wrong: the largest id, -0, the smallest subnormal and a huge magnitude.
var edgeRecord = record(1<<64-1, 7, math.Copysign(0, -1), 5e-324, 1e300, -1e300)

// pathsBodies are the decoder's seeds, each marked with whether it must
// be accepted.
var pathsBodies = []struct {
	name     string
	body     []byte
	accepted bool
}{
	{"empty", nil, true},
	{"one path", record(9, 3, 0, 0, 3, 4), true},
	{"edge values", edgeRecord, true},
	{"hotness limits", append(record(1, math.MaxInt64, 1, 2, 3, 4), record(2, math.MinInt64, 1, 2, 3, 4)...), true},
	{"largest finite", record(3, 1, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 0), true},
	{"sample", httpapi.AppendPaths(nil, samplePaths()), true},
	{"one byte", []byte{1}, false},
	{"one byte short", edgeRecord[:httpapi.PathSize-1], false},
	{"one byte over", append(record(9, 3, 0, 0, 3, 4), 0), false},
	{"two paths less one byte", append(record(9, 3, 0, 0, 3, 4), edgeRecord[1:]...), false},
	{"a JSON answer", []byte("[]\n"), false},
	{"NaN start.x", record(1, 1, math.NaN(), 0, 0, 0), false},
	{"NaN start.y", record(1, 1, 0, math.NaN(), 0, 0), false},
	{"NaN end.x", record(1, 1, 0, 0, math.NaN(), 0), false},
	{"NaN end.y", record(1, 1, 0, 0, 0, math.NaN()), false},
	{"+Inf", record(1, 1, math.Inf(1), 0, 0, 0), false},
	{"-Inf", record(1, 1, 0, 0, 0, math.Inf(-1)), false},
	{"signalling NaN", record(1, 1, 0, math.Float64frombits(0x7ff0000000000001), 0, 0), false},
	{"negative NaN", record(1, 1, math.Float64frombits(0xfff8000000000000), 0, 0, 0), false},
	{"NaN in the second path", append(record(1, 1, 0, 0, 0, 0), record(2, 1, 0, 0, 0, math.NaN())...), false},
	{"all ones", bytes.Repeat([]byte{0xff}, httpapi.PathSize), false},
	{"all zeros", make([]byte, 2*httpapi.PathSize), true},
}

// FuzzPathsDecode: whatever the bytes, the binary /paths decoder never
// panics, rejects ragged lengths and non-finite coordinates, and
// re-encodes what it accepts to identical bytes.
func FuzzPathsDecode(f *testing.F) {
	for _, b := range pathsBodies {
		f.Add(b.body)
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkPathsBody(t, body) })
}

func TestPathsDecode(t *testing.T) {
	for _, b := range pathsBodies {
		t.Run(b.name, func(t *testing.T) {
			if got := checkPathsBody(t, b.body); got != b.accepted {
				t.Errorf("accepted = %v, want %v", got, b.accepted)
			}
		})
	}

	// The layout, field by field, bit for bit.
	got, err := decodePaths(edgeRecord)
	if err != nil || len(got) != 1 {
		t.Fatalf("decoding the edge record = %v, %v", got, err)
	}
	bits := math.Float64bits
	hp := got[0]
	if hp.ID != 1<<64-1 || hp.Hotness != 7 ||
		bits(hp.Start.X) != bits(math.Copysign(0, -1)) || bits(hp.Start.Y) != bits(5e-324) ||
		bits(hp.End.X) != bits(1e300) || bits(hp.End.Y) != bits(-1e300) {
		t.Errorf("edge record decodes to %+v", hp)
	}
	if again := httpapi.AppendPaths(nil, got); !bytes.Equal(again, edgeRecord) {
		t.Errorf("AppendPaths(edge path) = %x, want %x", again, edgeRecord)
	}
}

// WritePaths answers the binary body only to an Accept of exactly
// PathsType, and never on GeoJSON.
func TestWritePathsNegotiates(t *testing.T) {
	paths := samplePaths()
	for _, tc := range []struct {
		accept string
		geo    bool
		ctype  string
	}{
		{"", false, "application/json"},
		{httpapi.PathsType, false, httpapi.PathsType},
		{"application/json", false, "application/json"},
		{httpapi.PathsType + ", application/json", false, "application/json"},
		{"*/*", false, "application/json"},
		{httpapi.PathsType, true, "application/geo+json"},
	} {
		r := httptest.NewRequest(http.MethodGet, "/paths", nil)
		if tc.accept != "" {
			r.Header.Set("Accept", tc.accept)
		}
		rec := httptest.NewRecorder()
		httpapi.WritePaths(rec, r, http.StatusOK, 4, 41, paths, tc.geo)
		if ct := rec.Header().Get("Content-Type"); ct != tc.ctype {
			t.Errorf("Accept %q geo %v: Content-Type %q, want %q", tc.accept, tc.geo, ct, tc.ctype)
		}
		if rec.Header().Get(hotpaths.EpochHeader) != "4" || rec.Header().Get(hotpaths.ClockHeader) != "41" {
			t.Errorf("Accept %q geo %v: epoch/clock headers %v", tc.accept, tc.geo, rec.Header())
		}
		if tc.ctype == httpapi.PathsType && !bytes.Equal(rec.Body.Bytes(), httpapi.AppendPaths(nil, paths)) {
			t.Errorf("binary body is not AppendPaths of the paths")
		}
	}
}
