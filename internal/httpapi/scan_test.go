package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"hotpaths"
)

// IngestWorkload is a copy of package hotpaths' test generator (seeded
// random walks with occasional sharp turns, one batch per timestamp from 1
// to horizon), which other packages' tests cannot import. The external
// test package reaches it as httpapi.IngestWorkload.
func IngestWorkload(nObjects int, horizon, seed int64) [][]hotpaths.Observation {
	rng := rand.New(rand.NewSource(seed))
	type state struct{ x, y, dx, dy float64 }
	objs := make([]state, nObjects)
	for i := range objs {
		objs[i] = state{x: float64(i%16) * 40, y: float64(i/16) * 40, dx: 6}
	}
	out := make([][]hotpaths.Observation, 0, horizon)
	for t := int64(1); t <= horizon; t++ {
		batch := make([]hotpaths.Observation, 0, nObjects)
		for i := range objs {
			o := &objs[i]
			if rng.Float64() < 0.15 {
				o.dx, o.dy = rng.Float64()*12-6, rng.Float64()*12-6
			}
			o.x += o.dx + rng.Float64() - 0.5
			o.y += o.dy + rng.Float64() - 0.5
			batch = append(batch, hotpaths.Observation{ObjectID: i, X: o.x, Y: o.y, T: t})
		}
		out = append(out, batch)
	}
	return out
}

// observeBody encodes one batch the way every shipped client does: the
// encoding/json form of {observations, tick}.
func observeBody(tb testing.TB, batch []hotpaths.Observation, tick int64) []byte {
	tb.Helper()
	req := ObserveRequest{Tick: tick}
	for _, o := range batch {
		// Offsets put the coordinates in the range of a projected city
		// map, as the benchmark's are: 16–17 significant digits each.
		req.Observations = append(req.Observations, hotpaths.ObservationJSON{
			Object: o.ObjectID, X: o.X + 470000, Y: o.Y + 4200000, T: o.T,
		})
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// StreamBodies are bodies shaped like the benchmark's and like a noisy
// (ε,δ) client's, as the shipped encoder emits them. The external test
// package reaches it as httpapi.StreamBodies.
func StreamBodies(tb testing.TB) [][]byte {
	var out [][]byte
	for i, batch := range IngestWorkload(8, 3, 11) {
		req := ObserveRequest{Tick: int64(i + 1)}
		noisy := ObserveRequest{}
		for _, o := range batch {
			oj := hotpaths.ObservationJSON{Object: o.ObjectID, X: o.X + 470000, Y: o.Y + 4200000, T: o.T}
			req.Observations = append(req.Observations, oj)
			oj.SigmaX, oj.SigmaY = 0.5+o.X/1e3, 1.25
			noisy.Observations = append(noisy.Observations, oj)
		}
		for _, r := range []ObserveRequest{req, noisy} {
			b, err := json.Marshal(r)
			if err != nil {
				tb.Fatal(err)
			}
			out = append(out, b)
		}
	}
	return out
}

// Every body a shipped encoder writes takes the straight line. A
// canonical reader that never fires would leave every answer right and
// every write slower, so only this test sees it: the benchmark's and a
// noisy client's bodies, json.Encoder's (with its trailing newline), an
// empty list, and encoding/json's bodies whose last observation ends as
// tightly as it can — one-digit values, each sigma alone — where the
// reader's eight-byte words reach the end of the body.
func TestCanonicalReaderTakesShippedBodies(t *testing.T) {
	bodies := StreamBodies(t)
	bodies = append(bodies, observeBody(t, IngestWorkload(2000, 1, 5)[0], 1))
	for _, req := range []ObserveRequest{
		{Observations: []hotpaths.ObservationJSON{}, Tick: 5},
		{Observations: []hotpaths.ObservationJSON{{}}},
		{Observations: []hotpaths.ObservationJSON{{Object: 1, X: 1, Y: 2, T: 3, SigmaX: 1}}},
		{Observations: []hotpaths.ObservationJSON{{Object: 1, X: 1, Y: 2, T: 3, SigmaY: 1}}},
		{Observations: []hotpaths.ObservationJSON{{Object: -1, X: -0.5, Y: 1e-7, T: -3, SigmaX: 1e21, SigmaY: 5e-324}}},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	var encoded bytes.Buffer
	if err := json.NewEncoder(&encoded).Encode(ObserveRequest{
		Observations: []hotpaths.ObservationJSON{{Object: 3, X: 1.5, Y: -2, T: 4, SigmaY: 0.25}}, Tick: 4,
	}); err != nil {
		t.Fatal(err)
	}
	bodies = append(bodies, encoded.Bytes())
	for i, body := range bodies {
		var want ObserveRequest
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		scanned := 0
		tick, ok := scanObserve(body, func(hotpaths.ObservationJSON, []byte) { scanned++ })
		if !ok || scanned != len(want.Observations) || tick != want.Tick {
			t.Fatalf("body %d: scanObserve took %d of %d observations, tick %d of %d (ok %v): %.120q",
				i, scanned, len(want.Observations), tick, want.Tick, ok, body)
		}
	}
}

// FuzzCanonicalMatchesJSON is differential: whatever bytes the canonical
// reader accepts, encoding/json reads into the same observation, bit for
// bit. encoding/json is the definition of the accepted language, so the
// straight line may refuse what it takes, but never read a value of its
// own.
func FuzzCanonicalMatchesJSON(f *testing.F) {
	for _, body := range StreamBodies(f)[:2] {
		f.Add(body[len(`{"observations":[`):])
	}
	for _, seed := range []string{
		`{"object":7,"x":1.5,"y":2,"t":9}]}`,
		`{"object":-0,"x":-0,"y":-0.0,"t":-0,"sigma_x":-0e0}]}`,
		`{"object":1,"x":1,"y":2,"t":3,"sigma_y":1}]}`,
		`{"object":1,"x":1,"y":2,"t":3,"sigma_x":0.5,"sigma_y":0.25},`,
		`{"object":1,"x":1,"y":2,"t":3,"sigma_y":1,"sigma_x":2}]}`,
		`{"object":1,"x":12345678,"y":123456789,"t":1234567}]}`,
		`{"object":1,"x":1234567890123456,"y":12345678901234567,"t":3,"sigma_x":123456789012345678901}]}`,
		`{"object":1,"x":470123.4567890123,"y":4200000.1234567891,"t":12}]}`,
		`{"object":1,"x":1E3,"y":2.5e-3,"t":3,"sigma_x":1e+2}]}`,
		`{"object":9223372036854775807,"x":1e-400,"y":4.9e-324,"t":-9223372036854775808}]}`,
		`{"object":1,"x":1234567:,"y":2,"t":3}]}`,
		`{"object":1,"x":1234567/,"y":2,"t":3}]}`,
		`{"object":1,"x": 1,"y":2,"t":3}]}`,
		`{"object":1,"x":1,"y":2,"t":3}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		s := scanner{b: b}
		got, ok := s.canonical()
		if !ok {
			return
		}
		var want hotpaths.ObservationJSON
		err := json.Unmarshal(b[:s.i], &want)
		bits := math.Float64bits
		if err != nil || got.Object != want.Object || got.T != want.T ||
			bits(got.X) != bits(want.X) || bits(got.Y) != bits(want.Y) ||
			bits(got.SigmaX) != bits(want.SigmaX) || bits(got.SigmaY) != bits(want.SigmaY) {
			t.Fatalf("%q: canonical reads %+v, encoding/json %+v (%v)", b[:s.i], got, want, err)
		}
	})
}

// A warm scan of a benchmark-sized body allocates nothing: not per body,
// not per observation, not per number.
func TestScanObserveAllocatesNothing(t *testing.T) {
	batch := IngestWorkload(2000, 1, 5)[0]
	body := observeBody(t, batch, 1)
	got := make([]hotpaths.Observation, 0, len(batch))
	scan := func() {
		got = got[:0]
		tick, ok := scanObserve(body, func(o hotpaths.ObservationJSON, raw []byte) {
			got = append(got, o.Observation())
		})
		if !ok || tick != 1 {
			t.Fatalf("scan: tick %d ok %v", tick, ok)
		}
	}
	if n := testing.AllocsPerRun(20, scan); n != 0 {
		t.Errorf("scanning a %d-observation body allocates %v times, want 0", len(batch), n)
	}
	if len(got) != len(batch) {
		t.Fatalf("scanned %d observations, want %d", len(got), len(batch))
	}
	for i, o := range got {
		want := batch[i]
		want.X, want.Y = want.X+470000, want.Y+4200000
		if o != want {
			t.Fatalf("observation %d = %+v, want %+v", i, o, want)
		}
	}
}

// BenchmarkObserveDecode measures the wire's share of a write: one
// 2,000-observation POST /observe body into engine observations, by the
// scanner the binaries serve from and by encoding/json, which it took
// over from and still falls back to. allocs/op of the scan case is a
// deterministic counter: it must read 0.
func BenchmarkObserveDecode(b *testing.B) {
	batch := IngestWorkload(2000, 1, 5)[0]
	body := observeBody(b, batch, 1)
	perObs := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(batch)), "ns/obs")
	}
	b.Run("scan", func(b *testing.B) {
		out := make([]hotpaths.Observation, 0, len(batch))
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out = out[:0]
			if _, ok := scanObserve(body, func(o hotpaths.ObservationJSON, _ []byte) {
				out = append(out, o.Observation())
			}); !ok || len(out) != len(batch) {
				b.Fatalf("scan refused the body after %d observations", len(out))
			}
		}
		perObs(b)
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var req ObserveRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				b.Fatal(err)
			}
			out := make([]hotpaths.Observation, len(req.Observations))
			for j, o := range req.Observations {
				out[j] = o.Observation()
			}
		}
		perObs(b)
	})
}

// jsonNumber is JSON's number production (RFC 8259, section 6).
var jsonNumber = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

// wantFloat is what the scanner must make of a number literal: a literal
// in JSON's grammar, no longer than maxNumberLen (a longer one is left to
// encoding/json) and in range is accepted with strconv's value; anything
// else is refused.
func wantFloat(lit string) (float64, bool) {
	if !jsonNumber.MatchString(lit) || len(lit) > maxNumberLen {
		return 0, false
	}
	v, err := strconv.ParseFloat(lit, 64)
	return v, err == nil
}

// checkFloat reads lit alone and holds the answer to wantFloat, bit for
// bit: -0 is not 0.
func checkFloat(t *testing.T, lit string) {
	t.Helper()
	s := scanner{b: []byte(lit)}
	got, ok := s.float()
	ok = ok && s.i == len(s.b)
	want, wantOK := wantFloat(lit)
	if ok != wantOK || ok && math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%q: scanner reads %v (%#x) accepted %v; want %v (%#x) accepted %v",
			lit, got, math.Float64bits(got), ok, want, math.Float64bits(want), wantOK)
	}
}

// TestScanFloatMatchesStrconv holds the one-pass reader to
// strconv.ParseFloat under JSON's grammar on a deterministic sweep: every
// row of the Eisel–Lemire table, the edges of float64's range, mantissas
// around the 19 digits a uint64 holds, signed zeros, and random values in
// the shortest, fixed and exponent forms at random precision.
func TestScanFloatMatchesStrconv(t *testing.T) {
	for e := minExp10; e <= maxExp10; e++ {
		checkFloat(t, fmt.Sprintf("1e%d", e))
		checkFloat(t, fmt.Sprintf("9.999999999999999e%d", e))
	}
	for _, lit := range []string{
		"9007199254740993", "9007199254740992", "-9007199254740993.0",
		"4.9e-324", "5e-324", "2e-324", "2.5e-324", "2.4703282292062328e-324",
		"2.2250738585072011e-308", "2.2250738585072014e-308", "1e-400", "-1e-400",
		"1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308",
		"-1.7976931348623159e308", "1e309", "1e99999", "1e-99999",
		"1234567890123456789", "12345678901234567890", "9999999999999999999",
		"18446744073709551615", "18446744073709551616", "99999999999999999999",
		"0.1234567890123456789", "0.12345678901234567891", "470123.12345678901234",
		"1.000000000000000000000000000001", "123456789012345678901234567890123",
		"0", "0.0", "0.000", "0.0000000000000000000000000001", "0.000000000000000000000000000000123",
		"0e400", "0.000e-400", "-0", "-0.0", "-0e0", "-0.000E+999", "-0.0000001",
		"1E22", "1e23", "9007199254740991e22", "9007199254740992e-22", "1e-22", "1e-23",
		"-", "+1", "01", "1.", ".5", "1e", "1e+", "-.5", "0x10", "1_0", "Inf", "NaN", "1.5e3x",
		"1234567/", "1234567:", "0.1234567/", "0.1234567:", "12345678", "-12345678.87654321",
		"1234567890123456.0", "0.1234567890123456789e-7",
	} {
		checkFloat(t, lit)
	}
	rng := rand.New(rand.NewSource(36))
	digits := func(n int) string {
		var b strings.Builder
		b.WriteByte(byte('1' + rng.Intn(9)))
		for i := 1; i < n; i++ {
			b.WriteByte(byte('0' + rng.Intn(10)))
		}
		return b.String()
	}
	for i := 0; i < 2000; i++ {
		for _, n := range []int{19, 20} {
			d := digits(n)
			p := rng.Intn(n) + 1
			checkFloat(t, d)
			checkFloat(t, d[:p]+"."+d[p:]+"e"+strconv.Itoa(rng.Intn(700)-350))
			checkFloat(t, "-0."+strings.Repeat("0", rng.Intn(6))+d)
		}
	}
	for i := 0; i < 100_000; i++ {
		v := math.Float64frombits(rng.Uint64())
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		checkFloat(t, strconv.FormatFloat(v, 'g', -1, 64))
		checkFloat(t, strconv.FormatFloat(v, 'e', rng.Intn(22)-1, 64))
		checkFloat(t, strconv.FormatFloat(v, 'f', rng.Intn(22)-1, 64))
	}
}

// The power-of-ten table built at init holds strconv's rows, as listed in
// strconv/eisel_lemire.go: its ends, around 10^0, and a row whose low
// word is not 0 nor a repeat of the high one. The sweep above would miss
// a low word that is off by one.
func TestPowersOfTenTable(t *testing.T) {
	for _, row := range []struct {
		e      int
		lo, hi uint64
	}{
		{-348, 0x1732C869CD60E453, 0xFA8FD5A0081C0288},
		{-347, 0x0E7FBD42205C8EB4, 0x9C99E58405118195},
		{-16, 0x4C2EBE687989A9B3, 0xE69594BEC44DE15B},
		{-1, 0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC},
		{0, 0, 0x8000000000000000},
		{4, 0, 0x9C40000000000000},
		{344, 0x848CE34679ABB01C, 0xD6444E39C3DB9B09},
		{347, 0x4B7195F2D2D1A9FB, 0xD13EB46469447567},
	} {
		if got := powersOfTen[row.e-minExp10]; got != [2]uint64{row.lo, row.hi} {
			t.Errorf("10^%d: {%#x, %#x}, want {%#x, %#x}", row.e, got[0], got[1], row.lo, row.hi)
		}
	}
}

// FuzzScanFloat is differential: one number literal, placed as x in a
// canonical body, reads as strconv.ParseFloat reads it under JSON's
// grammar — accepted or refused alike, and bit for bit — and so does the
// literal placed as y, and as the last member before the observation's
// "}", where the scanner's eight-byte digit words meet ,"t": and "}]}"
// instead of ,"y":.
func FuzzScanFloat(f *testing.F) {
	for _, lit := range []string{
		"0", "-0.0", "1.5", "470123.4567890123", "4200000.123456789", "9007199254740993",
		"1e22", "1e23", "4.9e-324", "2e-324", "1e-400", "1.7976931348623157e308",
		"1.7976931348623159e308", "12345678901234567890", "0.0000000000000000000000000001",
		"9.999999999999999e-349", "1E+2", "01", "1.", "-", "1e",
	} {
		f.Add(lit)
	}
	f.Fuzz(func(t *testing.T, lit string) {
		// Only the characters of a number: then the body is well formed
		// exactly when lit is a number.
		if strings.Trim(lit, "0123456789+-.eE") != "" {
			t.Skip()
		}
		body := `{"observations":[{"object":1,"x":` + lit + `,"y":2,"t":3}],"tick":3}`
		var got hotpaths.ObservationJSON
		_, ok := scanObserve([]byte(body), func(o hotpaths.ObservationJSON, _ []byte) { got = o })
		want, wantOK := wantFloat(lit)
		if ok != wantOK || ok && math.Float64bits(got.X) != math.Float64bits(want) {
			t.Fatalf("x %q: scanner reads %v (%#x) accepted %v; want %v (%#x) accepted %v",
				lit, got.X, math.Float64bits(got.X), ok, want, math.Float64bits(want), wantOK)
		}
		for _, place := range []struct {
			name, body string
			field      func(hotpaths.ObservationJSON) float64
		}{
			{"y", `{"observations":[{"object":1,"x":1,"y":` + lit + `,"t":3}],"tick":3}`,
				func(o hotpaths.ObservationJSON) float64 { return o.Y }},
			{"last", `{"observations":[{"object":1,"x":1,"y":2,"t":3,"sigma_y":` + lit + `}]}`,
				func(o hotpaths.ObservationJSON) float64 { return o.SigmaY }},
		} {
			got = hotpaths.ObservationJSON{}
			_, ok := scanObserve([]byte(place.body), func(o hotpaths.ObservationJSON, _ []byte) { got = o })
			if v := place.field(got); ok != wantOK || ok && math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("%s %q: scanner reads %v (%#x) accepted %v; want %v (%#x) accepted %v",
					place.name, lit, v, math.Float64bits(v), ok, want, math.Float64bits(want), wantOK)
			}
		}
	})
}
