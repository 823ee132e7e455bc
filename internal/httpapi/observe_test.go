package httpapi_test

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hotpaths"
	"hotpaths/internal/httpapi"
	"hotpaths/internal/metrics"
)

// collected is an ObserveSink that keeps what it is given.
type collected struct {
	obs  []hotpaths.ObservationJSON
	raws [][]byte // a copy of each raw; nil where Add got none
}

func (c *collected) Reset() { c.obs, c.raws = c.obs[:0], c.raws[:0] }

func (c *collected) Add(o hotpaths.ObservationJSON, raw []byte) {
	c.obs = append(c.obs, o)
	if raw != nil {
		raw = bytes.Clone(raw)
	}
	c.raws = append(c.raws, raw)
}

func post(body []byte) *http.Request {
	return httptest.NewRequest(http.MethodPost, "/observe", bytes.NewReader(body))
}

// sameBits compares observations the way the engine sees them: floats by
// bit pattern, so -0 and 0 differ.
func sameBits(a, b hotpaths.ObservationJSON) bool {
	bits := math.Float64bits
	return a.Object == b.Object && a.T == b.T &&
		bits(a.X) == bits(b.X) && bits(a.Y) == bits(b.Y) &&
		bits(a.SigmaX) == bits(b.SigmaX) && bits(a.SigmaY) == bits(b.SigmaY)
}

// checkObserveAgrees decodes body through DecodeObserve — scanner, then
// encoding/json for what the scanner refuses — and through DecodeBody,
// which is encoding/json alone and was the whole decoder before the
// scanner existed. The two must agree on accept/reject, on every
// observation, on the tick and on the error response. It reports whether
// the body took the fallback.
func checkObserveAgrees(t *testing.T, body []byte) (fellBack bool) {
	t.Helper()
	var want httpapi.ObserveRequest
	wantRec := httptest.NewRecorder()
	wantOK := httpapi.DecodeBody(wantRec, post(body), &want)

	var got collected
	fallbacks := metrics.NewRegistry().Counter("test_fallback_total", "n", nil)
	gotRec := httptest.NewRecorder()
	tick, records, ok := httpapi.DecodeObserve(gotRec, post(body), &got, fallbacks)
	fellBack = fallbacks.Value() == 1

	if ok != wantOK {
		t.Fatalf("accepted = %v, encoding/json says %v (%s)\nbody: %q", ok, wantOK, wantRec.Body, body)
	}
	if !ok {
		if gotRec.Code != wantRec.Code || gotRec.Body.String() != wantRec.Body.String() {
			t.Fatalf("error response = %d %q, want %d %q\nbody: %q",
				gotRec.Code, gotRec.Body, wantRec.Code, wantRec.Body, body)
		}
		if !fellBack {
			t.Fatalf("a rejected body must be rejected by encoding/json, not by the scanner\nbody: %q", body)
		}
		return fellBack
	}
	if tick != want.Tick || records != len(want.Observations) || len(got.obs) != records {
		t.Fatalf("tick %d records %d (sink %d), want tick %d records %d\nbody: %q",
			tick, records, len(got.obs), want.Tick, len(want.Observations), body)
	}
	for i, o := range got.obs {
		if !sameBits(o, want.Observations[i]) {
			t.Fatalf("observation %d = %+v, want %+v\nbody: %q", i, o, want.Observations[i], body)
		}
		raw := got.raws[i]
		if (raw == nil) != fellBack {
			t.Fatalf("observation %d: raw text present = %v on a body with fallback = %v", i, raw != nil, fellBack)
		}
		if raw != nil {
			// What a gateway forwards in place of the observation must
			// mean the observation.
			var back hotpaths.ObservationJSON
			if err := json.Unmarshal(raw, &back); err != nil || !sameBits(back, o) {
				t.Fatalf("observation %d: raw %q decodes to %+v (%v), want %+v", i, raw, back, err, o)
			}
		}
	}
	return fellBack
}

// observeQuirks names the corners of encoding/json's accepted language
// around the canonical body. fallback says whether the scanner must hand
// the body over; either way the answer must be what encoding/json alone
// gives (checkObserveAgrees), and accepted says what that is.
var observeQuirks = []struct {
	name, body         string
	fallback, accepted bool
}{
	{"canonical", `{"observations":[{"object":1,"x":1.5,"y":2,"t":3}],"tick":3}`, false, true},
	{"empty list", `{"observations":[],"tick":5}`, false, true},
	{"json.Encoder's newline", "{\"observations\":[{\"object\":1,\"x\":1.5,\"y\":2,\"t\":3}],\"tick\":3}\n", false, true},
	{"sigmas", `{"observations":[{"object":1,"x":1,"y":2,"t":3,"sigma_x":0.5,"sigma_y":0.25}]}`, false, true},
	{"-0 kept by bits", `{"observations":[{"object":-0,"x":-0,"y":-0.0,"t":-0,"sigma_x":-0e0}]}`, false, true},
	{"exponents", `{"observations":[{"object":1,"x":1E3,"y":2.5e-3,"t":3,"sigma_x":1e+2}]}`, false, true},
	{"int64 limits", `{"observations":[{"object":-9223372036854775808,"x":1,"y":2,"t":-9223372036854775808}],"tick":9223372036854775807}`, false, true},
	{"underflow is zero", `{"observations":[{"object":1,"x":1e-400,"y":2,"t":3}]}`, false, true},
	{"20 significant digits", `{"observations":[{"object":1,"x":470123.12345678901234,"y":4200000.0000000000001,"t":3}]}`, false, true},
	{"subnormal", `{"observations":[{"object":1,"x":4.9e-324,"y":2.2250738585072011e-308,"t":3}]}`, false, true},
	{"largest finite", `{"observations":[{"object":1,"x":1.7976931348623157e308,"y":-1.7976931348623157E+308,"t":3}]}`, false, true},
	{"-0.0", `{"observations":[{"object":1,"x":-0.0,"y":2,"t":3,"sigma_y":-0.000}]}`, false, true},
	{"sigma_x alone", `{"observations":[{"object":1,"x":1,"y":2,"t":3,"sigma_x":1}]}`, false, true},
	{"sigma_y alone", `{"observations":[{"object":1,"x":1,"y":2,"t":3,"sigma_y":1}]}`, false, true},
	{"7 digits before y", `{"observations":[{"object":1,"x":1234567,"y":7654321,"t":3}]}`, false, true},
	{"8 digits before y", `{"observations":[{"object":1,"x":12345678,"y":87654321,"t":3}]}`, false, true},
	{"9 digits before y", `{"observations":[{"object":1,"x":123456789,"y":987654321,"t":3}]}`, false, true},
	{"16 digits before y", `{"observations":[{"object":1,"x":470123.4567890123,"y":1234567890123456,"t":3}]}`, false, true},
	{"17 digits before y", `{"observations":[{"object":1,"x":470123.45678901234,"y":12345678901234567,"t":3}]}`, false, true},
	{"21 digits before y", `{"observations":[{"object":1,"x":470123.456789012345678,"y":123456789012345678901,"t":3}]}`, false, true},
	{"7 digits before }", `{"observations":[{"object":1,"x":1,"y":2,"t":3,"sigma_x":0.1234567}],"tick":3}`, false, true},
	{"8 digits before }", `{"observations":[{"object":1,"x":1,"y":2,"t":3,"sigma_x":12345678}],"tick":3}`, false, true},
	{"9 digits before }", `{"observations":[{"object":1,"x":1,"y":2,"t":3,"sigma_y":1.23456789}],"tick":3}`, false, true},
	{"7 digits at the end", `{"observations":[{"object":1,"x":1,"y":2,"t":3,"sigma_y":1234567}]}`, false, true},
	{"8 digits at the end", `{"observations":[{"object":1,"x":1,"y":2,"t":3,"sigma_y":0.12345678}]}`, false, true},
	{"16 digits at the end", `{"observations":[{"object":1,"x":1,"y":2,"t":3,"sigma_y":1234567890123456}]}`, false, true},
	{"17 digits at the end", `{"observations":[{"object":1,"x":1,"y":2,"t":3,"sigma_y":1.2345678901234567}]}`, false, true},
	{"22 digits at the end", `{"observations":[{"object":1,"x":1,"y":2,"t":3,"sigma_y":12345678901.23456789012}]}`, false, true},

	{"any key order", `{"tick":3,"observations":[{"t":3,"y":2,"x":1.5,"object":1}]}`, true, true},
	{"whitespace", " {\n\t\"observations\" : [ { \"object\" : 1 , \"x\" : 1 } , { } ] ,\r\n \"tick\" : 3 } \n", true, true},
	{"no observations", `{"tick":7}`, true, true},
	{"empty object", `{}`, true, true},
	{"reordered keys", `{"observations":[{"object":1,"y":2,"x":1.5,"t":3},{"x":1,"object":2,"t":3,"y":2}]}`, true, true},
	{"python spacing", `{"observations": [{"object": 1, "x": 1.5, "y": 2.0, "t": 3}, {"object": 2, "x": 4.25, "y": -1.0, "t": 3}], "tick": 3}`, true, true},
	{"sigmas reversed", `{"observations":[{"object":1,"x":1,"y":2,"t":3,"sigma_y":0.25,"sigma_x":0.5}]}`, true, true},
	{"objects", `{"observations":[{"objects":1,"x":1.5,"y":2,"t":3}]}`, true, true},
	{"xx", `{"observations":[{"object":1,"xx":1.5,"y":2,"t":3}]}`, true, true},
	{"duplicate sigma", `{"observations":[{"object":1,"x":1,"y":2,"t":3,"sigma_x":1,"sigma_x":2}]}`, true, true},
	{"capitalised key", `{"observations":[{"Object":1,"X":1.5,"y":2,"t":3}]}`, true, true},
	{"capitalised top-level key", `{"Observations":[{"object":1}],"TICK":3}`, true, true},
	{"duplicate key", `{"observations":[{"object":1,"object":2,"x":1,"y":2,"t":3}]}`, true, true},
	{"duplicate observations", `{"observations":[{"object":1}],"observations":[{"object":2}]}`, true, true},
	{"duplicate tick", `{"tick":1,"tick":2}`, true, true},
	{"null list", `{"observations":null,"tick":5}`, true, true},
	{"null element", `{"observations":[null,{"object":1}]}`, true, true},
	{"null field", `{"observations":[{"object":null,"x":1}]}`, true, true},
	{"null tick", `{"tick":null}`, true, true},
	{"null body", `null`, true, true},
	{"escaped key", `{"observations":[{"\u006fbject":1,"x":1}]}`, true, true},
	{"escaped quote in key", `{"observations":[{"ob\"ject":1,"x":1}]}`, true, true},
	{"unknown field", `{"observations":[{"object":1,"speed":3.5,"tags":["a",{"b":null}]}],"source":"gps"}`, true, true},
	{"long number", `{"observations":[{"object":1,"x":0.000000000000000000000000000000000012}]}`, true, true},
	{"trailing bytes", `{"observations":[{"object":1}],"tick":2} trailing`, true, true},
	{"second value", `{"observations":[{"object":1}]}{"tick":9}`, true, true},
	{"two newlines", "{\"observations\":[{\"object\":1,\"x\":1,\"y\":2,\"t\":3}]}\n\n", true, true},

	{"t with exponent", `{"observations":[{"object":1,"t":1e3}]}`, true, false},
	{"t with fraction", `{"observations":[{"object":1,"t":1.0}]}`, true, false},
	{"tick with fraction", `{"tick":1.5}`, true, false},
	{"float overflow", `{"observations":[{"object":1,"x":1e400}]}`, true, false},
	{"just past the largest finite", `{"observations":[{"object":1,"x":1.7976931348623159e308}]}`, true, false},
	{"int overflow", `{"observations":[{"object":1,"t":9223372036854775808}]}`, true, false},
	{"leading zero", `{"observations":[{"object":1,"x":01}]}`, true, false},
	{"minus alone", `{"observations":[{"object":1,"x":-}]}`, true, false},
	{"space after minus", `{"observations":[{"object":- 1}]}`, true, false},
	{"bare fraction", `{"observations":[{"object":1,"x":.5}]}`, true, false},
	{"dangling fraction", `{"observations":[{"object":1,"x":1.}]}`, true, false},
	{"hex float", `{"observations":[{"object":1,"x":0x1p-2}]}`, true, false},
	{"slash in a digit word", `{"observations":[{"object":1,"x":1234567/,"y":2,"t":3}]}`, true, false},
	{"colon in a digit word", `{"observations":[{"object":1,"x":0.1234567:,"y":2,"t":3}]}`, true, false},
	{"colon ends the digits", `{"observations":[{"object":1,"x":1,"y":2,"t":3,"sigma_y":1234567:}]}`, true, false},
	{"infinity", `{"observations":[{"object":1,"x":Inf}]}`, true, false},
	{"quoted number", `{"observations":[{"object":"1"}]}`, true, false},
	{"list is no list", `{"observations":"not-a-list"}`, true, false},
	{"trailing comma", `{"observations":[{"object":1},]}`, true, false},
	{"trailing comma after a canonical observation", `{"observations":[{"object":1,"x":1,"y":2,"t":3},],"tick":3}`, true, false},
	{"truncated", `{"observations":[{"object":1,"x":1.5`, true, false},
	{"unterminated key", `{"observations":[{"obj`, true, false},
	{"top-level list", `[{"object":1}]`, true, false},
	{"empty body", ``, true, false},
}

func TestObserveQuirks(t *testing.T) {
	for _, q := range observeQuirks {
		t.Run(q.name, func(t *testing.T) {
			if fellBack := checkObserveAgrees(t, []byte(q.body)); fellBack != q.fallback {
				t.Errorf("took the fallback = %v, want %v", fellBack, q.fallback)
			}
			var req httpapi.ObserveRequest
			if ok := httpapi.DecodeBody(httptest.NewRecorder(), post([]byte(q.body)), &req); ok != q.accepted {
				t.Errorf("encoding/json accepts = %v, the table says %v", ok, q.accepted)
			}
		})
	}
	for i, body := range httpapi.StreamBodies(t) {
		if checkObserveAgrees(t, body) {
			t.Errorf("stream body %d took the fallback: %.120q…", i, body)
		}
	}
}

// FuzzObserveDecode is the differential fuzzer ROADMAP 4(a) asks for:
// whatever the bytes, scanner-plus-fallback and encoding/json alone give
// the same answer.
func FuzzObserveDecode(f *testing.F) {
	for _, b := range httpapi.StreamBodies(f) {
		f.Add(b)
	}
	for _, q := range observeQuirks {
		f.Add([]byte(q.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkObserveAgrees(t, body) })
}

// The one intended change from the decoder-only days: a body is read to
// the cap before it is looked at, so one over MaxRequestBytes answers 413
// even when its JSON value ends early — that used to be accepted, and the
// rest ignored.
func TestObserveBodyOverTheCap(t *testing.T) {
	value := `{"observations":[{"object":1,"x":1,"y":2,"t":3}],"tick":3}`
	atCap := value + strings.Repeat(" ", httpapi.MaxRequestBytes-len(value))
	for _, tc := range []struct {
		name string
		body string
		code int
	}{
		{"at the cap", atCap, http.StatusOK},
		{"one over", atCap + " ", http.StatusRequestEntityTooLarge},
	} {
		fallbacks := metrics.NewRegistry().Counter("test_fallback_total", "n", nil)
		rec := httptest.NewRecorder()
		_, records, ok := httpapi.DecodeObserve(rec, post([]byte(tc.body)), &collected{}, fallbacks)
		if ok != (tc.code == http.StatusOK) || (!ok && rec.Code != tc.code) || (ok && records != 1) {
			t.Errorf("%s: ok %v, %d records, status %d; want status %d", tc.name, ok, records, rec.Code, tc.code)
		}
	}
}
