package main

import (
	"encoding/json"
	"math"
	"net/http"
	"testing"

	"hotpaths"
	"hotpaths/internal/httpapi"
)

// checkReadsParse requires every read endpoint to answer 200 with a body
// that parses: a value no encoder can carry would leave a reader with a
// 200 and an empty body, or a 500.
func checkReadsParse(t *testing.T, h http.Handler) {
	t.Helper()
	for _, path := range []string{"/topk", "/paths", "/paths.geojson"} {
		rec := do(t, h, http.MethodGet, path, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body.String())
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("GET %s: body does not parse: %q", path, rec.Body.String())
		}
	}
}

// TestExtremeCoordinatesKeepReadsParseable: one client alternating
// x = y = ±1e308 used to store a path ending at (-Inf, -Inf), after which
// /topk and /paths answered 200 with an empty body for a whole window.
// Such a coordinate is now a 400, and the reads stay whole.
func TestExtremeCoordinatesKeepReadsParseable(t *testing.T) {
	h := newTestHandler(t)
	for now := int64(1); now <= 12; now++ {
		huge := 1e308
		if now%2 == 0 {
			huge = -huge
		}
		bad := httpapi.ObserveRequest{Observations: []hotpaths.ObservationJSON{{Object: 999, X: huge, Y: huge, T: now}}}
		if rec := do(t, h, http.MethodPost, "/observe", bad); rec.Code != http.StatusBadRequest {
			t.Fatalf("t=%d: observe at (%v, %v): %d %s, want 400", now, huge, huge, rec.Code, rec.Body.String())
		}
		honest := httpapi.ObserveRequest{
			Observations: []hotpaths.ObservationJSON{{Object: 1, X: float64(now) * 6, Y: 0, T: now}},
			Tick:         now,
		}
		if rec := do(t, h, http.MethodPost, "/observe", honest); rec.Code != http.StatusOK {
			t.Fatalf("t=%d: honest observe: %d %s", now, rec.Code, rec.Body.String())
		}
	}
	checkReadsParse(t, h)
}

// TestAdversarialObservations drives hostile but well-formed input through
// the in-memory and the -wal daemon: each case answers its status, the
// tick across the next epoch still advances the clock, and every read
// then answers a parseable 200.
//
// A timestamp the object's filter refuses is found by its shard after the
// write has answered, so it cannot fail that write; failing the next tick
// instead, as this daemon once did, told whoever sent the tick that a
// tick which had happened had not. The shard counts it in
// hotpaths_engine_observations_refused_total, and both requests answer
// 200. The repeated last timestamp (40) and the out-of-order one (30)
// are refused against object 1's newest measurement, t=40, which the
// zig-zag leaves in its filter's waiting buffer.
func TestAdversarialObservations(t *testing.T) {
	one := func(o hotpaths.ObservationJSON) httpapi.ObserveRequest {
		return httpapi.ObserveRequest{Observations: []hotpaths.ObservationJSON{o}}
	}
	// feedZigZag leaves the clock at 40 and object 1 last at (240, 40).
	cases := []struct {
		name   string
		path   string
		body   any
		status int
		// tick is the status of the tick to 50 that follows, which
		// advances the clock whatever the case did.
		tick int
		// refused is how far the tick moves the refused-observation
		// counter.
		refused float64
	}{
		{"duplicate timestamp", "/observe", httpapi.ObserveRequest{Observations: []hotpaths.ObservationJSON{
			{Object: 1, X: 246, Y: 40, T: 41}, {Object: 1, X: 250, Y: 40, T: 41}}}, 200, 200, 1},
		{"repeated last timestamp", "/observe", one(hotpaths.ObservationJSON{Object: 1, X: 240, Y: 40, T: 40}), 200, 200, 1},
		{"out-of-order timestamp", "/observe", one(hotpaths.ObservationJSON{Object: 1, X: 200, Y: 40, T: 30}), 200, 200, 1},
		{"tick at the clock", "/tick", httpapi.TickRequest{Now: 40}, 400, 200, 0},
		{"tick below the clock", "/tick", httpapi.TickRequest{Now: 39}, 400, 200, 0},
		{"teleport", "/observe", one(hotpaths.ObservationJSON{Object: 1, X: 240 + 1e6, Y: 40, T: 41}), 200, 200, 0},
		{"max float64", "/observe", one(hotpaths.ObservationJSON{Object: 3, X: math.MaxFloat64, Y: 0, T: 41}), 400, 200, 0},
		{"min float64", "/observe", one(hotpaths.ObservationJSON{Object: 3, X: 0, Y: -math.MaxFloat64, T: 41}), 400, 200, 0},
		{"smallest subnormal", "/observe", one(hotpaths.ObservationJSON{
			Object: 3, X: math.SmallestNonzeroFloat64, Y: -math.SmallestNonzeroFloat64, T: 41}), 200, 200, 0},
		{"negative zero", "/observe", one(hotpaths.ObservationJSON{
			Object: 3, X: math.Copysign(0, -1), Y: math.Copysign(0, -1), T: 41}), 200, 200, 0},
	}
	const refusedSeries = "hotpaths_engine_observations_refused_total"
	for _, backend := range []struct {
		name string
		new  func(t *testing.T) http.Handler
	}{
		{"engine", newTestHandler},
		{"wal", func(t *testing.T) http.Handler { h, _ := newDurableHandler(t); return h }},
	} {
		for _, tc := range cases {
			t.Run(backend.name+"/"+tc.name, func(t *testing.T) {
				h := backend.new(t)
				feedZigZag(t, h)
				before := sampleValue(scrapeMetrics(t, h), refusedSeries)
				if rec := do(t, h, http.MethodPost, tc.path, tc.body); rec.Code != tc.status {
					t.Fatalf("POST %s: %d %s, want %d", tc.path, rec.Code, rec.Body.String(), tc.status)
				}
				if rec := do(t, h, http.MethodPost, "/tick", httpapi.TickRequest{Now: 50}); rec.Code != tc.tick {
					t.Fatalf("tick across the next epoch: %d %s, want %d", rec.Code, rec.Body.String(), tc.tick)
				}
				if got := sampleValue(scrapeMetrics(t, h), refusedSeries) - before; got != tc.refused {
					t.Errorf("%s moved by %v, want %v", refusedSeries, got, tc.refused)
				}
				if st := decode[map[string]any](t, do(t, h, http.MethodGet, "/stats", nil)); st["clock"] != 50.0 {
					t.Fatalf("clock after the tick = %v, want 50", st["clock"])
				}
				checkReadsParse(t, h)
			})
		}
	}
}
