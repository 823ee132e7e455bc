package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hotpaths"
	"hotpaths/internal/httpapi"
	"hotpaths/internal/partition"
	"hotpaths/internal/tracing"
)

func postRaw(h http.Handler, path, body string, header ...string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestObserveWireObservability drives both decode paths through the real
// route stack: a canonical body leaves hotpaths_http_observe_fallback_total
// alone, a body only encoding/json reads moves it by one, both are
// ingested alike, and each leaves a wire.decode span with the body's
// records and bytes on the request's trace.
func TestObserveWireObservability(t *testing.T) {
	withTracing(t)
	h := newTestHandler(t)
	const series = "hotpaths_http_observe_fallback_total"
	start := sampleValue(scrapeMetrics(t, h), series)

	for i, tc := range []struct {
		body     string
		fallback bool
	}{
		{`{"observations":[{"object":1,"x":6,"y":40,"t":1},{"object":2,"x":6,"y":40.5,"t":1}],"tick":1}`, false},
		{`{"observations":[{"Object":1,"x":12,"y":40,"t":2},{"object":2,"x":12,"y":40.5,"t":2,"speed":6}],"tick":2}`, true},
	} {
		traceID := fmt.Sprintf("4bf92f3577b34da6a3ce929d0e0e47%02x", i)
		before := sampleValue(scrapeMetrics(t, h), series)
		rec := postRaw(h, "/observe", tc.body, tracing.Header, "00-"+traceID+"-00f067aa0ba902b7-01")
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"accepted":2`) {
			t.Fatalf("observe %d: %d %s", i, rec.Code, rec.Body)
		}
		moved := sampleValue(scrapeMetrics(t, h), series) - before
		if want := map[bool]float64{false: 0, true: 1}[tc.fallback]; moved != want {
			t.Errorf("body %d moved %s by %g, want %g", i, series, moved, want)
		}

		mux := http.NewServeMux()
		tracing.Default.RegisterDebug(mux)
		got := httptest.NewRecorder()
		mux.ServeHTTP(got, httptest.NewRequest(http.MethodGet, "/debug/traces/"+traceID, nil))
		var detail struct {
			Spans []struct {
				Name  string         `json:"name"`
				Attrs map[string]any `json:"attrs"`
			} `json:"spans"`
		}
		if err := json.Unmarshal(got.Body.Bytes(), &detail); err != nil {
			t.Fatalf("trace %s: %v in %s", traceID, err, got.Body)
		}
		found := false
		for _, sp := range detail.Spans {
			if sp.Name != "wire.decode" {
				continue
			}
			found = true
			if sp.Attrs["records"] != float64(2) || sp.Attrs["bytes"] != float64(len(tc.body)) {
				t.Errorf("wire.decode attrs = %v, want records 2 and bytes %d", sp.Attrs, len(tc.body))
			}
			if _, marked := sp.Attrs["fallback"]; marked != tc.fallback {
				t.Errorf("wire.decode fallback attr present = %v, want %v", marked, tc.fallback)
			}
		}
		if !found {
			t.Errorf("body %d: no wire.decode span among %v", i, detail.Spans)
		}
	}

	// Both bodies' ticks were applied (their observations were counted
	// above, by "accepted"; /stats counts them only as shards catch up).
	if st := decode[map[string]any](t, do(t, h, http.MethodGet, "/stats", nil)); st["clock"] != float64(2) {
		t.Errorf("clock after both bodies = %v, want 2", st["clock"])
	}
	if total := sampleValue(scrapeMetrics(t, h), series) - start; total != 1 {
		t.Errorf("%s moved by %g over the test, want 1", series, total)
	}
}

// The one wire behaviour the scanner's arrival changed: the body is read
// to the cap before it is decoded, so any body over MaxRequestBytes is a
// 413 — even one whose JSON value ends long before the cap, which the
// streaming decoder used to accept while ignoring the rest.
func TestObserveOversizedTailRejected(t *testing.T) {
	h := newTestHandler(t)
	value := `{"observations":[{"object":1,"x":6,"y":40,"t":1}]}`
	if rec := postRaw(h, "/observe", value+strings.Repeat(" ", httpapi.MaxRequestBytes-len(value))); rec.Code != http.StatusOK {
		t.Errorf("a body of exactly MaxRequestBytes: %d %s, want 200", rec.Code, rec.Body)
	}
	rec := postRaw(h, "/observe", value+strings.Repeat(" ", httpapi.MaxRequestBytes))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("a value followed by padding past the cap: %d, want 413", rec.Code)
	}
}

// A partitioned daemon refuses an object it does not own whichever way
// the body was decoded — the gateway forwards clients' bytes unparsed,
// so this check is the fleet's only guard against a wrong routing table.
func TestObserveRefusesForeignObjects(t *testing.T) {
	const n, self = 4, 2
	eng, err := hotpaths.NewEngine(hotpaths.EngineConfig{Config: serverTestConfig(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	h := newServer(eng, serverOpts{partitionID: self, partitionCount: n}).handler()

	mine, foreign := -1, -1
	for id := 1; mine < 0 || foreign < 0; id++ {
		if partition.Index(id, n) == self {
			mine = id
		} else {
			foreign = id
		}
	}
	for _, key := range []string{"object", "Object"} { // scanner, then encoding/json
		body := fmt.Sprintf(`{"observations":[{"%s":%d,"x":1,"y":1,"t":1},{"%s":%d,"x":2,"y":2,"t":1}]}`, key, mine, key, foreign)
		rec := postRaw(h, "/observe", body)
		want := fmt.Sprintf("object %d belongs to partition %d of %d", foreign, partition.Index(foreign, n), n)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), want) {
			t.Errorf("key %q: %d %s, want 400 naming %q", key, rec.Code, rec.Body, want)
		}
	}
	st := decode[map[string]any](t, do(t, h, http.MethodGet, "/stats", nil))
	if st["observations"] != float64(0) {
		t.Errorf("observations = %v, want 0: a refused batch ingests nothing", st["observations"])
	}
}

// TestEpochSelectSpan: with every request sampled (what -trace-sample 1
// configures), the /observe whose tick crosses an epoch boundary records
// one coordinator.select span under its engine.tick, carrying that epoch's
// SinglePath case mix: the cases add up to the reports, and the reports
// are the ones the tick span counts.
func TestEpochSelectSpan(t *testing.T) {
	withTracing(t)
	h := newTestHandler(t)
	// A fresh id per run: tracing.Default keeps the spans of earlier runs.
	traceID := tracing.NewTraceID().String()
	for tick := 1; tick <= 40; tick++ {
		y := 0
		if (tick/5)%2 == 0 {
			y = 40
		}
		body := fmt.Sprintf(`{"observations":[{"object":1,"x":%d,"y":%d,"t":%d},{"object":2,"x":%d,"y":%d.5,"t":%d}],"tick":%d}`,
			tick*6, y, tick, tick*6, y, tick, tick)
		var header []string
		if tick == 40 {
			header = []string{tracing.Header, "00-" + traceID + "-00f067aa0ba902b7-01"}
		}
		if rec := postRaw(h, "/observe", body, header...); rec.Code != http.StatusOK {
			t.Fatalf("observe t=%d: %d %s", tick, rec.Code, rec.Body)
		}
	}

	mux := http.NewServeMux()
	tracing.Default.RegisterDebug(mux)
	got := httptest.NewRecorder()
	mux.ServeHTTP(got, httptest.NewRequest(http.MethodGet, "/debug/traces/"+traceID, nil))
	var detail struct {
		Spans []struct {
			SpanID   string         `json:"span_id"`
			ParentID string         `json:"parent_id"`
			Name     string         `json:"name"`
			Attrs    map[string]any `json:"attrs"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(got.Body.Bytes(), &detail); err != nil {
		t.Fatalf("trace %s: %v in %s", traceID, err, got.Body)
	}
	var tickID string
	var tickReports any
	for _, sp := range detail.Spans {
		if sp.Name == "engine.tick" {
			tickID, tickReports = sp.SpanID, sp.Attrs["reports"]
		}
	}
	if tickID == "" {
		t.Fatalf("no engine.tick span among %+v", detail.Spans)
	}
	selects := 0
	for _, sp := range detail.Spans {
		if sp.Name != "coordinator.select" {
			continue
		}
		selects++
		if sp.ParentID != tickID {
			t.Errorf("coordinator.select parent = %q, want the engine.tick span %q", sp.ParentID, tickID)
		}
		n := func(key string) float64 {
			v, ok := sp.Attrs[key].(float64)
			if !ok {
				t.Errorf("coordinator.select attr %q = %v, want a count", key, sp.Attrs[key])
			}
			return v
		}
		reports := n("reports")
		if reports <= 0 || reports != tickReports {
			t.Errorf("coordinator.select reports = %v, engine.tick reports = %v: want the same positive count", reports, tickReports)
		}
		if cases := n("case1") + n("case2") + n("case3"); cases != reports {
			t.Errorf("case1+case2+case3 = %v, want reports %v (attrs %v)", cases, reports, sp.Attrs)
		}
		if created := n("paths_created"); created > reports {
			t.Errorf("paths_created = %v exceeds reports %v", created, reports)
		}
	}
	if selects != 1 {
		t.Errorf("%d coordinator.select spans on the boundary write's trace, want 1", selects)
	}
}
