package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"hotpaths"
	"hotpaths/internal/httpapi"
)

func serverTestConfig() hotpaths.Config {
	return hotpaths.Config{
		Eps:    5,
		W:      100,
		Epoch:  10,
		K:      10,
		Bounds: hotpaths.Rect{Min: hotpaths.Pt(-100, -100), Max: hotpaths.Pt(2000, 2000)},
	}
}

func newTestHandler(t *testing.T) http.Handler {
	t.Helper()
	eng, err := hotpaths.NewEngine(hotpaths.EngineConfig{
		Config: serverTestConfig(),
		Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return newServer(eng, serverOpts{}).handler()
}

// newDurableHandler backs the server with a Durable engine journaling
// into a fresh directory, as `hotpathsd -wal DIR` does.
func newDurableHandler(t *testing.T) (http.Handler, string) {
	t.Helper()
	dir := t.TempDir()
	dur, err := hotpaths.OpenDurable(dir, hotpaths.DurableConfig{
		Config:        serverTestConfig(),
		Shards:        2,
		FsyncInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dur.Close() })
	return newServer(dur, serverOpts{dur: dur}).handler(), dir
}

func do(t *testing.T, h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func decode[T any](t *testing.T, rec *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("decode %q: %v", rec.Body.String(), err)
	}
	return v
}

// feedZigZag drives two objects along a zig-zag for 40 timestamps through
// the HTTP surface, forcing reports and path creation.
func feedZigZag(t *testing.T, h http.Handler) {
	t.Helper()
	for now := int64(1); now <= 40; now++ {
		x := float64(now) * 6
		y := 0.0
		if (now/5)%2 == 0 {
			y = 40
		}
		req := httpapi.ObserveRequest{
			Observations: []hotpaths.ObservationJSON{
				{Object: 1, X: x, Y: y, T: now},
				{Object: 2, X: x, Y: y + 0.5, T: now},
			},
			Tick: now,
		}
		rec := do(t, h, http.MethodPost, "/observe", req)
		if rec.Code != http.StatusOK {
			t.Fatalf("observe at t=%d: %d %s", now, rec.Code, rec.Body.String())
		}
	}
}

func TestObserveAndTopK(t *testing.T) {
	h := newTestHandler(t)
	feedZigZag(t, h)

	rec := do(t, h, http.MethodGet, "/topk", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("topk: %d %s", rec.Code, rec.Body.String())
	}
	paths := decode[[]hotpaths.PathJSON](t, rec)
	if len(paths) == 0 {
		t.Fatal("no hot paths discovered through the HTTP surface")
	}
	if paths[0].Rank != 1 || paths[0].Hotness <= 0 || paths[0].Length <= 0 {
		t.Errorf("malformed top path: %+v", paths[0])
	}
	shared := false
	for _, p := range paths {
		if p.Hotness >= 2 {
			shared = true
		}
	}
	if !shared {
		t.Errorf("two objects on the same route should share a path: %+v", paths)
	}
}

func TestStatsEndpoint(t *testing.T) {
	h := newTestHandler(t)
	feedZigZag(t, h)

	rec := do(t, h, http.MethodGet, "/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d", rec.Code)
	}
	st := decode[map[string]any](t, rec)
	if got := st["observations"].(float64); got != 80 {
		t.Errorf("observations = %v, want 80", got)
	}
	if st["reports"].(float64) == 0 {
		t.Error("zig-zag raised no reports")
	}
	if st["shards"].(float64) != 2 {
		t.Errorf("shards = %v, want 2", st["shards"])
	}
}

func TestGeoJSONEndpoint(t *testing.T) {
	h := newTestHandler(t)
	feedZigZag(t, h)

	rec := do(t, h, http.MethodGet, "/paths.geojson", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("paths.geojson: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/geo+json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var fc struct {
		Type     string `json:"type"`
		Features []struct {
			Type     string `json:"type"`
			Geometry struct {
				Type        string       `json:"type"`
				Coordinates [][2]float64 `json:"coordinates"`
			} `json:"geometry"`
			Properties map[string]any `json:"properties"`
		} `json:"features"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &fc); err != nil {
		t.Fatal(err)
	}
	if fc.Type != "FeatureCollection" || len(fc.Features) == 0 {
		t.Fatalf("bad collection: type=%q features=%d", fc.Type, len(fc.Features))
	}
	f := fc.Features[0]
	if f.Geometry.Type != "LineString" || len(f.Geometry.Coordinates) != 2 {
		t.Errorf("bad geometry: %+v", f.Geometry)
	}
	if f.Properties["hotness"].(float64) <= 0 {
		t.Errorf("bad properties: %+v", f.Properties)
	}
}

func TestTickEndpoint(t *testing.T) {
	h := newTestHandler(t)
	if rec := do(t, h, http.MethodPost, "/tick", httpapi.TickRequest{Now: 5}); rec.Code != http.StatusOK {
		t.Fatalf("tick: %d %s", rec.Code, rec.Body.String())
	}
	// Backwards time must be rejected.
	if rec := do(t, h, http.MethodPost, "/tick", httpapi.TickRequest{Now: 3}); rec.Code != http.StatusBadRequest {
		t.Errorf("backwards tick: %d, want 400", rec.Code)
	}
}

func TestBadRequests(t *testing.T) {
	h := newTestHandler(t)
	// Malformed JSON.
	req := httptest.NewRequest(http.MethodPost, "/observe", bytes.NewBufferString("{nope"))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("malformed observe: %d, want 400", rec.Code)
	}
	// Noise without the (eps,delta) model enabled.
	bad := httpapi.ObserveRequest{Observations: []hotpaths.ObservationJSON{{Object: 1, T: 1, SigmaX: 1, SigmaY: 1}}}
	if rec := do(t, h, http.MethodPost, "/observe", bad); rec.Code != http.StatusBadRequest {
		t.Errorf("noisy observe without delta: %d, want 400", rec.Code)
	}
	// Wrong method.
	if rec := do(t, h, http.MethodGet, "/observe", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /observe: %d, want 405", rec.Code)
	}
}

func TestOversizedRequestRejected(t *testing.T) {
	h := newTestHandler(t)
	// Valid JSON that streams past the size cap, so the decoder hits the
	// limit rather than a syntax error.
	raw := append([]byte(`{"pad":"`), bytes.Repeat([]byte("a"), httpapi.MaxRequestBytes+1)...)
	raw = append(raw, '"', '}')
	body := bytes.NewReader(raw)
	req := httptest.NewRequest(http.MethodPost, "/observe", body)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized observe: %d, want 413", rec.Code)
	}
}

// A client clock that skips over an epoch boundary must still get its
// reports processed.
func TestSparseTickTriggersEpoch(t *testing.T) {
	h := newTestHandler(t)
	for now := int64(1); now <= 8; now++ {
		x := float64(now) * 6
		y := 0.0
		if now > 4 {
			y = 40 // sharp turn forces a report
		}
		req := httpapi.ObserveRequest{
			Observations: []hotpaths.ObservationJSON{{Object: 1, X: x, Y: y, T: now}},
		}
		if rec := do(t, h, http.MethodPost, "/observe", req); rec.Code != http.StatusOK {
			t.Fatalf("observe at t=%d: %d", now, rec.Code)
		}
	}
	// Jump from 0 straight past the epoch boundary at 10.
	if rec := do(t, h, http.MethodPost, "/tick", httpapi.TickRequest{Now: 13}); rec.Code != http.StatusOK {
		t.Fatalf("tick: %d %s", rec.Code, rec.Body.String())
	}
	rec := do(t, h, http.MethodGet, "/stats", nil)
	st := decode[map[string]any](t, rec)
	if st["responses"].(float64) == 0 {
		t.Errorf("epoch was skipped: %v", rec.Body.String())
	}
}

// The /topk query parameters must compose: k caps, min_hotness filters,
// bbox restricts to end vertices inside the box, sort=score re-ranks.
func TestTopKQueryParams(t *testing.T) {
	h := newTestHandler(t)
	feedZigZag(t, h)

	all := decode[[]hotpaths.PathJSON](t, do(t, h, http.MethodGet, "/paths", nil))
	if len(all) < 2 {
		t.Fatalf("workload too tame: %d paths", len(all))
	}

	if got := decode[[]hotpaths.PathJSON](t, do(t, h, http.MethodGet, "/topk?k=1", nil)); len(got) != 1 {
		t.Errorf("k=1 returned %d paths", len(got))
	}

	rec := do(t, h, http.MethodGet, "/topk?min_hotness=2&k=1000", nil)
	for _, p := range decode[[]hotpaths.PathJSON](t, rec) {
		if p.Hotness < 2 {
			t.Errorf("min_hotness=2 returned hotness %d", p.Hotness)
		}
	}

	// bbox around one path's end vertex must return that path and only
	// paths ending inside the box.
	target := all[0]
	bbox := fmt.Sprintf("bbox=%g,%g,%g,%g",
		target.End.X-1, target.End.Y-1, target.End.X+1, target.End.Y+1)
	got := decode[[]hotpaths.PathJSON](t, do(t, h, http.MethodGet, "/topk?k=1000&"+bbox, nil))
	found := false
	for _, p := range got {
		if p.ID == target.ID {
			found = true
		}
		if p.End.X < target.End.X-1 || p.End.X > target.End.X+1 ||
			p.End.Y < target.End.Y-1 || p.End.Y > target.End.Y+1 {
			t.Errorf("bbox query returned out-of-box end %+v", p.End)
		}
	}
	if !found {
		t.Errorf("bbox query around path %d missed it: %+v", target.ID, got)
	}

	scored := decode[[]hotpaths.PathJSON](t, do(t, h, http.MethodGet, "/topk?sort=score&k=1000", nil))
	for i := 1; i < len(scored); i++ {
		if scored[i].Score > scored[i-1].Score {
			t.Errorf("sort=score not descending at %d: %v > %v", i, scored[i].Score, scored[i-1].Score)
		}
	}

	for _, bad := range []string{"k=-1", "k=x", "min_hotness=-2", "bbox=1,2,3", "bbox=9,9,1,1", "sort=sideways", "k=3&limit=5"} {
		if rec := do(t, h, http.MethodGet, "/topk?"+bad, nil); rec.Code != http.StatusBadRequest {
			t.Errorf("/topk?%s: %d, want 400", bad, rec.Code)
		}
	}
}

// The read view is per tick: the window slides on every tick, and an
// observation reaches the coordinator only at the next epoch boundary, so
// the clock moving is the one thing that can change an answer. Repeated
// reads agree, an /observe without a tick leaves /paths byte-identical,
// and any tick — even by one timestamp — refreshes the view.
func TestSnapshotCacheInvalidation(t *testing.T) {
	h := newTestHandler(t)
	feedZigZag(t, h)

	first := do(t, h, http.MethodGet, "/paths", nil)
	again := do(t, h, http.MethodGet, "/paths", nil)
	if len(decode[[]hotpaths.PathJSON](t, first)) == 0 {
		t.Fatal("no paths after the zig-zag")
	}
	if !bytes.Equal(first.Body.Bytes(), again.Body.Bytes()) {
		t.Error("two reads with no write in between disagree")
	}

	observe := httpapi.ObserveRequest{Observations: []hotpaths.ObservationJSON{
		{Object: 1, X: 246, Y: 40, T: 41},
		{Object: 2, X: 246, Y: 40.5, T: 41},
	}}
	if rec := do(t, h, http.MethodPost, "/observe", observe); rec.Code != http.StatusOK {
		t.Fatalf("observe: %d %s", rec.Code, rec.Body)
	}
	observed := do(t, h, http.MethodGet, "/paths", nil)
	if !bytes.Equal(first.Body.Bytes(), observed.Body.Bytes()) {
		t.Errorf("an /observe without a tick changed /paths:\nbefore: %s\nafter:  %s", first.Body, observed.Body)
	}
	if got := observed.Header().Get(hotpaths.ClockHeader); got != "40" {
		t.Errorf("clock header after an /observe without a tick = %q, want 40", got)
	}

	if rec := do(t, h, http.MethodPost, "/tick", httpapi.TickRequest{Now: 41}); rec.Code != http.StatusOK {
		t.Fatalf("tick: %d", rec.Code)
	}
	if got := do(t, h, http.MethodGet, "/paths", nil).Header().Get(hotpaths.ClockHeader); got != "41" {
		t.Errorf("clock header after a one-timestamp tick = %q, want 41", got)
	}

	// Silence past the window (W=100): every crossing expires, so the
	// refreshed snapshot must be empty.
	if rec := do(t, h, http.MethodPost, "/tick", httpapi.TickRequest{Now: 400}); rec.Code != http.StatusOK {
		t.Fatalf("tick: %d", rec.Code)
	}
	after := decode[[]hotpaths.PathJSON](t, do(t, h, http.MethodGet, "/paths", nil))
	if len(after) != 0 {
		t.Errorf("stale snapshot served after tick: %d paths, want 0", len(after))
	}
}

// /paths returns every live path (no default cap), consistent with /stats.
func TestPathsEndpoint(t *testing.T) {
	h := newTestHandler(t)
	feedZigZag(t, h)

	rec := do(t, h, http.MethodGet, "/paths", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("paths: %d %s", rec.Code, rec.Body.String())
	}
	paths := decode[[]hotpaths.PathJSON](t, rec)
	st := decode[map[string]any](t, do(t, h, http.MethodGet, "/stats", nil))
	if want := int(st["index_size"].(float64)); len(paths) != want {
		t.Errorf("/paths returned %d paths, index_size is %d", len(paths), want)
	}
	for i, p := range paths {
		if p.Rank != i+1 {
			t.Errorf("rank %d at position %d", p.Rank, i)
		}
	}
}

// /paths.geojson accepts bbox and limit and rejects malformed parameters
// before any body is written.
func TestGeoJSONQueryParams(t *testing.T) {
	h := newTestHandler(t)
	feedZigZag(t, h)

	rec := do(t, h, http.MethodGet, "/paths.geojson?limit=1", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("paths.geojson?limit=1: %d", rec.Code)
	}
	var fc struct {
		Features []json.RawMessage `json:"features"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &fc); err != nil {
		t.Fatal(err)
	}
	if len(fc.Features) != 1 {
		t.Errorf("limit=1 returned %d features", len(fc.Features))
	}

	if rec := do(t, h, http.MethodGet, "/paths.geojson?bbox=nope", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("malformed bbox: %d, want 400", rec.Code)
	}
	// An empty result must still be a valid FeatureCollection: RFC 7946
	// requires a "features" array, so null is not acceptable.
	rec = do(t, h, http.MethodGet, "/paths.geojson?bbox=90000,90000,90001,90001", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("far-away bbox: %d", rec.Code)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	feats, ok := raw["features"]
	if !ok || string(feats) == "null" {
		t.Errorf("empty collection must encode \"features\": [], got %s", feats)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &fc); err != nil {
		t.Fatal(err)
	}
	if len(fc.Features) != 0 {
		t.Errorf("far-away bbox returned %d features", len(fc.Features))
	}
}

// With -wal the stats report the journal, /admin/checkpoint forces one,
// and a second server over the same directory recovers the state the
// first one served.
func TestDurableEndpoints(t *testing.T) {
	h, dir := newDurableHandler(t)
	feedZigZag(t, h)

	st := decode[map[string]any](t, do(t, h, http.MethodGet, "/stats", nil))
	if st["wal_enabled"] != true {
		t.Fatalf("wal_enabled = %v", st["wal_enabled"])
	}
	// 40 ticks + 80 observations journaled.
	if got := st["wal_records"].(float64); got != 120 {
		t.Errorf("wal_records = %v, want 120", got)
	}

	rec := do(t, h, http.MethodPost, "/admin/checkpoint", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("admin/checkpoint: %d %s", rec.Code, rec.Body.String())
	}
	if lsn := decode[map[string]any](t, rec)["lsn"].(float64); lsn != 120 {
		t.Errorf("checkpoint lsn = %v, want 120", lsn)
	}
	st = decode[map[string]any](t, do(t, h, http.MethodGet, "/stats", nil))
	if st["wal_checkpoints"].(float64) == 0 {
		t.Error("stats do not reflect the explicit checkpoint")
	}

	want := decode[[]hotpaths.PathJSON](t, do(t, h, http.MethodGet, "/paths", nil))
	if len(want) == 0 {
		t.Fatal("no paths served")
	}

	// A recovered deployment over the same directory serves identical paths.
	rec2, err := hotpaths.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rec2.Close()
	got := hotpaths.PathsJSON(rec2.Snapshot().HotPaths())
	if !reflect.DeepEqual(want, got) {
		t.Errorf("recovered paths diverge from served paths:\n want %+v\n got  %+v", want, got)
	}
}

// Without -wal, the admin endpoint must refuse rather than 404, so
// operators learn why instead of suspecting a version mismatch.
func TestCheckpointWithoutWAL(t *testing.T) {
	h := newTestHandler(t)
	if rec := do(t, h, http.MethodPost, "/admin/checkpoint", nil); rec.Code != http.StatusConflict {
		t.Errorf("admin/checkpoint without wal: %d, want 409", rec.Code)
	}
	st := decode[map[string]any](t, do(t, h, http.MethodGet, "/stats", nil))
	if st["wal_enabled"] != false {
		t.Errorf("wal_enabled = %v, want false", st["wal_enabled"])
	}
}

func TestHealthz(t *testing.T) {
	h := newTestHandler(t)
	if rec := do(t, h, http.MethodGet, "/healthz", nil); rec.Code != http.StatusOK {
		t.Errorf("healthz: %d", rec.Code)
	}
}

// GET /watch end to end: an SSE client subscribes, the zig-zag feed runs
// its epochs, and the deltas — applied event by event — must reconstruct
// exactly what /topk reports from the final snapshot.
func TestWatchStreamsDeltas(t *testing.T) {
	h := newTestHandler(t)
	ts := httptest.NewServer(h)
	defer ts.Close()

	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Get(ts.URL + "/watch?k=5&min_hotness=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("watch content-type %q", ct)
	}

	feedZigZag(t, h) // 40 timestamps -> epoch boundaries at t=10,20,30,40

	result := map[uint64]int{}
	events, sawID, sawEvent, reachedEnd := 0, false, false, false
	sc := bufio.NewScanner(resp.Body)
scan:
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			sawID = true
		case line == "event: delta":
			sawEvent = true
		case strings.HasPrefix(line, "data: "):
			var d httpapi.DeltaJSON
			if err := json.Unmarshal([]byte(line[len("data: "):]), &d); err != nil {
				t.Fatalf("bad delta payload %q: %v", line, err)
			}
			events++
			if d.Missed != 0 {
				t.Errorf("unexpected drops in a promptly-read stream: %+v", d)
			}
			if events == 1 && !d.Reset {
				t.Errorf("first event must be the reset baseline: %s", line)
			}
			if d.Entered == nil || d.Changed == nil || d.Left == nil {
				t.Errorf("delta slices must encode as [], got %s", line)
			}
			if d.Reset {
				result = map[uint64]int{}
			}
			for _, p := range d.Entered {
				result[p.ID] = p.Hotness
			}
			for _, p := range d.Changed {
				result[p.ID] = p.Hotness
			}
			for _, id := range d.Left {
				delete(result, id)
			}
			if d.Clock == 40 {
				reachedEnd = true
				break scan
			}
		}
	}
	if !reachedEnd {
		t.Fatalf("stream ended before the t=40 delta (%d events, err %v)", events, sc.Err())
	}
	if !sawID || !sawEvent {
		t.Errorf("SSE framing incomplete: id line %v, event line %v", sawID, sawEvent)
	}
	if events < 2 {
		t.Errorf("only %d delta events over 4 epochs", events)
	}

	rec := do(t, h, http.MethodGet, "/topk?k=5&min_hotness=1", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("topk: %d", rec.Code)
	}
	want := map[uint64]int{}
	for _, p := range decode[[]hotpaths.PathJSON](t, rec) {
		want[p.ID] = p.Hotness
	}
	if len(want) == 0 {
		t.Fatal("no hot paths at t=40; the feed should have produced some")
	}
	if !reflect.DeepEqual(result, want) {
		t.Errorf("SSE-reconstructed result %v != /topk %v", result, want)
	}
}

// poisonableDaemon is a -wal daemon whose every append after the first
// rotates a segment. obs posts one observation at tick; poison yanks the
// journal directory out from under it, so the next append's rotation
// fails and poisons the log — the closest test stand-in for a dying disk.
func poisonableDaemon(t *testing.T) (s *server, h http.Handler, obs func(tick int64) *httptest.ResponseRecorder, poison func()) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "wal")
	dur, err := hotpaths.OpenDurable(dir, hotpaths.DurableConfig{
		Config:          serverTestConfig(),
		Shards:          2,
		FsyncInterval:   -1,
		CheckpointEvery: -1,
		SegmentBytes:    1, // every append after the first forces a segment rotation
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dur.Close() }) // returns the poisoning error; irrelevant here
	s = newServer(dur, serverOpts{dur: dur})
	t.Cleanup(s.stopWatches)
	h = s.handler()
	obs = func(tick int64) *httptest.ResponseRecorder {
		return do(t, h, http.MethodPost, "/observe", httpapi.ObserveRequest{
			Observations: []hotpaths.ObservationJSON{{Object: 1, X: float64(tick), Y: 0, T: tick}},
		})
	}
	poison = func() {
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
	}
	return s, h, obs, poison
}

// Once journal I/O fails the WAL is poisoned and every write is refused;
// /healthz must flip to 503 with the poisoning error and /stats must
// surface it as wal_error, instead of the old unconditional 200.
func TestHealthzReportsPoisonedWAL(t *testing.T) {
	_, h, obs, poison := poisonableDaemon(t)

	if rec := do(t, h, http.MethodGet, "/healthz", nil); rec.Code != http.StatusOK {
		t.Fatalf("healthy daemon: healthz = %d", rec.Code)
	}
	st := decode[map[string]any](t, do(t, h, http.MethodGet, "/stats", nil))
	if got := st["wal_error"]; got != "" {
		t.Fatalf("healthy daemon: wal_error = %v", got)
	}

	if rec := obs(1); rec.Code != http.StatusOK {
		t.Fatalf("first observe: %d %s", rec.Code, rec.Body.String())
	}
	poison()
	// The poisoning write itself may surface as either status depending
	// on when the failure is detected, but once poisoned every further
	// write must be 503 — it is a server fault, not a client one.
	if rec := obs(2); rec.Code != http.StatusBadRequest && rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("write on a dying WAL: %d, want 400 or 503", rec.Code)
	}
	if rec := obs(3); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("write on a poisoned WAL: %d, want 503", rec.Code)
	}

	rec := do(t, h, http.MethodGet, "/healthz", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("poisoned daemon: healthz = %d, want 503", rec.Code)
	}
	body := decode[map[string]any](t, rec)
	if body["status"] != "degraded" || body["error"] == "" {
		t.Errorf("healthz body %v", body)
	}
	st = decode[map[string]any](t, do(t, h, http.MethodGet, "/stats", nil))
	if got, _ := st["wal_error"].(string); !strings.Contains(got, "wal") {
		t.Errorf("stats wal_error = %q, want the poisoning error", got)
	}
}

// The daemon's SLO reads the request families its routes register: a 503
// from a poisoned WAL burns availability budget. An SLO pointed at a
// family nobody registers reads 0 forever, whatever the daemon answers.
func TestSLOBurnsOnServerErrors(t *testing.T) {
	s, _, obs, poison := poisonableDaemon(t)
	obs(1)
	poison()
	obs(2)
	if rec := obs(3); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("write on a poisoned WAL: %d, want 503", rec.Code)
	}
	if got := s.slo.Status().AvailabilityFast; got <= 0 {
		t.Fatalf("availability burn after a 503 = %v, want > 0", got)
	}
}
