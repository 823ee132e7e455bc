package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"hotpaths"
	"hotpaths/internal/httpapi"
)

// newReplicaPair builds a durable primary served over a real listener and
// a follower server attached to it — the in-process shape of
// `hotpathsd -wal DIR` plus `hotpathsd -follow URL`.
func newReplicaPair(t *testing.T, maxLag uint64) (primary http.Handler, dur *hotpaths.Durable, follower http.Handler, fol *hotpaths.Follower) {
	t.Helper()
	dir := t.TempDir()
	dur, err := hotpaths.OpenDurable(dir, hotpaths.DurableConfig{
		Config:        serverTestConfig(),
		Shards:        2,
		FsyncInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dur.Close() })
	primary = newServer(dur, serverOpts{dur: dur}).handler()
	srv := httptest.NewServer(primary)
	t.Cleanup(srv.Close)

	fol, err = hotpaths.OpenFollower(srv.URL, hotpaths.FollowerConfig{
		Shards:       2,
		ReconnectMin: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fol.Close() })
	follower = newServer(fol, serverOpts{fol: fol, maxLag: maxLag}).handler()
	return primary, dur, follower, fol
}

// TestFollowerWritesForbidden pins the daemon half of the read-only
// contract: every write endpoint answers 403 and names the primary.
func TestFollowerWritesForbidden(t *testing.T) {
	_, _, follower, _ := newReplicaPair(t, 0)
	writes := []struct {
		method, path string
		body         any
	}{
		{http.MethodPost, "/observe", httpapi.ObserveRequest{Observations: []hotpaths.ObservationJSON{{Object: 1, X: 1, Y: 2, T: 3}}}},
		{http.MethodPost, "/tick", httpapi.TickRequest{Now: 5}},
		{http.MethodPost, "/admin/checkpoint", nil},
	}
	for _, wr := range writes {
		rec := do(t, follower, wr.method, wr.path, wr.body)
		if rec.Code != http.StatusForbidden {
			t.Errorf("%s %s on follower: %d, want 403", wr.method, wr.path, rec.Code)
			continue
		}
		resp := decode[map[string]any](t, rec)
		if resp["primary"] == "" || resp["error"] == "" {
			t.Errorf("%s %s: 403 body must name the error and the primary, got %v", wr.method, wr.path, resp)
		}
	}
	// The rejected writes reached no state.
	st := decode[map[string]any](t, do(t, follower, http.MethodGet, "/stats", nil))
	if got := st["observations"]; got != float64(0) {
		t.Fatalf("rejected writes leaked into stats: %v", got)
	}
}

// TestFollowerServesIdenticalReads drives the primary over HTTP and
// checks the follower's /topk, /paths and /stats converge to identical
// answers, with the replication_* fields tracking the catch-up.
func TestFollowerServesIdenticalReads(t *testing.T) {
	primary, dur, follower, fol := newReplicaPair(t, 0)

	// A deterministic three-lane flow, driven through the primary's HTTP
	// ingest exactly as a producer would.
	for tick := int64(1); tick <= 60; tick++ {
		var obs []hotpaths.ObservationJSON
		for lane := 0; lane < 3; lane++ {
			obs = append(obs, hotpaths.ObservationJSON{
				Object: lane, X: float64(tick) * 10, Y: float64(lane * 50), T: tick,
			})
		}
		rec := do(t, primary, http.MethodPost, "/observe", httpapi.ObserveRequest{Observations: obs, Tick: tick})
		if rec.Code != http.StatusOK {
			t.Fatalf("primary observe at t=%d: %d %s", tick, rec.Code, rec.Body)
		}
	}

	// Wait until the follower has applied everything the primary journaled.
	want := dur.NextLSN()
	deadline := time.Now().Add(15 * time.Second)
	for fol.Replication().AppliedLSN < want {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck: %+v (want lsn %d)", fol.Replication(), want)
		}
		time.Sleep(time.Millisecond)
	}

	for _, path := range []string{"/topk", "/paths", "/topk?sort=score&k=5", "/paths?min_hotness=2"} {
		p := do(t, primary, http.MethodGet, path, nil)
		f := do(t, follower, http.MethodGet, path, nil)
		if p.Code != http.StatusOK || f.Code != http.StatusOK {
			t.Fatalf("%s: primary %d, follower %d", path, p.Code, f.Code)
		}
		if !reflect.DeepEqual(p.Body.Bytes(), f.Body.Bytes()) {
			t.Errorf("%s diverged:\nprimary:  %s\nfollower: %s", path, p.Body, f.Body)
		}
	}

	pst := decode[map[string]any](t, do(t, primary, http.MethodGet, "/stats", nil))
	fst := decode[map[string]any](t, do(t, follower, http.MethodGet, "/stats", nil))
	for _, key := range []string{"observations", "epoch", "clock", "snapshot_paths", "index_size", "crossings"} {
		if pst[key] != fst[key] {
			t.Errorf("stats[%q]: primary %v, follower %v", key, pst[key], fst[key])
		}
	}
	if fst["replica"] != true || pst["replica"] != false {
		t.Errorf("replica flags: primary %v, follower %v", pst["replica"], fst["replica"])
	}
	if fst["replication_connected"] != true {
		t.Errorf("follower stats not connected: %v", fst)
	}
	if fst["replication_applied_lsn"] != float64(want) {
		t.Errorf("replication_applied_lsn = %v, want %d", fst["replication_applied_lsn"], want)
	}

	// Forced reconnect via the admin endpoint, then convergence again.
	if rec := do(t, follower, http.MethodPost, "/admin/reconnect", nil); rec.Code != http.StatusOK {
		t.Fatalf("admin/reconnect: %d", rec.Code)
	}
	deadline = time.Now().Add(15 * time.Second)
	for {
		rs := fol.Replication()
		if rs.Connected && rs.Reconnects > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never reconnected: %+v", rs)
		}
		time.Sleep(time.Millisecond)
	}
}

// A follower's reads follow the replicated clock: a /topk taken mid-stream
// must not pin its view, so after more ticks are applied the next read
// equals the primary's bytes and carries the new clock.
func TestFollowerReadFollowsAppliedTicks(t *testing.T) {
	primary, dur, follower, fol := newReplicaPair(t, 0)
	feed := func(from, to int64) {
		t.Helper()
		for tick := from; tick <= to; tick++ {
			var obs []hotpaths.ObservationJSON
			for lane := 0; lane < 3; lane++ {
				// Zig-zag lanes, so paths form and the answer moves.
				obs = append(obs, hotpaths.ObservationJSON{
					Object: lane, X: float64(tick) * 10, Y: float64(lane*50 + int(tick/5%2)*40), T: tick,
				})
			}
			rec := do(t, primary, http.MethodPost, "/observe", httpapi.ObserveRequest{Observations: obs, Tick: tick})
			if rec.Code != http.StatusOK {
				t.Fatalf("primary observe at t=%d: %d %s", tick, rec.Code, rec.Body)
			}
		}
		want := dur.NextLSN()
		deadline := time.Now().Add(15 * time.Second)
		for fol.Replication().AppliedLSN < want {
			if time.Now().After(deadline) {
				t.Fatalf("follower stuck: %+v (want lsn %d)", fol.Replication(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	read := func(h http.Handler) *httptest.ResponseRecorder {
		t.Helper()
		rec := do(t, h, http.MethodGet, "/topk", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("/topk: %d %s", rec.Code, rec.Body)
		}
		return rec
	}

	feed(1, 30)
	mid := read(follower)
	if got := mid.Header().Get(hotpaths.ClockHeader); got != "30" {
		t.Fatalf("mid-stream follower clock header = %q, want 30", got)
	}
	feed(31, 45)
	p, f := read(primary), read(follower)
	if got := f.Header().Get(hotpaths.ClockHeader); got != "45" {
		t.Errorf("follower clock header after more ticks = %q, want 45", got)
	}
	if !bytes.Equal(p.Body.Bytes(), f.Body.Bytes()) {
		t.Errorf("follower /topk after more ticks diverged:\nprimary:  %s\nfollower: %s", p.Body, f.Body)
	}
	if bytes.Equal(mid.Body.Bytes(), f.Body.Bytes()) {
		t.Error("the follower served its mid-stream /topk again; the feed moved the answer")
	}
}

// TestFollowerHealthzDegradesOnLag: with a 1-record threshold and the
// primary gone, /healthz flips to 503 once the follower can no longer
// keep up (disconnection is immediate degradation).
func TestFollowerHealthzDegrades(t *testing.T) {
	dir := t.TempDir()
	dur, err := hotpaths.OpenDurable(dir, hotpaths.DurableConfig{
		Config:        serverTestConfig(),
		FsyncInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	primary := newServer(dur, serverOpts{dur: dur}).handler()
	srv := httptest.NewServer(primary)

	fol, err := hotpaths.OpenFollower(srv.URL, hotpaths.FollowerConfig{ReconnectMin: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	follower := newServer(fol, serverOpts{fol: fol, maxLag: 1}).handler()

	// Healthy while the stream is up.
	deadline := time.Now().Add(10 * time.Second)
	for !fol.Replication().Connected {
		if time.Now().After(deadline) {
			t.Fatalf("follower never connected: %+v", fol.Replication())
		}
		time.Sleep(time.Millisecond)
	}
	if rec := do(t, follower, http.MethodGet, "/healthz", nil); rec.Code != http.StatusOK {
		t.Fatalf("connected follower healthz = %d: %s", rec.Code, rec.Body)
	}

	// Kill the primary: the stream drops and reconnects keep failing, so
	// the follower must report itself degraded.
	srv.CloseClientConnections()
	srv.Close()
	deadline = time.Now().Add(15 * time.Second)
	for {
		rec := do(t, follower, http.MethodGet, "/healthz", nil)
		if rec.Code == http.StatusServiceUnavailable {
			resp := decode[map[string]any](t, rec)
			if resp["status"] != "degraded" {
				t.Fatalf("degraded healthz body: %v", resp)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower healthz never degraded after primary death")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPrimaryFeedEndpoints: the replication feed is mounted iff -wal is
// set, and absent on bare engines.
func TestPrimaryFeedEndpoints(t *testing.T) {
	durH, _ := newDurableHandler(t)
	if rec := do(t, durH, http.MethodGet, "/wal/meta", nil); rec.Code != http.StatusOK {
		t.Errorf("/wal/meta on primary: %d", rec.Code)
	}
	// Fresh directory: no checkpoint yet.
	if rec := do(t, durH, http.MethodGet, "/wal/checkpoint", nil); rec.Code != http.StatusNotFound {
		t.Errorf("/wal/checkpoint on fresh primary: %d, want 404", rec.Code)
	}
	if rec := do(t, durH, http.MethodGet, "/wal/stream?from=abc", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("/wal/stream?from=abc: %d, want 400", rec.Code)
	}

	bare := newTestHandler(t)
	for _, path := range []string{"/wal/meta", "/wal/checkpoint", "/wal/stream"} {
		if rec := do(t, bare, http.MethodGet, path, nil); rec.Code != http.StatusNotFound {
			t.Errorf("%s on bare engine: %d, want 404", path, rec.Code)
		}
	}
}
