package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"hotpaths"
	"hotpaths/internal/flightrec"
	"hotpaths/internal/gateway"
	"hotpaths/internal/httpapi"
	"hotpaths/internal/partition"
)

// lastEventSeq is the exactly-once baseline: every assertion below
// counts only events recorded after it, so the process-global ring
// shared with other tests never bleeds into the counts.
func lastEventSeq() uint64 {
	evs := flightrec.Default.Snapshot("", time.Time{}, 0)
	if len(evs) == 0 {
		return 0
	}
	return evs[len(evs)-1].Seq
}

// eventsVia fetches one event type through the real admin surface —
// GET /debug/events on adminHandler's mux, the endpoint operators use —
// and keeps only events newer than the baseline seq.
func eventsVia(t *testing.T, typ string, after uint64) []map[string]any {
	t.Helper()
	rec := do(t, httpapi.AdminHandler(), http.MethodGet, "/debug/events?type="+typ, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/events: %d %s", rec.Code, rec.Body.String())
	}
	all := decode[[]map[string]any](t, rec)
	var out []map[string]any
	for _, ev := range all {
		if seq, _ := ev["seq"].(float64); uint64(seq) > after {
			out = append(out, ev)
		}
	}
	return out
}

// TestPoisonedWALEventExactlyOnce: the healthy-to-poisoned flip is one
// flight-recorder event, no matter how many writes fail afterwards —
// and /healthz carries the stable wal_poisoned reason token.
func TestPoisonedWALEventExactlyOnce(t *testing.T) {
	base := lastEventSeq()
	dir := filepath.Join(t.TempDir(), "wal")
	dur, err := hotpaths.OpenDurable(dir, hotpaths.DurableConfig{
		Config:          serverTestConfig(),
		Shards:          2,
		FsyncInterval:   -1,
		CheckpointEvery: -1,
		SegmentBytes:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dur.Close() })
	h := newServer(dur, serverOpts{dur: dur}).handler()

	obs := func(tick int64) int {
		return do(t, h, http.MethodPost, "/observe", httpapi.ObserveRequest{
			Observations: []hotpaths.ObservationJSON{{Object: 1, X: float64(tick), Y: 0, T: tick}},
		}).Code
	}
	if code := obs(1); code != http.StatusOK {
		t.Fatalf("first observe: %d", code)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	// The poisoning write, then several more on the already-poisoned log:
	// only the flip is an event.
	obs(2)
	for tick := int64(3); tick <= 6; tick++ {
		if code := obs(tick); code != http.StatusServiceUnavailable {
			t.Fatalf("write %d on a poisoned WAL: %d, want 503", tick, code)
		}
	}
	evs := eventsVia(t, flightrec.EvWALPoisoned, base)
	if len(evs) != 1 {
		t.Fatalf("wal_poisoned events = %d, want exactly 1: %v", len(evs), evs)
	}

	// The stable degraded-cause token, and a single daemon-level
	// health transition across repeated polls.
	transBase := lastEventSeq()
	for i := 0; i < 3; i++ {
		rec := do(t, h, http.MethodGet, "/healthz", nil)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("poisoned healthz poll %d: %d, want 503", i, rec.Code)
		}
		if body := decode[map[string]any](t, rec); body["reason"] != "wal_poisoned" {
			t.Fatalf("healthz reason = %v, want wal_poisoned", body["reason"])
		}
	}
	trans := eventsVia(t, flightrec.EvHealthTransition, transBase)
	if len(trans) != 1 {
		t.Fatalf("health_transition events over 3 polls = %d, want exactly 1: %v", len(trans), trans)
	}
	attrs, _ := trans[0]["attrs"].(map[string]any)
	if attrs["to"] != "degraded" || attrs["reason"] != "wal_poisoned" {
		t.Errorf("transition attrs = %v, want to=degraded reason=wal_poisoned", attrs)
	}
}

// TestFollowerReplicationEventsExactlyOnce: the connect and disconnect
// flips each record one event — heartbeats and failed reconnect
// attempts, which repeat constantly, record none.
func TestFollowerReplicationEventsExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	dur, err := hotpaths.OpenDurable(dir, hotpaths.DurableConfig{
		Config:        serverTestConfig(),
		FsyncInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	srv := httptest.NewServer(newServer(dur, serverOpts{dur: dur}).handler())

	base := lastEventSeq()
	fol, err := hotpaths.OpenFollower(srv.URL, hotpaths.FollowerConfig{ReconnectMin: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	follower := newServer(fol, serverOpts{fol: fol}).handler()

	waitReplication(t, fol, func(rs hotpaths.ReplicationStats) bool { return rs.Connected })
	if evs := eventsVia(t, flightrec.EvReplConnect, base); len(evs) != 1 {
		t.Fatalf("replication_connect events after first connect = %d, want 1: %v", len(evs), evs)
	}

	// A forced reconnect drops and re-establishes the stream: exactly one
	// disconnect and one more connect.
	reconnects := fol.Replication().Reconnects
	if rec := do(t, follower, http.MethodPost, "/admin/reconnect", nil); rec.Code != http.StatusOK {
		t.Fatalf("/admin/reconnect: %d", rec.Code)
	}
	waitReplication(t, fol, func(rs hotpaths.ReplicationStats) bool {
		return rs.Connected && rs.Reconnects > reconnects
	})
	if evs := eventsVia(t, flightrec.EvReplDisconnect, base); len(evs) != 1 {
		t.Fatalf("replication_disconnect events after forced reconnect = %d, want 1: %v", len(evs), evs)
	}
	if evs := eventsVia(t, flightrec.EvReplConnect, base); len(evs) != 2 {
		t.Fatalf("replication_connect events after forced reconnect = %d, want 2: %v", len(evs), evs)
	}

	// Kill the primary: the stream drops once, then every reconnect
	// attempt fails — still exactly one more disconnect event.
	srv.CloseClientConnections()
	srv.Close()
	waitReplication(t, fol, func(rs hotpaths.ReplicationStats) bool { return !rs.Connected })
	// Give the retry loop time for several failed attempts (ReconnectMin
	// is 1ms); none of them may record an event.
	time.Sleep(50 * time.Millisecond)
	if evs := eventsVia(t, flightrec.EvReplDisconnect, base); len(evs) != 2 {
		t.Fatalf("replication_disconnect events after primary death = %d, want 2: %v", len(evs), evs)
	}

	// The stable degraded-cause token, and the per-component breakdown.
	rec := do(t, follower, http.MethodGet, "/healthz?verbose=1", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("disconnected follower healthz: %d, want 503", rec.Code)
	}
	body := decode[map[string]any](t, rec)
	if body["reason"] != "replication_disconnected" {
		t.Errorf("healthz reason = %v, want replication_disconnected", body["reason"])
	}
	comps, _ := body["components"].(map[string]any)
	repl, _ := comps["replication"].(map[string]any)
	if repl == nil || repl["status"] != "degraded" {
		t.Errorf("replication component = %v, want status degraded", comps["replication"])
	}
	if slo, _ := comps["slo"].(map[string]any); slo == nil || slo["status"] == nil {
		t.Errorf("slo component missing: %v", comps)
	}
}

// TestEventTypesThroughRealPaths produces every flight-recorder type that
// the tests above do not, each by the code that records it, and reads it
// back through /debug/events: a -wal primary with small segments feeds
// epochs past a /watch client that stopped reading and checkpoints; its
// follower is re-bootstrapped when the primary behind its URL is replaced
// by one with a shorter log; and a gateway reads with a partition down.
func TestEventTypesThroughRealPaths(t *testing.T) {
	base := lastEventSeq()
	open := func() *hotpaths.Durable {
		dur, err := hotpaths.OpenDurable(t.TempDir(), hotpaths.DurableConfig{
			Config:          serverTestConfig(),
			Shards:          2,
			SegmentBytes:    2048,
			FsyncInterval:   time.Millisecond,
			CheckpointEvery: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dur.Close() })
		return dur
	}
	dur := open()
	primary := newServer(dur, serverOpts{dur: dur}).handler()
	var behindURL atomic.Pointer[http.Handler]
	behindURL.Store(&primary)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*behindURL.Load()).ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)

	watcher := &stalledWatcher{hdr: http.Header{}, blocked: make(chan struct{}), release: make(chan struct{})}
	watchCtx, stopWatch := context.WithCancel(context.Background())
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		primary.ServeHTTP(watcher, httptest.NewRequest(http.MethodGet, "/watch?k=5", nil).WithContext(watchCtx))
	}()
	<-watcher.blocked
	feedZigZag(t, primary)
	for now := int64(50); now <= 240; now += 10 {
		if rec := do(t, primary, http.MethodPost, "/tick", httpapi.TickRequest{Now: now}); rec.Code != http.StatusOK {
			t.Fatalf("tick %d: %d %s", now, rec.Code, rec.Body.String())
		}
	}
	stopWatch()
	close(watcher.release)
	<-watchDone
	if rec := do(t, primary, http.MethodPost, "/admin/checkpoint", nil); rec.Code != http.StatusOK {
		t.Fatalf("checkpoint: %d %s", rec.Code, rec.Body.String())
	}

	fol, err := hotpaths.OpenFollower(srv.URL, hotpaths.FollowerConfig{ReconnectMin: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fol.Close() })
	follower := newServer(fol, serverOpts{fol: fol}).handler()
	waitReplication(t, fol, func(rs hotpaths.ReplicationStats) bool {
		return rs.Connected && rs.AppliedLSN == dur.NextLSN()
	})
	bootstraps := fol.Replication().Bootstraps
	fresh := open()
	replacement := newServer(fresh, serverOpts{dur: fresh}).handler()
	behindURL.Store(&replacement)
	if rec := do(t, follower, http.MethodPost, "/admin/reconnect", nil); rec.Code != http.StatusOK {
		t.Fatalf("/admin/reconnect: %d", rec.Code)
	}
	waitReplication(t, fol, func(rs hotpaths.ReplicationStats) bool {
		return rs.Connected && rs.Bootstraps > bootstraps
	})

	urls := make([]string, 2)
	parts := make([]*httptest.Server, 2)
	for i := range parts {
		eng, err := hotpaths.NewEngine(hotpaths.EngineConfig{Config: serverTestConfig()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		parts[i] = httptest.NewServer(newServer(eng, serverOpts{partitionID: i, partitionCount: 2}).handler())
		t.Cleanup(parts[i].Close)
		urls[i] = parts[i].URL
	}
	gw, err := gateway.New(gateway.Config{Table: partition.NewTable(urls...), K: 5, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	parts[1].Close()
	if rec := do(t, gw.Handler(), http.MethodGet, "/topk", nil); rec.Code != http.StatusPartialContent {
		t.Fatalf("gateway /topk with partition 1 down: %d %s, want 206", rec.Code, rec.Body.String())
	}

	for _, typ := range []string{
		flightrec.EvEpochBarrier,
		flightrec.EvWALRotation,
		flightrec.EvCheckpointStart,
		flightrec.EvCheckpointFinish,
		flightrec.EvReplRebootstrap,
		flightrec.EvSubscriberReset,
		flightrec.EvGatewayPartial,
	} {
		if len(eventsVia(t, typ, base)) == 0 {
			t.Errorf("/debug/events has no %s event", typ)
		}
	}
	for _, ev := range eventsVia(t, flightrec.EvGatewayPartial, base) {
		if attrs, _ := ev["attrs"].(map[string]any); attrs["missing_partitions"] != "1" {
			t.Errorf("gateway_partial_read attrs = %v, want missing_partitions 1", attrs)
		}
	}
}

func waitReplication(t *testing.T, fol *hotpaths.Follower, ok func(hotpaths.ReplicationStats) bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !ok(fol.Replication()) {
		if time.Now().After(deadline) {
			t.Fatalf("replication state never reached: %+v", fol.Replication())
		}
		time.Sleep(time.Millisecond)
	}
}
