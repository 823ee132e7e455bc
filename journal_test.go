package hotpaths

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"hotpaths/internal/replication"
	"hotpaths/internal/wal"
)

// The applier's flush boundaries are a throughput knob, never a semantic
// one: replaying one journal in batches of 1, 7 and 1,024 records must
// land on the same state, the one live ingestion reached, with the
// applied position reported over exactly the fully-applied prefixes.
func TestApplierFlushBoundariesDoNotMatter(t *testing.T) {
	cfg := engineTestConfig()
	cfg.Delta = 0.05
	batches := makeNoisy(flowWorkload(24, 90, 21))
	var recs []wal.Record
	live, err := NewEngine(EngineConfig{Config: cfg, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	for _, batch := range batches {
		for _, o := range batch {
			recs = append(recs, recordOf(o))
		}
		recs = append(recs, wal.Record{Kind: wal.KindTick, T: batch[0].T})
		if err := live.ObserveBatchCtx(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
		if err := live.TickCtx(context.Background(), batch[0].T); err != nil {
			t.Fatal(err)
		}
	}
	want := live.Snapshot()
	if want.Len() == 0 {
		t.Fatal("workload discovered no paths")
	}

	for _, limit := range []int{1, 7, applyBatch} {
		eng, err := NewEngine(EngineConfig{Config: cfg, Shards: 3})
		if err != nil {
			t.Fatal(err)
		}
		a := newApplier(eng)
		a.limit = limit
		var last uint64
		flushes := 0
		a.applied = func(next uint64) {
			if next <= last {
				t.Fatalf("limit %d: applied position went %d -> %d", limit, last, next)
			}
			last = next
			flushes++
		}
		const base = 1000 // LSNs need not start at zero: a follower resumes mid-log
		for i, r := range recs {
			if err := a.apply(base+uint64(i), r); err != nil {
				t.Fatal(err)
			}
		}
		a.flush()
		if last != base+uint64(len(recs)) {
			t.Errorf("limit %d: applied through LSN %d, want %d", limit, last, base+len(recs))
		}
		if limit == 1 && flushes != len(recs) {
			t.Errorf("limit 1: %d flushes for %d records", flushes, len(recs))
		}
		got := eng.Snapshot()
		if got.Clock() != want.Clock() || got.Stats() != want.Stats() ||
			!reflect.DeepEqual(got.HotPaths(), want.HotPaths()) {
			t.Errorf("limit %d: replayed state diverges from live ingestion:\n want %+v\n got  %+v", limit, want.Stats(), got.Stats())
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// A record kind this build does not know stops the replay.
	eng, err := NewEngine(EngineConfig{Config: cfg, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := newApplier(eng).apply(0, wal.Record{Kind: wal.KindHeartbeat}); err == nil {
		t.Error("a heartbeat record was applied as if it were journaled")
	}
}

// A CRC-valid record that ingest could never have journaled (a
// non-finite coordinate, from a hostile primary stream or a crafted
// segment) is refused by its LSN wherever a journal is replayed, and the
// good records before it are neither dropped with it nor reported past it.
func TestReplayRefusesInvalidObservation(t *testing.T) {
	cfg := engineTestConfig()
	dir := t.TempDir()
	dcfg := DurableConfig{Config: cfg, FsyncInterval: -1, CheckpointEvery: -1}
	dur, err := OpenDurable(dir, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	var batch []Observation
	for id := 0; id < 10; id++ {
		batch = append(batch, Observation{ObjectID: id, X: float64(id), Y: 1, T: 1})
	}
	if err := dur.ObserveBatchCtx(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	if _, err := dur.log.Append(wal.Record{Kind: wal.KindObserve, ObjectID: 10, X: math.NaN(), T: 1}); err != nil {
		t.Fatal(err)
	}
	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}
	const refusal = "hotpaths: journal record at LSN 10 cannot be replayed: hotpaths: observation 10: coordinates must be finite, got (NaN, 0)"

	eng, err := Recover(dir)
	if fmt.Sprint(err) != refusal {
		t.Errorf("Recover: %v, want %q", err, refusal)
	}
	if eng != nil {
		t.Errorf("Recover handed back an engine with %d observations applied", eng.Stats().Observations)
		eng.Close()
	}
	d, err := OpenDurable(dir, dcfg)
	if fmt.Sprint(err) != refusal {
		t.Errorf("OpenDurable: %v, want %q", err, refusal)
	}
	if d != nil {
		d.Close()
	}

	rs := &replication.Server{
		Dir:       dir,
		Position:  func() replication.Status { return replication.Status{NextLSN: 11} },
		Heartbeat: 10 * time.Millisecond,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+replication.StreamPath, rs.ServeStream)
	mux.HandleFunc("GET "+replication.CheckpointPath, rs.ServeCheckpoint)
	mux.HandleFunc("GET "+replication.MetaPath, rs.ServeMeta)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	f, err := OpenFollower(srv.URL, FollowerConfig{ReconnectMin: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := f.Replication()
		if st.LastError == refusal {
			if st.AppliedLSN != 10 {
				t.Errorf("follower applied through LSN %d, want 10 (the good prefix only)", st.AppliedLSN)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never refused the record: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}
