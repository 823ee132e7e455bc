package hotpaths

import (
	"context"
	"reflect"
	"testing"

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
		if err := live.Tick(batch[0].T); err != nil {
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
