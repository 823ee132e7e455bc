package flightrec

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"hotpaths/internal/tracing"
)

func TestRecorderBasic(t *testing.T) {
	r := New(16)
	r.Record(EvWALRotation, KV("segment", 3))
	r.Record(EvEpochBarrier, KV("duration_us", 42), KV("changed", 7))
	evs := r.Snapshot("", time.Time{}, 0)
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Type != EvWALRotation || evs[1].Type != EvEpochBarrier {
		t.Fatalf("wrong order: %q, %q", evs[0].Type, evs[1].Type)
	}
	if evs[0].Seq != 1 || evs[1].Seq != 2 {
		t.Fatalf("wrong seqs: %d, %d", evs[0].Seq, evs[1].Seq)
	}
	if evs[1].Attrs[0].Key != "duration_us" {
		t.Fatalf("attrs not retained: %+v", evs[1].Attrs)
	}
	if got := r.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
}

func TestRecorderWrap(t *testing.T) {
	r := New(4)
	for i := 0; i < 10; i++ {
		r.Record(EvEpochBarrier, KV("i", i))
	}
	evs := r.Snapshot("", time.Time{}, 0)
	if len(evs) != 4 {
		t.Fatalf("got %d events, want ring capacity 4", len(evs))
	}
	// Oldest retained is seq 7 (events 1..6 overwritten), newest seq 10.
	if evs[0].Seq != 7 || evs[3].Seq != 10 {
		t.Fatalf("retained seqs %d..%d, want 7..10", evs[0].Seq, evs[3].Seq)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("seqs not consecutive: %d after %d", evs[i].Seq, evs[i-1].Seq)
		}
	}
}

func TestRecorderFilters(t *testing.T) {
	r := New(64)
	r.Record(EvWALRotation)
	r.Record(EvEpochBarrier)
	cut := time.Now()
	r.Record(EvEpochBarrier)
	r.Record(EvWALPoisoned, KV("error", "disk gone"))

	if evs := r.Snapshot(EvEpochBarrier, time.Time{}, 0); len(evs) != 2 {
		t.Fatalf("type filter: got %d, want 2", len(evs))
	}
	if evs := r.Snapshot("", cut, 0); len(evs) != 2 {
		t.Fatalf("since filter: got %d, want 2", len(evs))
	}
	evs := r.Snapshot("", time.Time{}, 3)
	if len(evs) != 3 || evs[0].Type != EvEpochBarrier || evs[2].Type != EvWALPoisoned {
		t.Fatalf("limit filter keeps newest: %+v", evs)
	}
	if evs := r.Snapshot(EvEpochBarrier, cut, 1); len(evs) != 1 || evs[0].Seq != 3 {
		t.Fatalf("combined filters: %+v", evs)
	}
}

func TestRecorderTraceCorrelation(t *testing.T) {
	r := New(8)
	tr := tracing.New("flightrec-test", 1, 0)
	var span *tracing.Span
	tr.Root(context.Background(), "op", func(ctx context.Context, s *tracing.Span) error {
		if s == nil {
			t.Fatal("rate-1 tracer did not sample")
		}
		span = s
		r.RecordCtx(ctx, EvCheckpointStart, KV("lsn", 99))
		r.RecordCtx(context.Background(), EvCheckpointFinish)
		return nil
	})

	evs := r.Snapshot("", time.Time{}, 0)
	if want := span.TraceID().String(); evs[0].TraceID != want {
		t.Fatalf("trace id %q, want %q", evs[0].TraceID, want)
	}
	if evs[1].TraceID != "" {
		t.Fatalf("untraced context got trace id %q", evs[1].TraceID)
	}
}

// TestRecorderConcurrent hammers concurrent Record/RecordCtx/Snapshot;
// it exists to fail under -race if any path touches the ring unlocked.
func TestRecorderConcurrent(t *testing.T) {
	r := New(128)
	const workers, each = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if i%2 == 0 {
					r.Record(EvEpochBarrier, KV("worker", w))
				} else {
					r.RecordCtx(context.Background(), EvWALRotation)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			evs := r.Snapshot("", time.Time{}, 0)
			for j := 1; j < len(evs); j++ {
				if evs[j].Seq <= evs[j-1].Seq {
					t.Errorf("snapshot seqs out of order: %d then %d", evs[j-1].Seq, evs[j].Seq)
					return
				}
			}
		}
	}()
	wg.Wait()
	if got := r.Len(); got != 128 {
		t.Fatalf("Len = %d, want full ring 128", got)
	}
}

func TestEventsHandler(t *testing.T) {
	r := New(32)
	r.Record(EvWALRotation, KV("segment", 1))
	r.Record(EvHealthTransition, KV("from", "ok"), KV("to", "degraded"), KV("reason", "wal_poisoned"))
	mux := http.NewServeMux()
	r.RegisterDebug(mux)

	get := func(url string) (*httptest.ResponseRecorder, []map[string]any) {
		t.Helper()
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		var out []map[string]any
		if rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatalf("%s: bad JSON: %v", url, err)
			}
		}
		return rec, out
	}

	if _, out := get("/debug/events"); len(out) != 2 {
		t.Fatalf("unfiltered: got %d events, want 2", len(out))
	}
	_, out := get("/debug/events?type=health_transition")
	if len(out) != 1 || out[0]["type"] != EvHealthTransition {
		t.Fatalf("type filter: %+v", out)
	}
	attrs, _ := out[0]["attrs"].(map[string]any)
	if attrs["reason"] != "wal_poisoned" {
		t.Fatalf("attrs lost: %+v", out[0])
	}
	if _, out := get("/debug/events?limit=1"); len(out) != 1 || out[0]["type"] != EvHealthTransition {
		t.Fatalf("limit keeps newest: %+v", out)
	}
	if _, out := get("/debug/events?since=5m"); len(out) != 2 {
		t.Fatalf("relative since: got %d, want 2", len(out))
	}
	old := time.Now().Add(time.Hour).UTC().Format(time.RFC3339Nano)
	if _, out := get("/debug/events?since=" + old); len(out) != 0 {
		t.Fatalf("future since: got %d, want 0", len(out))
	}
	if rec, _ := get("/debug/events?since=yesterday"); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad since: status %d, want 400", rec.Code)
	}
	if rec, _ := get("/debug/events?limit=-1"); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad limit: status %d, want 400", rec.Code)
	}
}

func TestDumpTo(t *testing.T) {
	r := New(8)
	r.Record(EvWALPoisoned, KV("error", "short write"))
	dir := t.TempDir()
	path, err := r.DumpTo(dir, "test")
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Reason string `json:"reason"`
		PID    int    `json:"pid"`
		Events []struct {
			Type  string         `json:"type"`
			Attrs map[string]any `json:"attrs"`
		} `json:"events"`
	}
	if err := json.Unmarshal(b, &dump); err != nil {
		t.Fatalf("dump is not JSON: %v", err)
	}
	if dump.Reason != "test" || dump.PID != os.Getpid() {
		t.Fatalf("header wrong: %+v", dump)
	}
	if len(dump.Events) != 1 || dump.Events[0].Type != EvWALPoisoned {
		t.Fatalf("events wrong: %+v", dump.Events)
	}
	if dump.Events[0].Attrs["error"] != "short write" {
		t.Fatalf("attrs wrong: %+v", dump.Events[0].Attrs)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(left) != 0 {
		t.Fatalf("temp files left behind: %v", left)
	}
}

func TestDumpAuto(t *testing.T) {
	r := New(8)
	dir := t.TempDir()
	r.AutoDump(dir, EvWALPoisoned)
	r.Record(EvWALRotation) // not a trigger
	if files, _ := filepath.Glob(filepath.Join(dir, "flightrec-*.json")); len(files) != 0 {
		t.Fatalf("non-trigger event dumped: %v", files)
	}
	r.Record(EvWALPoisoned, KV("error", "boom"))
	deadline := time.Now().Add(5 * time.Second)
	for {
		files, _ := filepath.Glob(filepath.Join(dir, "flightrec-*.json"))
		if len(files) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("auto dump never appeared (found %d files)", len(files))
		}
		time.Sleep(10 * time.Millisecond)
	}
	r.AutoDump("")
	r.Record(EvWALPoisoned)
	time.Sleep(50 * time.Millisecond)
	if files, _ := filepath.Glob(filepath.Join(dir, "flightrec-*.json")); len(files) != 1 {
		t.Fatalf("disarmed recorder still dumped: %v", files)
	}
}

// TestRecorderSeqContiguity drives enough concurrent writers through a
// tiny ring that wraparound and seq assignment interleave; snapshots
// must stay strictly ordered throughout.
func TestRecorderSeqContiguity(t *testing.T) {
	r := New(3)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Record(EvEpochBarrier)
			}
		}()
	}
	wg.Wait()
	evs := r.Snapshot("", time.Time{}, 0)
	if len(evs) != 3 {
		t.Fatalf("got %d, want 3", len(evs))
	}
	if evs[2].Seq != 400 {
		t.Fatalf("newest seq %d, want 400", evs[2].Seq)
	}
	_ = fmt.Sprint(evs)
}
