package tracing

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tid := NewTraceID()
	sid := newSpanID()
	for _, sampled := range []bool{true, false} {
		hdr := formatTraceparent(tid, sid, sampled)
		if len(hdr) != 55 {
			t.Fatalf("traceparent length = %d, want 55 (%q)", len(hdr), hdr)
		}
		gotTID, gotSID, gotSampled, ok := parseTraceparent(hdr)
		if !ok {
			t.Fatalf("parseTraceparent(%q) not ok", hdr)
		}
		if gotTID != tid || gotSID != sid || gotSampled != sampled {
			t.Fatalf("round trip mismatch: %q -> %v %v %v", hdr, gotTID, gotSID, gotSampled)
		}
	}
}

func TestTraceparentMalformed(t *testing.T) {
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	cases := map[string]string{
		"empty":              "",
		"short":              valid[:54],
		"version ff":         "ff" + valid[2:],
		"version not hex":    "zz" + valid[2:],
		"uppercase hex":      strings.ToUpper(valid),
		"bad separator":      strings.Replace(valid, "-", "_", 1),
		"zero trace id":      "00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"zero parent id":     "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",
		"v00 trailing data":  valid + "-extra",
		"future ver no dash": "01" + valid[2:] + "x",
	}
	for name, hdr := range cases {
		if _, _, _, ok := parseTraceparent(hdr); ok {
			t.Errorf("%s: parseTraceparent(%q) ok, want malformed", name, hdr)
		}
	}
	// A future version with correctly dash-delimited extra content parses
	// by the version-00 prefix rule.
	if tid, _, sampled, ok := parseTraceparent("01" + valid[2:] + "-extra"); !ok || tid.IsZero() || !sampled {
		t.Errorf("future version with -suffix should parse, got ok=%v", ok)
	}
}

// request serves an empty inbound request under tr and returns its root
// span, already ended; nil when the request is not recorded.
func request(tr *Tracer, traceparent string) (root *Span) {
	in, ok := tr.Inbound(traceparent)
	if !ok {
		return nil
	}
	in.Do(context.Background(), "req", func(_ context.Context, s *Span) error {
		root = s
		return nil
	})
	return root
}

func TestInboundFallsBackToFreshRoot(t *testing.T) {
	tr := New("test", 1, 0) // sample everything
	for _, hdr := range []string{
		"",
		"not a traceparent",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
	} {
		span := request(tr, hdr)
		if span == nil {
			t.Fatalf("header %q: want fresh sampled root, got nil span", hdr)
		}
		if span.TraceID().IsZero() {
			t.Fatalf("header %q: zero trace ID on fresh root", hdr)
		}
		if span.tr.id.String() == "4bf92f3577b34da6a3ce929d0e0e4736" {
			t.Fatalf("header %q: malformed header's trace ID was adopted", hdr)
		}
		if !span.parent.IsZero() {
			t.Fatalf("header %q: fresh root should have no parent, got %v", hdr, span.parent)
		}
	}
}

func TestInboundContinuesTrace(t *testing.T) {
	tr := New("test", 0, 0) // rate 0: only the inherited decision can record
	hdr := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	span := request(tr, hdr)
	if span == nil {
		t.Fatal("sampled traceparent must be recorded even at rate 0")
	}
	if got := span.TraceID().String(); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace ID = %s, want continued ID", got)
	}
	if got := span.parent.String(); got != "00f067aa0ba902b7" {
		t.Fatalf("parent = %s, want caller's span ID", got)
	}
	if !span.Sampled() {
		t.Fatal("continued span must inherit the sampled flag")
	}

	// Unsampled flag, rate 0, no slow threshold: nothing to record.
	if _, ok := tr.Inbound(strings.TrimSuffix(hdr, "01") + "00"); ok {
		t.Fatal("unsampled traceparent at rate 0 must not be recorded")
	}
}

func TestUnsampledPathIsFree(t *testing.T) {
	tr := New("test", 0, 0)
	if _, ok := tr.Inbound(""); ok {
		t.Fatal("rate 0 without slow threshold must not record the request")
	}
	ctx := context.Background()
	var child *Span
	Do(ctx, "child", func(ctx2 context.Context, s *Span) error {
		if s != nil || ctx2 != ctx {
			t.Fatal("Do on an unrecorded context must be a no-op")
		}
		child = s
		return nil
	})
	// The nil span's full method set must be safe.
	child.SetAttr("k", "v")
	child.Annotate("note %d", 1)
	child.finish()
	if !child.TraceID().IsZero() || !child.SpanID().IsZero() || child.Sampled() {
		t.Fatal("nil span accessors must return zero values")
	}
	if got := LogAttrs(ctx); got != nil {
		t.Fatalf("LogAttrs on unrecorded context = %v, want nil", got)
	}
}

func TestSpanTreeAndCommit(t *testing.T) {
	tr := New("test", 1, 0)
	in, _ := tr.Inbound("")
	var root *Span
	in.Do(context.Background(), "req", func(ctx context.Context, s *Span) error {
		root = s
		Do(ctx, "engine.observe_batch", func(ctx2 context.Context, child *Span) error {
			return Do(ctx2, "wal.append", func(_ context.Context, grandchild *Span) error {
				if child.parent != root.id || grandchild.parent != child.id {
					t.Fatal("parent links broken")
				}
				if child.TraceID() != root.TraceID() || grandchild.TraceID() != root.TraceID() {
					t.Fatal("children must share the root's trace ID")
				}
				return nil
			})
		})
		if got := len(tr.ring.snapshot()); got != 0 {
			t.Fatalf("ring has %d traces before root end, want 0", got)
		}
		return nil
	})
	got := tr.ring.byID(root.TraceID())
	if len(got) != 1 || len(got[0].spans) != 3 {
		t.Fatalf("committed trace: got %d entries, want 1 with 3 spans", len(got))
	}
}

func TestSlowThresholdForcesCommit(t *testing.T) {
	tr := New("test", 0, time.Nanosecond)
	in, ok := tr.Inbound("")
	if !ok {
		t.Fatal("slow threshold must record unsampled requests")
	}
	var span *Span
	in.Do(context.Background(), "req", func(_ context.Context, s *Span) error {
		span = s
		if s.Sampled() {
			t.Fatal("slow-only recording must not claim the sampled flag")
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if len(tr.ring.byID(span.TraceID())) != 1 {
		t.Fatal("root slower than threshold must be committed")
	}

	// Fast request under a high threshold: recorded but dropped at its end.
	tr2 := New("test", 0, time.Hour)
	if request(tr2, "") == nil {
		t.Fatal("slow threshold must record unsampled requests")
	}
	if got := len(tr2.ring.snapshot()); got != 0 {
		t.Fatalf("fast unsampled request committed %d traces, want 0", got)
	}
}

// Do and Root end their span whatever fn returns, and hand fn's error back.
func TestDoEndsSpanOnError(t *testing.T) {
	tr := New("test", 1, 0)
	boom := errors.New("boom")
	var root, child *Span
	err := tr.Root(context.Background(), "op", func(ctx context.Context, s *Span) error {
		root = s
		return Do(ctx, "leg", func(_ context.Context, s *Span) error {
			child = s
			return boom
		})
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Root returned %v, want fn's error", err)
	}
	if root == nil || child == nil || root.end.IsZero() || child.end.IsZero() {
		t.Fatal("a span was left open on the error path")
	}
	if got := tr.ring.byID(root.TraceID()); len(got) != 1 || len(got[0].spans) != 2 {
		t.Fatal("the root's trace was not committed with both spans")
	}
	if err := New("test", 0, 0).Root(context.Background(), "op", func(_ context.Context, s *Span) error {
		if s != nil {
			t.Fatal("a missed draw must run fn with a nil span")
		}
		return boom
	}); !errors.Is(err, boom) {
		t.Fatal("Root on a missed draw must return fn's error")
	}
}

// A root span ended twice is committed once: /debug/traces/{id} must not
// list its trace twice.
func TestRootCommitsOnce(t *testing.T) {
	tr := New("svc", 1, 0)
	var root *Span
	tr.Root(context.Background(), "op", func(_ context.Context, s *Span) error {
		root = s
		s.finish() // and Root ends it again on return
		return nil
	})
	if root == nil {
		t.Fatal("rate-1 tracer did not sample")
	}
	if got := len(tr.ring.byID(root.TraceID())); got != 1 {
		t.Fatalf("a root ended twice is committed %d times, want 1", got)
	}
}

func TestInject(t *testing.T) {
	tr := New("test", 1, 0)
	in, _ := tr.Inbound("")
	in.Do(context.Background(), "req", func(ctx context.Context, span *Span) error {
		h := http.Header{}
		Inject(ctx, h)
		tid, sid, sampled, ok := parseTraceparent(h.Get(Header))
		if !ok || tid != span.TraceID() || sid != span.SpanID() || !sampled {
			t.Fatalf("Inject produced %q", h.Get(Header))
		}
		return nil
	})
	// Unrecorded context: no header.
	h2 := http.Header{}
	Inject(context.Background(), h2)
	if h2.Get(Header) != "" {
		t.Fatal("Inject on unrecorded context must not set the header")
	}
}

func TestRingEviction(t *testing.T) {
	r := newRing(4)
	tracer := New("test", 1, 0)
	for i := 0; i < 10; i++ {
		tr := tracer.newTrace(NewTraceID(), true)
		tr.newSpan(fmt.Sprintf("t%d", i), SpanID{}, true)
		r.commit(tr)
	}
	got := r.snapshot()
	if len(got) != 4 {
		t.Fatalf("ring holds %d traces, want 4", len(got))
	}
	// Newest first: t9 t8 t7 t6.
	for i, tr := range got {
		if want := fmt.Sprintf("t%d", 9-i); tr.spans[0].name != want {
			t.Fatalf("snapshot[%d] = %s, want %s", i, tr.spans[0].name, want)
		}
	}
}

func TestRingConcurrentWriters(t *testing.T) {
	const (
		writers   = 8
		perWriter = 200
		capacity  = 32
	)
	r := newRing(capacity)
	tracer := New("test", 1, 0)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tr := tracer.newTrace(NewTraceID(), true)
				tr.newSpan("concurrent", SpanID{}, true)
				r.commit(tr)
				// Readers race the writers on purpose.
				if i%16 == 0 {
					r.snapshot()
				}
			}
		}()
	}
	wg.Wait()
	got := r.snapshot()
	if len(got) != capacity {
		t.Fatalf("ring holds %d traces after %d commits, want %d", len(got), writers*perWriter, capacity)
	}
	// Eviction order invariant: newest-first by commit sequence, and the
	// retained traces are exactly the last `capacity` commits.
	total := uint64(writers * perWriter)
	for i, tr := range got {
		if tr.seq != total-1-uint64(i) {
			t.Fatalf("snapshot[%d].seq = %d, want %d", i, tr.seq, total-1-uint64(i))
		}
	}
}

func TestDebugHandlers(t *testing.T) {
	tracer := New("test", 1, 0)
	in, _ := tracer.Inbound("")
	var root *Span
	in.Do(context.Background(), "POST /observe_batch", func(ctx context.Context, s *Span) error {
		root = s
		return Do(ctx, "engine.observe_batch", func(_ context.Context, child *Span) error {
			child.SetAttr("records", 42)
			child.Annotate("barrier drained")
			return nil
		})
	})

	mux := http.NewServeMux()
	tracer.RegisterDebug(mux)

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /debug/traces = %d", rec.Code)
	}
	var list []traceSummaryJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].Spans != 2 || list[0].Root != "POST /observe_batch" {
		t.Fatalf("listing = %+v", list)
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces/"+root.TraceID().String(), nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /debug/traces/{id} = %d: %s", rec.Code, rec.Body)
	}
	var detail struct {
		TraceID string     `json:"trace_id"`
		Spans   []spanJSON `json:"spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &detail); err != nil {
		t.Fatal(err)
	}
	if len(detail.Spans) != 2 {
		t.Fatalf("detail has %d spans, want 2", len(detail.Spans))
	}
	if detail.Spans[1].ParentID != root.SpanID().String() {
		t.Fatalf("child parent_id = %s, want root %s", detail.Spans[1].ParentID, root.SpanID())
	}
	if detail.Spans[1].Attrs["records"] != float64(42) || len(detail.Spans[1].Notes) != 1 {
		t.Fatalf("child attrs/notes = %+v", detail.Spans[1])
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces/"+NewTraceID().String(), nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown trace = %d, want 404", rec.Code)
	}
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces/nothex", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad trace id = %d, want 400", rec.Code)
	}
}

func TestSetupSlogFormats(t *testing.T) {
	var buf strings.Builder
	if err := setupSlog(&buf, "json", "hotpathsd"); err != nil {
		t.Fatal(err)
	}
	if err := setupSlog(&buf, "text", "hotpathsd"); err != nil {
		t.Fatal(err)
	}
	if err := setupSlog(&buf, "", "hotpathsd"); err != nil {
		t.Fatal(err)
	}
	if err := setupSlog(&buf, "yaml", "hotpathsd"); err == nil {
		t.Fatal("unknown format must error")
	}
}
