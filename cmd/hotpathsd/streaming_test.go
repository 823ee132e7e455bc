package main

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hotpaths/internal/tracing"
)

// withTracing force-samples every request for the duration of one test,
// restoring the dark default after. The tracer is process-global, like
// the metrics registry, so this must not leak into other tests.
func withTracing(t *testing.T) {
	t.Helper()
	tracing.Default.Configure("hotpathsd-test", 1, 0)
	t.Cleanup(func() { tracing.Default.Configure("hotpathsd-test", 0, 0) })
}

// Streaming endpoints type-assert their ResponseWriter: /watch needs
// http.Flusher for SSE, /wal/stream refuses to start without it. Both
// must keep working through the daemon's full route wrapper with tracing
// sampling every request. (The wrapper's own Flusher and Unwrap are
// unit-tested in internal/httpapi.)
func TestStreamingSurvivesMiddlewareStack(t *testing.T) {
	withTracing(t)
	h, _ := newDurableHandler(t)
	ts := httptest.NewServer(h)
	defer ts.Close()
	client := &http.Client{Timeout: 30 * time.Second}

	// SSE /watch: subscribe, push one epoch through, and require a delta
	// event to arrive — it only does if Flush reaches the connection.
	watch, err := client.Get(ts.URL + "/watch?k=5")
	if err != nil {
		t.Fatal(err)
	}
	defer watch.Body.Close()
	if watch.StatusCode != http.StatusOK {
		t.Fatalf("watch through middleware stack: %d", watch.StatusCode)
	}
	if ct := watch.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("watch content-type %q", ct)
	}
	feedZigZag(t, h)
	sawDelta := false
	sc := bufio.NewScanner(watch.Body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "data: ") {
			sawDelta = true
			break
		}
	}
	if !sawDelta {
		t.Fatalf("no SSE delta arrived through the middleware stack: %v", sc.Err())
	}

	// /wal/stream: the handler 500s at startup when the writer has lost
	// Flusher, and its opening heartbeat frame only arrives flushed.
	stream, err := client.Get(ts.URL + "/wal/stream?from=0")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		t.Fatalf("wal/stream through middleware stack: %d", stream.StatusCode)
	}
	buf := make([]byte, 1)
	if _, err := stream.Body.Read(buf); err != nil {
		t.Fatalf("no bytes arrived on /wal/stream: %v", err)
	}
}
