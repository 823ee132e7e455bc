package httpapi_test

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"hotpaths/internal/httpapi"
	"hotpaths/internal/metrics"
	"hotpaths/internal/tracing"
)

// testMetrics registers one route's instruments on a private registry.
func testMetrics(reg *metrics.Registry) func(route string) httpapi.RouteMetrics {
	return func(route string) httpapi.RouteMetrics {
		m := httpapi.RouteMetrics{Seconds: reg.Histogram("test_http_request_seconds", "d",
			metrics.LatencyBuckets, metrics.Labels{"route": route})}
		for i, class := range httpapi.StatusClasses {
			m.Requests[i] = reg.Counter("test_http_requests_total", "n",
				metrics.Labels{"route": route, "code": class})
		}
		return m
	}
}

// traceSpans fetches what a tracer committed under one trace ID, through
// the /debug/traces surface operators use.
func traceSpans(t *testing.T, tr *tracing.Tracer, id string) []map[string]any {
	t.Helper()
	mux := http.NewServeMux()
	tr.RegisterDebug(mux)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces/"+id, nil))
	if rec.Code == http.StatusNotFound {
		return nil
	}
	var detail struct {
		Spans []map[string]any `json:"spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &detail); err != nil {
		t.Fatalf("decode %q: %v", rec.Body.String(), err)
	}
	return detail.Spans
}

func TestWrapContinuesAndRecords(t *testing.T) {
	tracer := tracing.New("test", 0, 0)
	m := testMetrics(metrics.NewRegistry())("/observe_batch")
	var sawSpan *tracing.Span
	h := httpapi.Wrap("/observe_batch", m, tracer, func(w http.ResponseWriter, r *http.Request) {
		sawSpan = tracing.FromContext(r.Context())
		w.WriteHeader(http.StatusAccepted)
	})

	// Sampled traceparent: handler sees the span; trace commits on return.
	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	req := httptest.NewRequest("POST", "/observe_batch", nil)
	req.Header.Set(tracing.Header, "00-"+traceID+"-00f067aa0ba902b7-01")
	h(httptest.NewRecorder(), req)
	if sawSpan == nil {
		t.Fatal("handler did not see the request span")
	}
	spans := traceSpans(t, tracer, traceID)
	if len(spans) != 1 {
		t.Fatalf("trace not committed: %d spans", len(spans))
	}
	attrs, _ := spans[0]["attrs"].(map[string]any)
	if attrs["http.status"] != float64(http.StatusAccepted) || attrs["http.method"] != "POST" {
		t.Fatalf("span attrs = %v, want status 202 and method POST", attrs)
	}
	if spans[0]["parent_id"] != "00f067aa0ba902b7" {
		t.Fatalf("span does not continue the caller's trace: %v", spans[0])
	}

	// No header at rate 0: handler runs without a span, nothing recorded —
	// but the one wrapper still counts both requests.
	sawSpan = nil
	h(httptest.NewRecorder(), httptest.NewRequest("POST", "/observe_batch", nil))
	if sawSpan != nil {
		t.Fatal("unsampled request should not carry a span")
	}
	if got := m.Requests[1].Value(); got != 2 {
		t.Fatalf("2xx counter = %d, want 2", got)
	}
	if got := m.Seconds.Count(); got != 2 {
		t.Fatalf("latency observations = %d, want 2", got)
	}

	// A nil tracer leaves the route untraced even for a sampled caller.
	untraced := httpapi.Wrap("/metrics", m, nil, func(w http.ResponseWriter, r *http.Request) {
		sawSpan = tracing.FromContext(r.Context())
	})
	untraced(httptest.NewRecorder(), req)
	if sawSpan != nil {
		t.Fatal("nil tracer must not start a span")
	}
}

// The request path must stay at one allocation — the recorder — when the
// request is not sampled: this wrapper is on every request of every
// workload.
func TestWrapUnsampledAllocations(t *testing.T) {
	m := testMetrics(metrics.NewRegistry())("/observe")
	h := httpapi.Wrap("/observe", m, tracing.New("test", 0, 0), func(http.ResponseWriter, *http.Request) {})
	w, r := httptest.NewRecorder(), httptest.NewRequest("POST", "/observe", nil)
	if n := testing.AllocsPerRun(200, func() { h(w, r) }); n > 1 {
		t.Errorf("unsampled request costs %v allocations in the wrapper, want at most 1", n)
	}
}

// Streaming handlers type-assert their ResponseWriter for http.Flusher,
// and anything else goes through an http.ResponseController, which
// reaches the connection through the wrapper's Unwrap: flushing,
// deadlines and connection takeover must all survive the one wrapper,
// with tracing sampling every request (the path that used to stack a
// second recorder).
func TestWrapForwardsStreamingInterfaces(t *testing.T) {
	tracer := tracing.New("test", 1, 0)
	reg := metrics.NewRegistry()
	mux := http.NewServeMux()
	mux.HandleFunc("/flush", httpapi.Wrap("/flush", testMetrics(reg)("/flush"), tracer,
		func(w http.ResponseWriter, r *http.Request) {
			if _, ok := w.(http.Flusher); !ok {
				http.Error(w, "no flusher", http.StatusInternalServerError)
				return
			}
			rc := http.NewResponseController(w)
			if err := rc.SetWriteDeadline(time.Now().Add(time.Minute)); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			fmt.Fprint(w, "first\n")
			if err := rc.Flush(); err != nil {
				t.Errorf("flush through the controller: %v", err)
			}
			<-r.Context().Done() // hold the stream open until the client hangs up
		}))
	mux.HandleFunc("/hijack", httpapi.Wrap("/hijack", testMetrics(reg)("/hijack"), tracer,
		func(w http.ResponseWriter, r *http.Request) {
			conn, rw, err := http.NewResponseController(w).Hijack()
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			defer conn.Close()
			rw.WriteString("HTTP/1.1 200 OK\r\nContent-Length: 5\r\nConnection: close\r\n\r\ntaken")
			rw.Flush()
		}))
	ts := httptest.NewServer(mux)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/flush")
	if err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(resp.Body).ReadString('\n')
	resp.Body.Close()
	if err != nil || line != "first\n" {
		t.Fatalf("flushed line did not arrive while the handler was still running: %q, %v", line, err)
	}

	resp, err = http.Get(ts.URL + "/hijack")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "taken" {
		t.Errorf("GET /hijack = %d %q, want 200 %q", resp.StatusCode, body, "taken")
	}

	// Behind a writer that cannot hijack, the controller says so.
	plain := httpapi.Wrap("/plain", testMetrics(reg)("/plain"), tracer,
		func(w http.ResponseWriter, r *http.Request) {
			if _, _, err := http.NewResponseController(w).Hijack(); !errors.Is(err, http.ErrNotSupported) {
				t.Errorf("Hijack behind a writer that cannot: %v, want http.ErrNotSupported", err)
			}
			fmt.Fprint(w, "plain")
		})
	rec := httptest.NewRecorder()
	plain(struct{ http.ResponseWriter }{rec}, httptest.NewRequest("GET", "/plain", nil))
	if rec.Body.String() != "plain" {
		t.Errorf("plain writer got %q", rec.Body.String())
	}
}

// A response that streamed is a connection, not a request: its latency
// observation is the time to the first flush, however long the client
// then stays. A response that never flushed is timed to handler return.
func TestStreamedResponseTimedToFirstFlush(t *testing.T) {
	const hold = 60 * time.Millisecond
	reg := metrics.NewRegistry()
	stream := testMetrics(reg)("/watch")
	httpapi.Wrap("/watch", stream, nil, func(w http.ResponseWriter, r *http.Request) {
		w.(http.Flusher).Flush()
		time.Sleep(hold)
		w.(http.Flusher).Flush()
	})(httptest.NewRecorder(), httptest.NewRequest("GET", "/watch", nil))
	if got := stream.Seconds.Sum(); stream.Seconds.Count() != 1 || got >= hold.Seconds()/2 {
		t.Errorf("streamed response observed as %gs (n=%d), want the time to first flush, well under %v",
			got, stream.Seconds.Count(), hold)
	}

	slow := testMetrics(reg)("/topk")
	httpapi.Wrap("/topk", slow, nil, func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(hold)
		w.Write([]byte("[]"))
	})(httptest.NewRecorder(), httptest.NewRequest("GET", "/topk", nil))
	if got := slow.Seconds.Sum(); got < hold.Seconds() {
		t.Errorf("unflushed response observed as %gs, want at least the handler's %v", got, hold)
	}
}

func TestNewMuxLabelsRoutes(t *testing.T) {
	reg := metrics.NewRegistry()
	labels := map[string]bool{}
	ok := func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusTeapot) }
	mux := httpapi.NewMux(func(route string) httpapi.RouteMetrics {
		labels[route] = true
		return testMetrics(reg)(route)
	}, map[string]http.HandlerFunc{"POST /observe": ok, "/wal/": ok})

	if want := map[string]bool{"/metrics": true, "/observe": true, "/wal/": true}; !reflect.DeepEqual(labels, want) {
		t.Errorf("route labels = %v, want %v", labels, want)
	}
	for _, tc := range []struct {
		method, path string
		status       int
	}{
		{"POST", "/observe", http.StatusTeapot},
		{"GET", "/observe", http.StatusMethodNotAllowed},
		{"GET", "/wal/stream", http.StatusTeapot},
		{"GET", "/metrics", http.StatusOK},
		{"GET", "/nope", http.StatusNotFound},
	} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, nil))
		if rec.Code != tc.status {
			t.Errorf("%s %s = %d, want %d", tc.method, tc.path, rec.Code, tc.status)
		}
	}
}
