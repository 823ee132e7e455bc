package httpapi

import (
	"context"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"hotpaths/internal/metrics"
	"hotpaths/internal/tracing"
)

// StatusClasses are the buckets the per-route request counters use; a
// class per status keeps cardinality at five per route instead of one per
// code.
var StatusClasses = [5]string{"1xx", "2xx", "3xx", "4xx", "5xx"}

// RouteMetrics are one route's instruments: the request-duration
// histogram and one counter per status class, indexed like StatusClasses.
// Each binary registers them under its own family names, which README
// §Observability documents, and hands them in.
type RouteMetrics struct {
	Seconds  *metrics.Histogram
	Requests [5]*metrics.Counter
}

// Wrap is the one per-route wrapper: request duration and status class
// into m, and — with a tracer — the request's server span. Metrics always
// run; tr is nil for a route that must stay untraced (/metrics scrapes
// would drown the ring). The span lives in its own closure, traced: fused
// into this one, the same work measured +0.4 ms on benchmark/'s cold
// reads (ingest_mem, mixed_rw), for reasons never pinned down.
func Wrap(route string, m RouteMetrics, tr *tracing.Tracer, h http.HandlerFunc) http.HandlerFunc {
	if tr != nil {
		h = traced(route, tr, h)
	}
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		rec := &recorder{ResponseWriter: w}
		h(rec, r)
		if rec.flushed.IsZero() {
			m.Seconds.ObserveSince(t0)
		} else {
			// A response that streamed (SSE /watch, the /wal/stream feed)
			// is timed to its first flush: the handler returns when the
			// client hangs up, and counting minutes of connection lifetime
			// as request latency would spend the latency SLO budget on
			// every closed tab.
			m.Seconds.Observe(rec.flushed.Sub(t0).Seconds())
		}
		cls := rec.code() / 100
		if cls < 1 || cls > 5 {
			cls = 2
		}
		m.Requests[cls-1].Inc()
	}
}

// traced runs h under the request's server span: a continuation of the
// caller's traceparent when one arrives, a fresh root otherwise. An
// unrecorded request costs only the sampling check in Tracer.Inbound and
// is served by a direct h(w, r): no closure is built for it. With a slow
// threshold configured, a request exceeding it is committed to the trace
// ring regardless of sampling and logged with its trace ID. It reads the
// status off Wrap's recorder instead of stacking its own.
func traced(route string, tr *tracing.Tracer, h http.HandlerFunc) http.HandlerFunc {
	// The header in the form net/http stores it, so the per-request check
	// is a map index: Header.Get would canonicalise — and allocate — the
	// lowercase name on every request.
	key := http.CanonicalHeaderKey(tracing.Header)
	return func(w http.ResponseWriter, r *http.Request) {
		var traceparent string
		if v := r.Header[key]; len(v) > 0 {
			traceparent = v[0]
		}
		in, ok := tr.Inbound(traceparent)
		if !ok {
			h(w, r)
			return
		}
		var status int
		var root *tracing.Span
		dur, _ := in.Do(r.Context(), route, func(ctx context.Context, span *tracing.Span) error {
			h(w, r.WithContext(ctx))
			status = w.(*recorder).code()
			span.SetAttr("http.method", r.Method)
			span.SetAttr("http.status", status)
			root = span
			return nil
		})
		if slow := tr.SlowThreshold(); slow > 0 && dur >= slow {
			slog.Warn("slow request",
				"route", route,
				"method", r.Method,
				"status", status,
				"duration", dur,
				"trace_id", root.TraceID().String(),
				"span_id", root.SpanID().String(),
			)
		}
	}
}

// recorder captures what Wrap reports about a response: its status and
// when it first flushed. It implements Flusher unconditionally so the
// streaming handlers — which type-assert their writer — keep streaming
// through it, and Unwrap hands an http.ResponseController the underlying
// writer for anything else (hijacking, deadlines).
type recorder struct {
	http.ResponseWriter
	status  int
	flushed time.Time // first Flush; zero for a response that never streamed
}

// code is the response status so far.
func (r *recorder) code() int {
	if r.status == 0 {
		return http.StatusOK // nothing written: net/http sends an implicit 200
	}
	return r.status
}

func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *recorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

func (r *recorder) Flush() {
	if r.flushed.IsZero() {
		r.flushed = time.Now()
	}
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap is what http.ResponseController reaches the connection through.
func (r *recorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// NewMux builds a public listener's mux from routes (ServeMux pattern →
// handler, e.g. "POST /observe"), plus GET /metrics. Every route goes
// through Wrap, labelled with its pattern's path: an outer middleware
// could not see which pattern matched, so instruments are bound here, at
// registration, and the request path touches only atomics. /metrics is
// instrumented but untraced; the rest are traced by the process tracer.
func NewMux(routeMetrics func(route string) RouteMetrics, routes map[string]http.HandlerFunc) *http.ServeMux {
	mux := http.NewServeMux()
	mount := func(pattern string, tr *tracing.Tracer, h http.HandlerFunc) {
		route := pattern[strings.IndexByte(pattern, '/'):]
		mux.HandleFunc(pattern, Wrap(route, routeMetrics(route), tr, h))
	}
	mount("GET /metrics", nil, metrics.Handler().ServeHTTP)
	for pattern, h := range routes {
		mount(pattern, tracing.Default, h)
	}
	return mux
}
