// Package tracing is a dependency-free distributed tracing layer for the
// partitioned hotpaths fleet: spans with 128-bit trace IDs and parent
// links, W3C traceparent propagation over HTTP, and a bounded per-process
// ring buffer of completed traces exposed on the admin listener as
// GET /debug/traces. One gateway write fans out to N partition primaries;
// every process records its own spans under the shared trace ID, so the
// hops of a single request can be stitched back together across the fleet
// by ID alone.
//
// (The neighbouring package internal/trace is unrelated: it replays
// recorded measurement streams.)
//
// # Model
//
// A Tracer owns the per-process sampling policy and the ring of completed
// traces. A request entering the process starts a local root span —
// continuing the caller's traceparent when one is present, minting a
// fresh trace ID otherwise — and every instrumented layer underneath
// (gateway scatter legs, engine batches, WAL appends, checkpoints) hangs
// child spans off the context. When the local root ends, the process-local
// span set is committed to the ring as one completed trace.
//
// # Sampling
//
// Two triggers, matching the README's slow-request workflow:
//
//   - Probabilistic: a fresh trace is sampled when its randomly generated
//     ID falls under the configured rate. The decision is derived from the
//     ID alone, and the W3C sampled flag carries it downstream, so every
//     process of the fleet agrees without coordination.
//   - Slow requests: with a slow threshold configured, every request is
//     recorded, but the trace is only committed (and logged) when it was
//     sampled anyway or its root exceeded the threshold — tail sampling
//     for exactly the requests worth keeping.
//
// A request that is neither sampled nor under a slow threshold pays one
// context check per instrumented layer and allocates nothing: Do on a
// context without a span runs its function with a nil span, and every
// *Span method is nil-safe.
//
// # Span lifetime
//
// A span exists only for the length of a function: Do (a child span),
// Tracer.Root (a background root) and Inbound.Do (a request's root) start
// the span, run the function and end the span. No exported function
// returns a span to end later, so no path can leave one open.
//
// # Cost contract
//
// Span creation is batch-granularity, like internal/metrics: one span per
// HTTP request, per partition leg, per engine batch, per WAL append call —
// never per observation record. Mutations (SetAttr, Annotate, the end) take
// the owning trace's mutex; exposition marshals under the same mutex, so
// spans are safe to publish while a scrape is in flight.
package tracing

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"log/slog"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID is a W3C trace-context 128-bit trace ID.
type TraceID [16]byte

// SpanID is a W3C trace-context 64-bit span ID.
type SpanID [8]byte

// String returns the ID as 32 lowercase hex digits.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// String returns the ID as 16 lowercase hex digits.
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// IsZero reports whether the ID is all zeroes (invalid per the W3C spec).
func (id TraceID) IsZero() bool { return id == TraceID{} }

// IsZero reports whether the ID is all zeroes (invalid per the W3C spec).
func (id SpanID) IsZero() bool { return id == SpanID{} }

// ParseTraceID parses 32 hex digits into a TraceID.
func ParseTraceID(s string) (TraceID, error) {
	var id TraceID
	if len(s) != 32 {
		return id, fmt.Errorf("tracing: trace id must be 32 hex digits, got %q", s)
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return id, fmt.Errorf("tracing: trace id %q: %w", s, err)
	}
	return id, nil
}

// idState drives the ID generator: a crypto-seeded counter whipped through
// a splitmix64 finaliser per draw. Cheaper than crypto/rand on the request
// path, unique within and across processes (the seed is random per
// process), and good enough mixing that the low half of a trace ID is a
// uniform sampling coin.
var idState atomic.Uint64

func init() {
	var seed [8]byte
	if _, err := rand.Read(seed[:]); err != nil {
		// No entropy source: fall back to the clock; IDs stay unique within
		// the process, which is what the ring and stitching need.
		binary.BigEndian.PutUint64(seed[:], uint64(time.Now().UnixNano()))
	}
	idState.Store(binary.BigEndian.Uint64(seed[:]))
}

func nextID() uint64 {
	x := idState.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// NewTraceID mints a random non-zero trace ID.
func NewTraceID() TraceID {
	var id TraceID
	for id.IsZero() {
		binary.BigEndian.PutUint64(id[:8], nextID())
		binary.BigEndian.PutUint64(id[8:], nextID())
	}
	return id
}

func newSpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		binary.BigEndian.PutUint64(id[:], nextID())
	}
	return id
}

// DefaultRingSize is the per-process completed-trace buffer capacity.
const DefaultRingSize = 256

// Tracer owns a process's sampling policy and completed-trace ring.
// The zero value is not usable; use New or the package Default.
type Tracer struct {
	service atomic.Pointer[string]
	// threshold is the sampling coin: a fresh trace is sampled when the
	// low 8 bytes of its ID, read as a uint64, fall under it.
	threshold atomic.Uint64
	slow      atomic.Int64 // time.Duration; 0 disables slow-request capture
	ring      ring
}

// New returns a tracer for the named service. rate is the probabilistic
// sampling rate in [0,1]; slow, when positive, force-samples any request
// whose root span exceeds it.
func New(service string, rate float64, slow time.Duration) *Tracer {
	t := &Tracer{ring: newRing(DefaultRingSize)}
	t.Configure(service, rate, slow)
	return t
}

// Default is the process-wide tracer every instrumented layer records
// into. It starts dark (rate 0, no slow threshold): until a binary calls
// Configure, no request is recorded and the instrumentation costs one
// context check. Mirrors metrics.Default.
var Default = New(processName(), 0, 0)

func processName() string {
	if len(os.Args) > 0 && os.Args[0] != "" {
		base := os.Args[0]
		for i := len(base) - 1; i >= 0; i-- {
			if base[i] == '/' {
				return base[i+1:]
			}
		}
		return base
	}
	return "process"
}

// Configure sets the service name stamped on this process's spans and the
// sampling policy. Safe to call at any time; requests in flight keep the
// decision they started with.
func (t *Tracer) Configure(service string, rate float64, slow time.Duration) {
	t.service.Store(&service)
	switch {
	case rate <= 0:
		t.threshold.Store(0)
	case rate >= 1:
		t.threshold.Store(math.MaxUint64)
	default:
		// float64 rounds the product, so no architecture fuses it.
		t.threshold.Store(uint64(float64(rate * math.MaxUint64)))
	}
	if slow < 0 {
		slow = 0
	}
	t.slow.Store(int64(slow))
}

// Service returns the configured service name.
func (t *Tracer) Service() string { return *t.service.Load() }

// SlowThreshold returns the configured slow-request threshold (0 when
// disabled).
func (t *Tracer) SlowThreshold() time.Duration { return time.Duration(t.slow.Load()) }

// sampleFresh is the probabilistic coin for a locally minted trace ID:
// deterministic in the ID, so any process holding the same ID — there are
// none for a fresh ID, but the property documents the design — agrees.
func (t *Tracer) sampleFresh(id TraceID) bool {
	return binary.BigEndian.Uint64(id[8:]) < t.threshold.Load()
}

// trace is the process-local container of one trace's spans. Committed to
// the ring when its local root ends and the sampling policy keeps it.
type trace struct {
	tracer  *Tracer
	id      TraceID
	sampled bool // the propagated W3C decision (probabilistic or inherited)
	seq     uint64

	mu    sync.Mutex
	spans []*Span
}

// Span is one timed operation inside a trace. A nil *Span is the valid
// "not recording" span: every method no-ops, so instrumentation sites
// never branch on sampling themselves.
type Span struct {
	tr     *trace
	name   string
	id     SpanID
	parent SpanID // zero for the trace root; remote for a continued request
	root   bool   // local root: its end commits the process's span set
	start  time.Time

	// Guarded by tr.mu after creation (exposition can race mutation).
	end   time.Time
	attrs []Attr
	notes []string
}

// Attr is one span attribute. Values should be JSON-encodable.
type Attr struct {
	Key   string
	Value any
}

func (t *Tracer) newTrace(id TraceID, sampled bool) *trace {
	return &trace{tracer: t, id: id, sampled: sampled}
}

func (tr *trace) newSpan(name string, parent SpanID, root bool) *Span {
	s := &Span{
		tr:     tr,
		name:   name,
		id:     newSpanID(),
		parent: parent,
		root:   root,
		start:  time.Now(),
	}
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
	return s
}

// Inbound is an inbound request's sampling decision, made by
// Tracer.Inbound from its traceparent header before any span exists, so
// that an unrecorded request never reaches the span machinery and its
// caller builds nothing for it.
type Inbound struct {
	t       *Tracer
	id      TraceID
	parent  SpanID
	sampled bool
}

// Inbound decides whether the request carrying traceparent ("" when
// absent) is recorded. A valid header continues the caller's trace under
// its sampling decision; a missing or malformed one — or an all-zero
// trace or parent ID — falls back to a fresh trace with a locally drawn
// sampling coin. ok is false when the request is not recorded: not
// sampled and no slow threshold configured. That check is the only cost
// an unsampled request pays.
func (t *Tracer) Inbound(traceparent string) (in Inbound, ok bool) {
	slow := t.slow.Load() > 0
	if tid, pid, flagged, valid := parseTraceparent(traceparent); valid {
		in = Inbound{t: t, id: tid, parent: pid, sampled: flagged}
	} else if slow || t.threshold.Load() > 0 { // else the coin cannot land: skip the draw
		in = Inbound{t: t, id: NewTraceID()}
		in.sampled = t.sampleFresh(in.id)
	}
	return in, in.sampled || slow
}

// Do runs fn under the request's process-local root span named name, then
// ends it, committing the trace when the sampling policy keeps it
// (sampled, or the root slower than the slow threshold). It returns the
// root's duration and fn's error.
func (in Inbound) Do(ctx context.Context, name string, fn func(context.Context, *Span) error) (dur time.Duration, err error) {
	s := in.t.newTrace(in.id, in.sampled).newSpan(name, in.parent, true)
	defer func() { dur = s.finish() }()
	return 0, fn(contextWithSpan(ctx, s), s)
}

// Root runs fn under a local root span with a fresh trace ID under the
// probabilistic coin, then ends it — for background work that no request
// context covers, like the replication apply loop. When the draw misses,
// fn runs with ctx and a nil span. It returns fn's error.
func (t *Tracer) Root(ctx context.Context, name string, fn func(context.Context, *Span) error) error {
	var s *Span
	if id := NewTraceID(); t.sampleFresh(id) {
		s = t.newTrace(id, true).newSpan(name, SpanID{}, true)
		ctx = contextWithSpan(ctx, s)
	}
	defer s.finish()
	return fn(ctx, s)
}

type ctxKey struct{}

func contextWithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the context's span, or nil when the request is not
// being recorded. The nil span is valid: every method no-ops.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// Do runs fn under a child of the context's span named name, then ends
// the child: the span's end is structural, so no path through fn can
// leave it open. On an unrecorded context fn runs with ctx and a nil span
// and nothing is allocated — the per-layer cost of an unsampled request.
// It returns fn's error.
func Do(ctx context.Context, name string, fn func(context.Context, *Span) error) error {
	s := FromContext(ctx)
	if s != nil {
		s = s.tr.newSpan(name, s.id, false)
		ctx = contextWithSpan(ctx, s)
	}
	defer s.finish()
	return fn(ctx, s)
}

// finish stamps the span's end time and returns its duration. The first
// end of the local root commits the trace to the tracer's ring when the
// sampling policy keeps it (sampled, or root duration over the slow
// threshold). Nil-safe; ending twice keeps the first end time and
// commits nothing more.
func (s *Span) finish() time.Duration {
	if s == nil {
		return 0
	}
	now := time.Now()
	s.tr.mu.Lock()
	first := s.end.IsZero()
	if first {
		s.end = now
	}
	dur := s.end.Sub(s.start)
	s.tr.mu.Unlock()
	if first && s.root {
		t := s.tr.tracer
		slow := time.Duration(t.slow.Load())
		if s.tr.sampled || (slow > 0 && dur >= slow) {
			t.ring.commit(s.tr)
		}
	}
	return dur
}

// SetAttr attaches one key/value attribute. Nil-safe.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.tr.mu.Unlock()
}

// Annotate appends a formatted, timestamped note to the span — the span
// equivalent of a request-scoped log line (alignment retries, degraded
// legs). Nil-safe.
func (s *Span) Annotate(format string, args ...any) {
	if s == nil {
		return
	}
	note := fmt.Sprintf("%s %s", time.Since(s.start).Round(time.Microsecond), fmt.Sprintf(format, args...))
	s.tr.mu.Lock()
	s.notes = append(s.notes, note)
	s.tr.mu.Unlock()
}

// TraceID returns the span's trace ID (zero for the nil span).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.tr.id
}

// SpanID returns the span's ID (zero for the nil span).
func (s *Span) SpanID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// Sampled reports whether the span's trace carries the propagated sampled
// decision (false for the nil span and for slow-threshold-only recording).
func (s *Span) Sampled() bool {
	if s == nil {
		return false
	}
	return s.tr.sampled
}

// LogAttrs returns the trace_id/span_id slog attributes of the context's
// span, for stamping request-scoped log lines. Empty when the request is
// not recorded, so call sites can pass it unconditionally.
func LogAttrs(ctx context.Context) []any {
	s := FromContext(ctx)
	if s == nil {
		return nil
	}
	return []any{
		slog.String("trace_id", s.tr.id.String()),
		slog.String("span_id", s.id.String()),
	}
}
