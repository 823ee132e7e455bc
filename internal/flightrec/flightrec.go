// Package flightrec is the fleet's flight recorder: a dependency-free,
// bounded, race-clean ring of structured operational events. Metrics
// (internal/metrics) answer "how much, right now"; traces
// (internal/tracing) answer "where did this one request go"; the flight
// recorder answers the third operator question — *what happened, when* —
// for the discrete state transitions that make or break an always-on
// stream processor: epoch barriers, WAL rotations and poisoning,
// checkpoints, replication connect/disconnect, subscriber slow-resets,
// gateway partial reads, and every /healthz state flip.
//
// # Model
//
// A Recorder is a fixed-capacity ring of Events. Recording takes one
// mutex acquisition and one slot write; the oldest event is overwritten
// when the ring is full, so memory is bounded no matter how long the
// process runs. Each event carries a wall-clock timestamp, a type tag
// from the Ev* constants, optional key/value detail, and — when recorded
// through RecordCtx inside a traced request — the active trace ID, which
// stitches the event timeline back to GET /debug/traces.
//
// # Cost contract
//
// Events are batch-granularity, exactly like spans and histogram
// observations: one event per operation (per epoch barrier, per WAL
// rotation, per checkpoint, per 206 response), never per record. The
// batchclock analyzer (run by TestContracts in internal/analysis)
// enforces this mechanically for this package and every package that
// records into it.
//
// # Exposition
//
// RegisterDebug mounts GET /debug/events (JSON, oldest-first, filterable
// by type/since/limit) on an admin mux, next to /metrics and
// /debug/traces. DumpTo snapshots the ring to a JSON file for
// post-mortems; AutoDump arms an automatic snapshot when an event of a
// trigger type (canonically EvWALPoisoned) is recorded, so the timeline
// survives the crash-loop that usually follows.
package flightrec

import (
	"context"
	"slices"
	"sync"
	"time"

	"hotpaths/internal/ringbuf"
	"hotpaths/internal/tracing"
)

// Event types recorded across the fleet. A type names the operation, not
// the subsystem log line: filters and alert rules key on these strings,
// so they are part of the observability contract and must stay stable.
const (
	EvEpochBarrier     = "epoch_barrier"
	EvWALRotation      = "wal_rotation"
	EvWALPoisoned      = "wal_poisoned"
	EvCheckpointStart  = "checkpoint_start"
	EvCheckpointFinish = "checkpoint_finish"
	EvReplConnect      = "replication_connect"
	EvReplDisconnect   = "replication_disconnect"
	EvReplRebootstrap  = "replication_rebootstrap"
	EvSubscriberReset  = "subscriber_slow_reset"
	EvGatewayPartial   = "gateway_partial_read"
	EvTopologyMismatch = "gateway_topology_mismatch"
	EvHealthTransition = "health_transition"
)

// Attr is one key/value detail on an event. Values should be
// JSON-encodable; keep them small — the ring retains thousands of events
// and every byte is resident.
type Attr struct {
	Key   string
	Value any
}

// KV builds an Attr; sugar for call sites.
func KV(key string, value any) Attr { return Attr{Key: key, Value: value} }

// Event is one recorded operational event. Events are immutable once
// recorded; Snapshot returns copies, so callers may retain them freely.
type Event struct {
	Seq     uint64 // monotone per recorder; gaps mean ring overwrites
	Time    time.Time
	Type    string
	TraceID string // "" when recorded outside a traced context
	Attrs   []Attr
}

// DefaultRingSize is the per-process event buffer capacity. Events are
// rare (state transitions, not requests), so this covers hours of
// ordinary operation.
const DefaultRingSize = 1024

// Recorder is a bounded ring of events. The zero value is not usable;
// use New or the package Default.
type Recorder struct {
	ring *ringbuf.Ring[Event]

	// Auto-dump arming, guarded by mu; the dump itself runs without it.
	mu      sync.Mutex
	dumpDir string
	dumpOn  map[string]bool
}

// New returns a recorder retaining the last capacity events.
func New(capacity int) *Recorder {
	return &Recorder{ring: ringbuf.New[Event](capacity)}
}

// Default is the process-wide recorder every instrumented subsystem
// records into, mirroring metrics.Default and tracing.Default.
var Default = New(DefaultRingSize)

// Record appends one event stamped with the current time.
func (r *Recorder) Record(typ string, attrs ...Attr) {
	r.record(time.Now(), typ, "", attrs)
}

// RecordCtx is Record plus trace correlation: when ctx carries a
// recorded span, the event is stamped with its trace ID so the timeline
// links back to /debug/traces.
func (r *Recorder) RecordCtx(ctx context.Context, typ string, attrs ...Attr) {
	var tid string
	if s := tracing.FromContext(ctx); s != nil {
		if id := s.TraceID(); !id.IsZero() {
			tid = id.String()
		}
	}
	r.record(time.Now(), typ, tid, attrs)
}

func (r *Recorder) record(now time.Time, typ, tid string, attrs []Attr) {
	r.ring.Put(func(seq uint64) Event {
		// Event sequence numbers count from 1.
		return Event{Seq: seq + 1, Time: now, Type: typ, TraceID: tid, Attrs: attrs}
	})
	r.mu.Lock()
	dir := ""
	if r.dumpDir != "" && r.dumpOn[typ] {
		dir = r.dumpDir
	}
	r.mu.Unlock()
	if dir != "" {
		// Dump off the recording goroutine: Record is called under
		// subsystem locks (the WAL poisons while holding its mutex) and
		// must never wait on disk I/O.
		go func() { _, _ = r.DumpTo(dir, "event:"+typ) }()
	}
}

// AutoDump arms automatic ring snapshots: recording an event of any of
// the given types asynchronously dumps the ring to dir. Pass no types to
// disarm.
func (r *Recorder) AutoDump(dir string, types ...string) {
	on := make(map[string]bool, len(types))
	for _, t := range types {
		on[t] = true
	}
	r.mu.Lock()
	if len(on) == 0 {
		r.dumpDir, r.dumpOn = "", nil
	} else {
		r.dumpDir, r.dumpOn = dir, on
	}
	r.mu.Unlock()
}

// Len returns the number of retained events.
func (r *Recorder) Len() int { return r.ring.Len() }

// Snapshot returns retained events oldest-first. typ filters to one
// event type ("" for all); since drops events before it (zero for all);
// limit keeps only the newest limit events after filtering (0 for all).
func (r *Recorder) Snapshot(typ string, since time.Time, limit int) []Event {
	out := slices.DeleteFunc(r.ring.All(), func(ev Event) bool {
		return typ != "" && ev.Type != typ || !since.IsZero() && ev.Time.Before(since)
	})
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}
