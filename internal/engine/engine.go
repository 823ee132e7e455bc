// Package engine implements the concurrent, object-sharded ingestion
// pipeline behind hotpaths.Engine.
//
// # Architecture
//
// Observations hash by object id to one of N shards. Each shard is a
// goroutine around a raytrace.Bank, the type a hotpaths.System keeps its
// filters in too, fed through a buffered queue, so per-object timestamp
// order is preserved (observations for one object always land on one
// shard, and queues are FIFO per sender). Filters run concurrently across
// shards; the coordinator tier stays single-threaded.
//
// Every observation is stamped with a global sequence number when it
// enters the engine. When a filter emits a state report, the report
// carries the sequence number of the observation that triggered it. At an
// epoch boundary Tick raises a flush barrier — a token per shard queue,
// acknowledged once everything queued before it has been processed — then
// gathers the shards' report buffers, sorts them by sequence number, and
// prepends the follow-up reports produced by the previous epoch's
// responses. That is exactly the batch order the single-threaded
// hotpaths.System would have produced for the same input order, so the
// coordinator's order-sensitive SinglePath processing yields bit-identical
// paths, hotness and counters.
//
// # Synchronisation
//
// A single RWMutex protects the coordinator tier and the engine clock:
// ingestion takes the read lock (many producers run concurrently, touching
// only the sequence counter and the shard queues), while Tick and Close
// take the write lock. While Tick holds the write lock no producer can
// enqueue, so after the flush barrier the shard goroutines are guaranteed
// idle and Tick may touch their banks directly — delivering epoch
// responses without any per-message channel round trips. Queries
// (Snapshot/Stats/Clock) take the read lock: the coordinator is only
// mutated under the write lock, so they are safe concurrently with
// ingestion.
//
// The coordinator changes only in Tick (the window slides, an epoch batch
// lands) and RestoreState, and both clear the engine's kept read view
// under the write lock. Snapshot refills it under the read lock, so every
// reader between two ticks shares one copy and whatever that copy has
// ordered on demand. Taking the copy holds the read lock, so a Tick that
// arrives meanwhile waits for it.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hotpaths/internal/coordinator"
	"hotpaths/internal/flightrec"
	"hotpaths/internal/geom"
	"hotpaths/internal/partition"
	"hotpaths/internal/raytrace"
	"hotpaths/internal/tracing"
	"hotpaths/internal/trajectory"
)

// ErrClosed is returned by operations on a closed engine.
var ErrClosed = errors.New("engine: closed")

// Observation is one location measurement. SigmaX/SigmaY, when positive,
// carry the measurement's Gaussian noise for the (ε,δ) tolerance model.
type Observation struct {
	ObjectID       int
	P              geom.Point
	T              trajectory.Time
	SigmaX, SigmaY float64
}

// Config parameterises an engine. The coordinator and tolerance factory
// are built by the public hotpaths package so that System and Engine share
// one configuration surface.
type Config struct {
	// Coord is the coordinator tier processing epoch batches (required).
	Coord *coordinator.Coordinator

	// Epoch is the coordinator cadence Λ in timestamps (required, positive).
	Epoch trajectory.Time

	// Tolerance builds the per-object tolerance model from the noise levels
	// of the object's first observation (required).
	Tolerance func(sigmaX, sigmaY float64) raytrace.ToleranceFunc

	// Shards is the number of filter shards (default: GOMAXPROCS).
	Shards int

	// Buffer is the per-shard queue capacity in messages (default 256).
	Buffer int
}

// Stats aggregates the engine's counters. While ingestion is in flight the
// Observations/Reports counters are eventually consistent; after a Tick at
// an epoch boundary they are exact.
type Stats struct {
	Observations int
	Reports      int
	Responses    int
	IndexSize    int
	Coordinator  coordinator.Stats
}

// Engine is the sharded ingestion pipeline. See the package comment for
// the concurrency contract.
type Engine struct {
	cfg    Config
	shards []*shard
	seq    atomic.Uint64

	mu        sync.RWMutex // write: Tick/Close; read: ingestion and queries
	coord     *coordinator.Coordinator
	lastNow   trajectory.Time
	staged    []taggedReport       // shard reports collected but not yet processed
	followUps []coordinator.Report // reports raised by the previous epoch's responses
	responses int
	followed  int // follow-up reports, counted into Stats.Reports
	// Counter baselines carried over from a restored checkpoint (the
	// shard-level atomics restart at zero after RestoreState).
	baseObserved int64
	baseReported int64
	closed       bool

	// view is the coordinator copy Snapshot last handed out, shared by
	// every reader until the coordinator can next change. Writers clear
	// it under the write lock; readers fill it under the read lock.
	view atomic.Pointer[coordinator.Snapshot]
}

// New validates cfg and starts the shard goroutines.
func New(cfg Config) (*Engine, error) {
	if cfg.Coord == nil {
		return nil, fmt.Errorf("engine: Config.Coord is required")
	}
	if cfg.Epoch <= 0 {
		return nil, fmt.Errorf("engine: Config.Epoch must be positive, got %d", cfg.Epoch)
	}
	if cfg.Tolerance == nil {
		return nil, fmt.Errorf("engine: Config.Tolerance is required")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.Buffer <= 0 {
		cfg.Buffer = 256
	}
	e := &Engine{cfg: cfg, coord: cfg.Coord}
	for i := 0; i < cfg.Shards; i++ {
		s := newShard(cfg.Buffer, cfg.Tolerance)
		e.shards = append(e.shards, s)
		go s.run()
	}
	return e, nil
}

// Shards returns the shard count.
func (e *Engine) Shards() int { return len(e.shards) }

// shardIndex hashes an object id to its shard. The hash lives in
// internal/partition — the same deterministic map a scatter-gather
// gateway uses to route objects across whole primaries — so "which shard
// inside an engine" and "which partition of a fleet" are one function at
// two scales.
func (e *Engine) shardIndex(objectID int) int {
	return partition.Index(objectID, len(e.shards))
}

// ObserveBatchCtx enqueues a batch of observations, preserving their order
// per object. It is safe to call from many goroutines, but observations
// for the same object must be produced in timestamp order by a single
// producer (or otherwise externally ordered). Processing is asynchronous:
// per-observation errors (e.g. a non-increasing timestamp) surface from
// the next epoch-boundary Tick. It records one span per batch on the
// context's trace, never per record; on an unrecorded context the only
// cost is the context check.
func (e *Engine) ObserveBatchCtx(ctx context.Context, batch []Observation) error {
	if len(batch) == 0 {
		return nil
	}
	_, span := tracing.StartSpan(ctx, "engine.observe_batch")
	span.SetAttr("records", len(batch))
	defer span.End()
	t0 := time.Now()
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return ErrClosed
	}
	n := uint64(len(batch))
	base := e.seq.Add(n) - n
	groups := make([][]obs, len(e.shards))
	for i, o := range batch {
		si := e.shardIndex(o.ObjectID)
		groups[si] = append(groups[si], obs{Observation: o, seq: base + uint64(i)})
	}
	for si, g := range groups {
		if len(g) > 0 {
			e.shards[si].ch <- msg{obs: g}
		}
	}
	mObservations.Add(uint64(len(batch)))
	mObserveBatch.ObserveSince(t0)
	return nil
}

// CheckAdvance is the clock rule TickCtx enforces: a tick to now may only
// follow one to last if time strictly advances. It is exported so a
// journal can refuse a tick before writing it, with the same error text.
func CheckAdvance(now, last trajectory.Time) error {
	if now <= last {
		return fmt.Errorf("engine: Tick(%d) after Tick(%d); time must advance", now, last)
	}
	return nil
}

// TickCtx advances the engine clock to now. The hotness window slides every
// tick; at epoch boundaries — whenever the clock reaches or crosses a
// multiple of Config.Epoch, so sparse client-driven clocks cannot skip an
// epoch — the engine drains all shards, merges their reports back into
// arrival order, runs the coordinator's SinglePath batch, and re-seeds the
// reporting filters. epoch reports whether this tick was such a boundary
// (also when the batch itself then failed), so layers above — checkpoint
// cadence, replication positions — never re-derive the epoch rule.
// TickCtx must not be called concurrently with itself; it is safe
// concurrently with ObserveBatchCtx, but observations racing a tick may
// only be counted in a later epoch — callers wanting the System-identical
// schedule must order Observe-before-Tick themselves. On the context's
// trace it records an engine.tick span per epoch-boundary batch, with an
// engine.epoch_barrier child timing the shard drain and a
// coordinator.select child timing SinglePath and carrying its case mix.
func (e *Engine) TickCtx(ctx context.Context, now trajectory.Time) (epoch bool, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return false, ErrClosed
	}
	if err := CheckAdvance(now, e.lastNow); err != nil {
		return false, err
	}
	// Every tick slides the window, so the kept read view is stale from
	// here on whatever the rest of the tick does.
	e.view.Store(nil)
	prev := e.lastNow
	e.lastNow = now
	e.coord.Advance(now)
	if now/e.cfg.Epoch == prev/e.cfg.Epoch {
		return false, nil
	}
	tEpoch := time.Now()
	ctx, span := tracing.StartSpan(ctx, "engine.tick")
	span.SetAttr("now", int64(now))
	defer span.End()
	depth := 0
	for _, s := range e.shards {
		depth += len(s.ch)
	}
	mQueueDepth.Set(int64(depth))
	_, barrier := tracing.StartSpan(ctx, "engine.epoch_barrier")
	barrier.SetAttr("queue_depth", depth)
	e.drainLocked()
	barrier.End()
	mBarrier.ObserveSince(tEpoch)
	var nReports, nResponses int
	defer func() {
		mEpochs.Inc()
		d := time.Since(tEpoch)
		mTick.Observe(d.Seconds())
		// One event per epoch barrier (batch granularity), carrying the
		// trace ID when the tick ran inside a traced request.
		flightrec.Default.RecordCtx(ctx, flightrec.EvEpochBarrier,
			flightrec.KV("now", int64(now)),
			flightrec.KV("duration_us", d.Microseconds()),
			flightrec.KV("queue_depth", depth),
			flightrec.KV("reports", nReports),
			flightrec.KV("responses", nResponses))
	}()

	// Shard errors (e.g. one object's non-increasing timestamps) are
	// informational — the bad observation was skipped, exactly as a
	// System caller that ignores an Observe error would skip it — so the
	// epoch still processes everyone else's reports.
	var errs []error
	for _, s := range e.shards {
		if s.err != nil {
			errs = append(errs, fmt.Errorf("engine: %w", s.err))
			s.err = nil
		}
	}
	batch := e.batchLocked()
	// SinglePath gets its own child span, so a trace splits the epoch into
	// barrier, selection and response delivery; its attributes are this
	// batch's SinglePath case mix.
	before := e.coord.Stats()
	_, sel := tracing.StartSpan(ctx, "coordinator.select")
	resps, perr := e.coord.ProcessEpoch(batch)
	after := e.coord.Stats()
	sel.SetAttr("reports", after.Reports-before.Reports)
	sel.SetAttr("case1", after.Case1-before.Case1)
	sel.SetAttr("case2", after.Case2W-before.Case2W)
	sel.SetAttr("case3", after.Case3-before.Case3)
	sel.SetAttr("paths_created", after.PathsCreated-before.PathsCreated)
	sel.End()
	span.SetAttr("reports", len(batch))
	span.SetAttr("responses", len(resps))
	nReports, nResponses = len(batch), len(resps)
	e.staged = e.staged[:0]
	e.followUps = nil
	if perr != nil {
		// Validation is deterministic per report, so a rejected batch can
		// never succeed later; it is dropped rather than wedging every
		// future epoch (mirrors System.Tick). RayTrace filters cannot
		// produce such reports.
		errs = append(errs, perr)
		return true, errors.Join(errs...)
	}
	// A sparse clock that jumped more than W past the reports' exit
	// timestamps makes the just-recorded crossings already stale; expire
	// them now so TopK/Score never surface phantom hot paths.
	e.coord.Advance(now)
	for _, r := range resps {
		e.responses++
		st, report, err := e.shards[e.shardIndex(r.ObjectID)].bank.Respond(r.ObjectID, r.End)
		if err != nil {
			// Respond validates before mutating, so the filter stays
			// waiting; keep delivering the remaining responses rather
			// than leaving other filters un-reseeded.
			errs = append(errs, fmt.Errorf("engine: %w", err))
			continue
		}
		if report {
			e.followUps = append(e.followUps, coordinator.Report{ObjectID: r.ObjectID, State: st})
			e.followed++
		}
	}
	return true, errors.Join(errs...)
}

// batchLocked moves the reports the shards have raised into staged,
// restores their arrival order, and returns the next epoch's batch: the
// previous epoch's follow-ups, then the staged reports. Caller holds the
// write lock and has drained the shards.
func (e *Engine) batchLocked() []coordinator.Report {
	for _, s := range e.shards {
		e.staged = append(e.staged, s.reports...)
		s.reports = nil
	}
	sort.Slice(e.staged, func(i, j int) bool { return e.staged[i].seq < e.staged[j].seq })
	batch := make([]coordinator.Report, 0, len(e.followUps)+len(e.staged))
	batch = append(batch, e.followUps...)
	for _, tr := range e.staged {
		batch = append(batch, tr.rep)
	}
	return batch
}

// drainLocked flushes every shard queue and waits until all shards are
// idle. Caller holds the write lock, so no new work can be enqueued.
func (e *Engine) drainLocked() {
	acks := make([]chan struct{}, len(e.shards))
	for i, s := range e.shards {
		acks[i] = make(chan struct{})
		//hotpathsvet:ignore locksnapshot flush barrier: shards always drain their queue, and the lock is exactly what keeps new senders out while they do
		s.ch <- msg{flush: acks[i]}
	}
	for _, ack := range acks {
		<-ack
	}
}

// Drain blocks until every observation enqueued before the call has been
// processed by its shard, which makes the Observations/Reports counters
// exact. Journal replay ends with it: a journal rarely stops on an epoch
// boundary, and "recovered" must not mean "still settling".
func (e *Engine) Drain() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	e.drainLocked()
	return nil
}

// Close drains the shards and stops their goroutines. Queries remain
// valid after Close, reflecting the last processed epoch; ingestion and
// Tick return ErrClosed. Close returns the first unprocessed shard error,
// if any. It is idempotent.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	e.drainLocked()
	var firstErr error
	for _, s := range e.shards {
		if s.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("engine: %w", s.err)
		}
		close(s.ch)
		<-s.done
	}
	return firstErr
}

// Clock returns the timestamp of the last Tick — cheap (no snapshot, no
// path copies), for monitoring probes.
func (e *Engine) Clock() trajectory.Time {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.lastNow
}

// Stats returns the engine's counters.
func (e *Engine) Stats() Stats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.statsLocked()
}

func (e *Engine) statsLocked() Stats {
	st := Stats{
		Observations: int(e.baseObserved),
		Reports:      e.followed + int(e.baseReported),
		Responses:    e.responses,
		IndexSize:    e.coord.IndexSize(),
		Coordinator:  e.coord.Stats(),
	}
	for _, s := range e.shards {
		st.Observations += int(s.observed.Load())
		st.Reports += int(s.reported.Load())
	}
	return st
}

// Snapshot returns an immutable copy of the coordinator's path store
// together with the engine clock and counters, all read at one consistent
// point under the engine read lock. The coordinator changes only inside
// Tick (the window slides, an epoch batch lands) and RestoreState, so the
// copy is taken once per tick: the first call after one makes it and
// every later call until the next returns the same pointer, with what it
// has ordered since. Observations between ticks do not invalidate it —
// they only reach the coordinator at an epoch boundary. The clock and
// counters are read fresh on every call. The snapshot is safe to share
// across goroutines while ingestion continues.
func (e *Engine) Snapshot() (*coordinator.Snapshot, trajectory.Time, Stats) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	snap := e.view.Load()
	if snap == nil {
		// Concurrent readers may each copy; the first to publish wins and
		// the rest adopt its copy, so everyone shares one memo.
		snap = e.coord.Snapshot()
		if !e.view.CompareAndSwap(nil, snap) {
			snap = e.view.Load()
		}
	}
	return snap, e.lastNow, e.statsLocked()
}
