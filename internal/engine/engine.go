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
// only the sequence counter, the group free list and the shard queues),
// while Tick and Close take the write lock. While Tick holds the write
// lock no producer can enqueue, so after the flush barrier the shard
// goroutines are guaranteed idle and Tick may touch their banks directly —
// delivering epoch responses without any per-message channel round trips.
// Queries (Snapshot/Stats/Clock) take the read lock: the coordinator is
// only mutated under the write lock, so they are safe concurrently with
// ingestion.
//
// Each observation is copied once, into a group: ObserveBatchCtx splits a
// batch into one slice per shard, a group set, and sends each non-empty
// group down its shard's queue. A set is in exactly one of three hands.
// A producer pops it from the engine's free list (under a small mutex of
// its own) and fills it; once sent, it belongs to the shards until the
// next flush barrier, and the engine lists it as sent; every barrier —
// an epoch Tick, Drain, DumpState, RestoreState, Close — finds every
// shard idle, so it empties the sent sets and moves them back to the
// free list. The recycle is deterministic: which set a producer reuses
// depends on the call sequence alone, never on how fast a shard ran.
// The sent sets are capped in total (keepObs), so a clock that never
// reaches an epoch cannot make the engine hold every observation it was
// sent; a set past the cap is left to the garbage collector. The epoch
// batch, the staged reports and every shard's report buffer are kept
// across epochs the same way, under the write lock.
//
// The coordinator changes only in Tick (the window slides, an epoch batch
// lands) and RestoreState, and both clear the engine's kept read view
// under the write lock. Snapshot refills it under the read lock, so every
// reader between two ticks shares one copy and whatever that copy has
// ordered on demand. Taking the copy holds the read lock, so a Tick that
// arrives meanwhile waits for it.
package engine

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
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
	batch     []coordinator.Report // the epoch batch batchLocked last built
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

	// The group sets of the package comment. sentObs is how many
	// observations the sets in sent can hold.
	groupsMu sync.Mutex
	free     []groupSet
	sent     []groupSet
	sentObs  int
}

// groupSet is one batch split by shard: element i is shard i's group.
type groupSet [][]obs

// keepObs caps the observations the sent group sets may hold between two
// flush barriers, at 3.5 MiB of groups: close to three epochs of a
// 20,000-object stream that sends some 2,400 observations per timestamp.
const keepObs = 1 << 16

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
	e := &Engine{cfg: cfg, coord: cfg.Coord}
	for i := 0; i < cfg.Shards; i++ {
		s := newShard(cfg.Tolerance)
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

// ObserveBatchCtx enqueues a batch of n observations, the i-th read by
// at(i), preserving their order per object. at is called once per
// observation under the engine's read lock and must not call back into
// the engine; what it returns is copied into a recycled shard group, so
// the caller may reuse whatever at reads as soon as this returns. It is
// safe to call from many goroutines, but observations for the same object
// must be produced in timestamp order by a single producer (or otherwise
// externally ordered). Processing is asynchronous: per-observation errors
// (e.g. a non-increasing timestamp) surface from the next epoch-boundary
// Tick. It records one span per batch on the context's trace, never per
// record; on an unrecorded context the only cost is the context check.
func (e *Engine) ObserveBatchCtx(ctx context.Context, n int, at func(i int) Observation) error {
	if n == 0 {
		return nil
	}
	_, span := tracing.StartSpan(ctx, "engine.observe_batch")
	if span != nil { // boxing n would allocate even for a nil span
		span.SetAttr("records", n)
	}
	defer span.End()
	t0 := time.Now()
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return ErrClosed
	}
	base := e.seq.Add(uint64(n)) - uint64(n)
	gs := e.takeGroups()
	for i := range n {
		o := at(i)
		si := e.shardIndex(o.ObjectID)
		gs[si] = append(gs[si], obs{Observation: o, seq: base + uint64(i)})
	}
	for si, g := range gs {
		if len(g) > 0 {
			e.shards[si].ch <- msg{obs: g}
		}
	}
	e.keepGroups(gs)
	mObservations.Add(uint64(n))
	mObserveBatch.ObserveSince(t0)
	return nil
}

// takeGroups pops an empty group set off the free list, or makes one.
func (e *Engine) takeGroups() groupSet {
	e.groupsMu.Lock()
	defer e.groupsMu.Unlock()
	k := len(e.free)
	if k == 0 {
		return make(groupSet, len(e.shards))
	}
	gs := e.free[k-1]
	e.free[k-1] = nil
	e.free = e.free[:k-1]
	return gs
}

// keepGroups lists a set whose groups were just sent, for the next flush
// barrier to recycle, unless the sent sets would then hold more than
// keepObs observations.
func (e *Engine) keepGroups(gs groupSet) {
	size := 0
	for _, g := range gs {
		size += cap(g)
	}
	e.groupsMu.Lock()
	defer e.groupsMu.Unlock()
	if e.sentObs+size > keepObs {
		return
	}
	e.sent = append(e.sent, gs)
	e.sentObs += size
}

// recycleLocked empties every sent group set and moves it to the free
// list. Caller holds the write lock and has drained the shards, so no
// shard still reads a sent group.
func (e *Engine) recycleLocked() {
	e.groupsMu.Lock()
	defer e.groupsMu.Unlock()
	for _, gs := range e.sent {
		for si := range gs {
			gs[si] = gs[si][:0]
		}
	}
	e.free = append(e.free, e.sent...)
	clear(e.sent)
	e.sent = e.sent[:0]
	e.sentObs = 0
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
	e.followUps = e.followUps[:0]
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
// previous epoch's follow-ups, then the staged reports. The batch is the
// engine's, rebuilt in place by the next call (the coordinator keeps no
// reference to it). Caller holds the write lock and has drained the
// shards.
func (e *Engine) batchLocked() []coordinator.Report {
	for _, s := range e.shards {
		e.staged = append(e.staged, s.reports...)
		s.reports = s.reports[:0]
	}
	slices.SortFunc(e.staged, func(a, b taggedReport) int { return cmp.Compare(a.seq, b.seq) })
	e.batch = append(e.batch[:0], e.followUps...)
	for _, tr := range e.staged {
		e.batch = append(e.batch, tr.rep)
	}
	return e.batch
}

// drainLocked flushes every shard queue, waits until all shards are idle
// and recycles the group sets they were sent. Caller holds the write
// lock, so no new work can be enqueued.
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
	e.recycleLocked()
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
	e.free = nil // nothing will be sent again
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
