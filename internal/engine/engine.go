// Package engine runs the paper's epoch protocol for every deployment.
//
// # One core, two bank forms
//
// The core (core.go) is the protocol once: the clock check and window
// slide; at an epoch boundary the batch — the previous epoch's follow-up
// reports, then the reports raised since in arrival order — SinglePath
// over it, a second slide, and each response delivered to the
// raytrace.Bank holding its object, whose follow-ups open the next batch.
// It reaches the banks through one seam, banks: collect the reports
// raised so far, and name the bank that holds an object.
//
// A bank decides each object's tolerance at the object's first sighting,
// from Config.Eps and Config.Delta and the noise levels of that first
// observation (uncertainty.HalfWidths), and keeps it for the filter's
// life: the σ of later observations are not used. A restore solves it
// again from the σ the state carries.
//
// Inline, a hotpaths.System, is the core with one bank fed in the
// caller's goroutine: a report joins the batch as it is raised, and a
// refused observation is the write's own error.
//
// Engine is the core with N shard banks. Observations hash by object id
// to one of N shard goroutines, each around a raytrace.Bank fed through a
// FIFO queue, so per-object order holds and filters run concurrently
// while the coordinator stays single-threaded. Every observation gets a
// global sequence number on entry, and a report carries its
// observation's. At an epoch boundary Tick raises a flush barrier — a
// token per shard queue, acknowledged once everything queued before it
// is processed — and collect merges the shards' reports by sequence
// number: the order an Inline fed the same input would have, so the two
// forms produce bit-identical paths, hotness and counters. A shard
// cannot hand a refusal back to a write that has already returned, so it
// counts it in hotpaths_engine_observations_refused_total and drops the
// observation. Spans, metrics and the epoch_barrier event belong to the
// Engine; an Inline records none.
//
// # Synchronisation
//
// One RWMutex guards the core. Ingestion takes the read lock (producers
// touch only the sequence counter, the group free list and the shard
// queues); Tick, Close and the state calls take the write lock, so after
// the flush barrier the shards are idle and Tick touches their banks
// directly. Queries take the read lock.
//
// Each observation is copied once, into a group: ObserveBatchCtx splits a
// batch into one slice per shard, a group set, popped from a free list
// under a small mutex of its own. Once sent, a set belongs to the shards
// until the next barrier — an epoch Tick, Drain, DumpState, RestoreState
// or Close — which finds them idle and moves every sent set back to the
// free list, so which set a producer reuses depends on the call sequence
// alone. The sent sets are capped in total (keepObs), so a clock that
// never reaches an epoch cannot make the engine hold every observation;
// a set past the cap is left to the garbage collector.
//
// The coordinator changes only in Tick and RestoreState, which clear the
// kept read view under the write lock. Snapshot refills it under the read
// lock, so every reader between two ticks shares one copy and what it
// has ordered; a Tick that arrives meanwhile waits for the copy.
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
// Its fields are hotpaths.Observation's, so the public type converts to
// it.
type Observation struct {
	ObjectID       int
	X, Y           float64
	T              int64
	SigmaX, SigmaY float64
}

func (o Observation) point() trajectory.TimePoint {
	return trajectory.TP(geom.Pt(o.X, o.Y), trajectory.Time(o.T))
}

// Config parameterises both forms. The coordinator is built by the public
// hotpaths package so that System and Engine share one configuration
// surface.
type Config struct {
	// Coord is the coordinator tier processing epoch batches (required).
	Coord *coordinator.Coordinator

	// Epoch is the coordinator cadence Λ in timestamps (required, positive).
	Epoch trajectory.Time

	// Eps (required, positive) and Delta are the filters' (ε,δ): each
	// bank solves an object's tolerance from them and the noise levels of
	// the object's first observation (raytrace.NewBank).
	Eps, Delta float64

	// Shards is the Engine's number of filter shards (default:
	// GOMAXPROCS). An Inline has one bank and ignores it.
	Shards int
}

// Stats aggregates the engine's counters, with hotpaths.Stats' fields.
// While ingestion is in flight an Engine's Observations/Reports counters
// are eventually consistent; after a Tick at an epoch boundary they are
// exact.
type Stats struct {
	Observations        int
	Reports             int
	Responses           int
	Epochs              int
	PathsCreated        int
	PathsExpired        int
	Crossings           int
	IndexSize           int
	Case1, Case2, Case3 int
}

// Engine is the sharded ingestion pipeline. See the package comment for
// the concurrency contract.
type Engine struct {
	cfg    Config
	shards []*shard
	seq    atomic.Uint64

	mu     sync.RWMutex   // write: Tick/Close; read: ingestion and queries
	core                  // under mu
	staged []taggedReport // collect's merge buffer, empty between calls
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
	if !(cfg.Eps > 0) {
		return nil, fmt.Errorf("engine: Config.Eps must be positive, got %v", cfg.Eps)
	}
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	e := &Engine{cfg: cfg, core: core{coord: cfg.Coord, epoch: cfg.Epoch}}
	for i := 0; i < cfg.Shards; i++ {
		s := newShard(cfg)
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
// externally ordered). A refusal is counted by the shard, never returned
// (see the package comment). It records one span per batch on the
// context's trace, never per record; on an unrecorded context the only
// cost is the context check.
func (e *Engine) ObserveBatchCtx(ctx context.Context, n int, at func(i int) Observation) error {
	if n == 0 {
		return nil
	}
	return tracing.Do(ctx, "engine.observe_batch", func(_ context.Context, span *tracing.Span) error {
		if span != nil { // boxing n would allocate even for a nil span
			span.SetAttr("records", n)
		}
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
	})
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

// TickCtx advances the engine clock to now; at an epoch boundary it
// drains the shards and runs the core's epoch over their merged reports.
// epoch reports whether this tick was a boundary (also when the batch
// then failed), so layers above never re-derive the epoch rule. A refused
// tick changes nothing; a refused observation is never a tick's error.
// TickCtx must not race itself. On the context's trace it records an
// engine.tick span per epoch, with an engine.epoch_barrier child timing
// the drain and the core's coordinator.select child.
func (e *Engine) TickCtx(ctx context.Context, now trajectory.Time) (epoch bool, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return false, ErrClosed
	}
	if epoch, err = e.advance(now); err != nil {
		return false, err
	}
	// Every tick slides the window, so the kept read view is stale from
	// here on whatever the rest of the tick does.
	e.view.Store(nil)
	if !epoch {
		return false, nil
	}
	return true, tracing.Do(ctx, "engine.tick", func(ctx context.Context, span *tracing.Span) error {
		tEpoch := time.Now()
		span.SetAttr("now", int64(now))
		depth := 0
		for _, s := range e.shards {
			depth += len(s.ch)
		}
		mQueueDepth.Set(int64(depth))
		var refused int
		tracing.Do(ctx, "engine.epoch_barrier", func(_ context.Context, barrier *tracing.Span) error {
			barrier.SetAttr("queue_depth", depth)
			refused = e.drainLocked()
			return nil
		})
		mBarrier.ObserveSince(tEpoch)
		nReports, nResponses, err := e.runEpoch(ctx, e)
		span.SetAttr("reports", nReports)
		span.SetAttr("responses", nResponses)
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
			flightrec.KV("responses", nResponses),
			flightrec.KV("refused", refused))
		return err
	})
}

// collect merges the reports the shards have raised back into arrival
// order by their sequence numbers. Caller holds the write lock and has
// drained the shards.
func (e *Engine) collect(dst []coordinator.Report) []coordinator.Report {
	for _, s := range e.shards {
		e.staged = append(e.staged, s.reports...)
		s.reports = s.reports[:0]
	}
	slices.SortFunc(e.staged, func(a, b taggedReport) int { return cmp.Compare(a.seq, b.seq) })
	for _, tr := range e.staged {
		dst = append(dst, tr.rep)
	}
	e.staged = e.staged[:0]
	return dst
}

func (e *Engine) bank(id int) *raytrace.Bank { return &e.shards[e.shardIndex(id)].bank }

// drainLocked flushes every shard queue, waits until all shards are idle
// and recycles the group sets they were sent. It returns how many
// observations the shards refused since the previous barrier. Caller
// holds the write lock, so no new work can be enqueued.
func (e *Engine) drainLocked() (refused int) {
	acks := make([]chan struct{}, len(e.shards))
	for i, s := range e.shards {
		acks[i] = make(chan struct{})
		//hotpathsvet:ignore locksnapshot flush barrier: shards always drain their queue, and the lock is exactly what keeps new senders out while they do
		s.ch <- msg{flush: acks[i]}
	}
	for i, ack := range acks {
		<-ack
		refused += e.shards[i].refused
		e.shards[i].refused = 0
	}
	e.recycleLocked()
	return refused
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
// Tick return ErrClosed. Observations the shards refused were counted as
// they were refused, so Close has no error to return. It is idempotent.
func (e *Engine) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	e.closed = true
	e.drainLocked()
	for _, s := range e.shards {
		close(s.ch)
		<-s.done
	}
	e.free = nil // nothing will be sent again
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
	observed, reported := int(e.baseObserved), int(e.baseReported)
	for _, s := range e.shards {
		observed += int(s.observed.Load())
		reported += int(s.reported.Load())
	}
	return e.stats(observed, reported)
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
