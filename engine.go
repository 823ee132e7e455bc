package hotpaths

import (
	"context"
	"fmt"

	"hotpaths/internal/engine"
	"hotpaths/internal/geom"
	"hotpaths/internal/trajectory"
)

// Observation is one location measurement, the unit a Writer ingests in
// batches. SigmaX/SigmaY are optional per-axis Gaussian standard
// deviations; leave them zero for exact measurements. Noisy observations
// require Config.Delta > 0.
type Observation struct {
	ObjectID       int
	X, Y           float64
	T              int64
	SigmaX, SigmaY float64
}

// internal is the observation in the internal engine's form.
func (o Observation) internal() engine.Observation {
	return engine.Observation{
		ObjectID: o.ObjectID,
		P:        geom.Pt(o.X, o.Y),
		T:        trajectory.Time(o.T),
		SigmaX:   o.SigmaX,
		SigmaY:   o.SigmaY,
	}
}

// EngineConfig parameterises an Engine: the common Config plus the
// concurrency knobs.
type EngineConfig struct {
	Config

	// Shards is the number of filter shards, each a goroutine owning the
	// filter bank of the objects that hash to it (default: GOMAXPROCS).
	Shards int

	// Buffer is the per-shard ingestion queue capacity in messages
	// (default 256). Larger buffers decouple producers from slow shards at
	// the cost of memory.
	Buffer int
}

// Engine is the concurrent, object-sharded deployment of the paper's
// architecture. Observations hash by object id to shard goroutines, each
// owning the filter bank of its objects; at epoch boundaries TickCtx
// drains the shards and feeds the merged report batch — restored to
// arrival order — to a single SinglePath coordinator, so results are
// bit-identical to a System fed the same observations in the same order.
//
// Concurrency contract: ObserveBatchCtx may be called from many goroutines
// concurrently, and the reads (Snapshot, Stats, Clock) are safe at any
// time. Observations for one object must be produced in timestamp order
// by one producer at a time. TickCtx must not race itself, and producers
// that need an observation counted in a specific epoch must order their
// batch before that TickCtx.
type Engine struct {
	cfg Config
	eng *engine.Engine
	// subs fans epoch snapshots out to standing queries; published by
	// tick, after the epoch barrier.
	subs hub
}

// NewEngine validates cfg and starts the engine's shard goroutines. Call
// Close to stop them.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	c, err := cfg.Config.withDefaults()
	if err != nil {
		return nil, err
	}
	coord, err := c.newCoordinator()
	if err != nil {
		return nil, err
	}
	eng, err := engine.New(engine.Config{
		Coord:     coord,
		Epoch:     trajectory.Time(c.Epoch),
		Tolerance: c.toleranceFunc,
		Shards:    cfg.Shards,
		Buffer:    cfg.Buffer,
	})
	if err != nil {
		return nil, err
	}
	return &Engine{cfg: c, eng: eng}, nil
}

// Shards returns the engine's shard count.
func (e *Engine) Shards() int { return e.eng.Shards() }

// checkObservation validates one batched observation against the
// deployment's noise mode, before it can reach shard-queue or WAL state;
// the index locates the bad element for the client. The rules are the
// shared badCoords/badSigmas predicates, so the batch and System's
// single-call ingest paths can never drift apart.
func checkObservation(i int, o Observation, delta float64) error {
	if err := badCoords(o.X, o.Y); err != nil {
		return fmt.Errorf("hotpaths: observation %d: %w", i, err)
	}
	if o.SigmaX == 0 && o.SigmaY == 0 {
		return nil
	}
	if delta <= 0 {
		return fmt.Errorf("hotpaths: observation %d carries noise but Config.Delta is 0", i)
	}
	if err := badSigmas(o.SigmaX, o.SigmaY); err != nil {
		return fmt.Errorf("hotpaths: observation %d: %w", i, err)
	}
	return nil
}

// ObserveBatchCtx enqueues a batch of observations in one pass — the fast
// path for network ingestion: the batch is split into at most one queue
// message per shard. Order is preserved per object. The batch is
// validated up front, so a rejected batch enqueues nothing. Processing is
// asynchronous: a per-observation error (a non-increasing timestamp)
// surfaces from the next epoch-boundary TickCtx. One engine
// span per batch — never per record — lands on the context's trace; pass
// context.Background() when there is none.
func (e *Engine) ObserveBatchCtx(ctx context.Context, batch []Observation) error {
	conv, err := e.cfg.convertBatch(batch)
	if err != nil {
		return err
	}
	return e.eng.ObserveBatchCtx(ctx, conv)
}

// convertBatch validates a batch against the deployment's noise mode and
// converts it to the internal engine's form in the same pass; Durable
// calls it before journaling and hands the result straight to the shards.
func (cfg Config) convertBatch(batch []Observation) ([]engine.Observation, error) {
	conv := make([]engine.Observation, len(batch))
	for i, o := range batch {
		if err := checkObservation(i, o, cfg.Delta); err != nil {
			return nil, err
		}
		conv[i] = o.internal()
	}
	return conv, nil
}

// TickCtx advances the engine clock to now: the hotness window slides, and
// at epoch boundaries — whenever the clock reaches or crosses a multiple
// of Config.Epoch — the shards are drained and the coordinator processes
// the merged report batch. Call it once per timestamp, after that
// timestamp's observations; sparse clocks that jump over a boundary still
// trigger the epoch. The epoch-boundary spans (engine.tick and its
// children) land on the context's trace.
func (e *Engine) TickCtx(ctx context.Context, now int64) error {
	_, err := e.tick(ctx, now)
	return err
}

// tick is TickCtx reporting whether the tick fired an epoch; Durable
// calls it too. At an epoch it publishes the engine's read view to the
// standing queries — the copy every reader of this tick shares — after
// the internal engine has released its lock, and only while someone
// subscribes. A failed epoch republishes the last epoch number, which
// the hub drops.
func (e *Engine) tick(ctx context.Context, now int64) (epoch bool, err error) {
	epoch, err = e.eng.TickCtx(ctx, trajectory.Time(now))
	if epoch && e.subs.any() {
		e.subs.publish(e.Snapshot())
	}
	return epoch, err
}

// Close drains and stops the shard goroutines and closes every
// subscription channel (no further epochs can fire). Queries remain valid
// after Close; ingestion, TickCtx and Subscribe fail. It is idempotent and
// returns the first unsurfaced processing error, if any.
func (e *Engine) Close() error {
	err := e.eng.Close()
	e.subs.closeAll()
	return err
}

// Config returns the engine's configuration with defaults applied.
func (e *Engine) Config() Config { return e.cfg }

// Stats returns the engine's counters. While ingestion is in flight the
// Observations/Reports counters are eventually consistent; after an
// epoch-boundary TickCtx they exactly match a System fed the same input.
func (e *Engine) Stats() Stats {
	return convertStats(e.eng.Stats())
}

// Clock returns the timestamp of the last Tick. Unlike Snapshot().Clock()
// it copies no paths, so monitoring probes can call it at any rate.
func (e *Engine) Clock() int64 {
	return int64(e.eng.Clock())
}

func convertStats(es engine.Stats) Stats {
	return Stats{
		Observations: es.Observations,
		Reports:      es.Reports,
		Responses:    es.Responses,
		Epochs:       es.Coordinator.Epochs,
		PathsCreated: es.Coordinator.PathsCreated,
		PathsExpired: es.Coordinator.PathsExpired,
		Crossings:    es.Coordinator.Crossings,
		IndexSize:    es.IndexSize,
		Case1:        es.Coordinator.Case1,
		Case2:        es.Coordinator.Case2W,
		Case3:        es.Coordinator.Case3,
	}
}
