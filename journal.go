package hotpaths

import (
	"context"
	"errors"
	"fmt"

	"hotpaths/internal/engine"
	"hotpaths/internal/tracing"
	"hotpaths/internal/wal"
)

// The journal is the one description of a deployment's history: the live
// write path turns calls into wal.Records (recordOf), and everything that
// rebuilds state from it — OpenDurable's crash recovery, Recover, and a
// Follower tailing a primary — turns records back into Engine calls
// through one applier. That is sound only because the pipeline is
// deterministic in arrival order, and it stays sound only while there is
// a single record-to-call mapping; a second one would be a second
// definition of what a journal means.

// recordOf is the journaled form of one observation.
func recordOf(o Observation) wal.Record {
	return wal.Record{
		Kind: wal.KindObserve, ObjectID: int64(o.ObjectID), T: o.T,
		X: o.X, Y: o.Y, SigmaX: o.SigmaX, SigmaY: o.SigmaY,
	}
}

// observationOf is recordOf's inverse for KindObserve records.
func observationOf(r wal.Record) Observation {
	return Observation{
		ObjectID: int(r.ObjectID), X: r.X, Y: r.Y, T: r.T,
		SigmaX: r.SigmaX, SigmaY: r.SigmaY,
	}
}

// applyBatch is how many consecutive Observe records the applier groups
// into one ObserveBatchCtx call. Batching is what keeps replay throughput
// at the order of live batched ingest; it cannot change results because
// the Engine merges observations back into arrival order at epoch
// boundaries regardless of batch boundaries.
const applyBatch = 1024

// applier replays a wal.Record stream, fed in LSN order, into an Engine.
// Observe records are grouped into batches flushed at every Tick, on
// demand (a Follower flushes at each heartbeat) and every limit records,
// so the applied position only ever advances over fully-applied prefixes.
// Apply errors are discarded: the run that wrote the journal saw the
// identical error from the identical call and carried on, so discarding
// reproduces its state. That holds only for records the write path could
// have journaled, so each observation is checked on arrival: ingest
// validates whole batches, and one bad record from a hostile stream or a
// crafted segment would otherwise drop its entire apply group unseen.
type applier struct {
	eng   *Engine
	limit int // flush threshold, applyBatch outside tests
	batch []Observation
	next  uint64 // LSN after the last record handed to apply

	// traced makes every flush and tick its own probabilistically sampled
	// local-root trace: a Follower's apply loop has no inbound request to
	// continue, and slow applies should surface in /debug/traces like slow
	// writes do on the primary.
	traced bool
	// applied, when set, is told the LSN after the last applied record
	// each time the applied prefix grows.
	applied func(next uint64)
}

func newApplier(eng *Engine) *applier {
	return &applier{eng: eng, limit: applyBatch, batch: make([]Observation, 0, applyBatch)}
}

// run runs fn under its own root span when the applier is traced.
func (a *applier) run(name string, fn func(context.Context, *tracing.Span) error) {
	if !a.traced {
		fn(context.Background(), nil)
		return
	}
	tracing.Default.Root(context.Background(), name, fn)
}

// apply consumes the record at lsn.
func (a *applier) apply(lsn uint64, r wal.Record) error {
	switch r.Kind {
	case wal.KindObserve:
		o := observationOf(r)
		if err := checkObservation(int(lsn), o, a.eng.cfg.Delta); err != nil {
			return fmt.Errorf("hotpaths: journal record at LSN %d cannot be replayed: %w", lsn, err)
		}
		a.batch = append(a.batch, o)
		a.next = lsn + 1
		if len(a.batch) >= a.limit {
			a.flush()
		}
	case wal.KindTick:
		a.flush()
		a.run("replication.tick", func(ctx context.Context, span *tracing.Span) error {
			span.SetAttr("tick", r.T)
			return a.eng.TickCtx(ctx, r.T)
		})
		a.next = lsn + 1
		a.advanced()
	default:
		// A record kind this build does not know: it cannot apply it, and
		// silently skipping would diverge. Surface it; the operator must
		// upgrade this node.
		return fmt.Errorf("hotpaths: journal carried unknown record kind %d at LSN %d; this build is too old to replay it", r.Kind, lsn)
	}
	return nil
}

// flush applies the buffered observations, if any.
func (a *applier) flush() {
	if len(a.batch) == 0 {
		return
	}
	a.run("replication.apply", func(ctx context.Context, span *tracing.Span) error {
		span.SetAttr("records", len(a.batch))
		return a.eng.ObserveBatchCtx(ctx, a.batch)
	})
	a.batch = a.batch[:0]
	a.advanced()
}

func (a *applier) advanced() {
	if a.applied != nil {
		a.applied(a.next)
	}
}

// recoverEngine starts an Engine under cfg and brings it to the state
// journaled in dir: the newest decodable checkpoint, then the WAL tail
// after it through the applier. It reports the LSN the restored
// checkpoint covers up to and how many records were replayed on top.
func recoverEngine(dir string, cfg EngineConfig) (eng *Engine, ckptLSN, replayed uint64, err error) {
	eng, err = NewEngine(cfg)
	if err != nil {
		return nil, 0, 0, err
	}
	defer func() {
		if err != nil {
			eng.Close()
			eng = nil
		}
	}()
	lsns, err := wal.Checkpoints(dir)
	if err != nil {
		return eng, 0, 0, err
	}
	// A corrupt, mismatched or too-old checkpoint falls back to an older
	// one; why each was skipped is kept in case the journal no longer
	// reaches back that far.
	var skipped []error
	for i := len(lsns) - 1; i >= 0; i-- {
		payload, err := wal.ReadCheckpoint(dir, lsns[i])
		var st engine.State
		if err == nil {
			st, err = decodeCheckpoint(payload, eng.cfg)
		}
		if err != nil {
			skipped = append(skipped, fmt.Errorf("checkpoint at LSN %d skipped: %w", lsns[i], err))
			continue
		}
		if err := eng.eng.RestoreState(st); err != nil {
			return eng, 0, 0, err
		}
		ckptLSN = lsns[i]
		break
	}
	a := newApplier(eng)
	err = wal.ReadFrom(dir, ckptLSN, func(lsn uint64, r wal.Record) error {
		replayed++
		return a.apply(lsn, r)
	})
	if err != nil {
		return eng, ckptLSN, replayed, errors.Join(append([]error{err}, skipped...)...)
	}
	a.flush()
	return eng, ckptLSN, replayed, eng.eng.Drain()
}
