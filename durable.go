package hotpaths

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hotpaths/internal/engine"
	"hotpaths/internal/flightrec"
	"hotpaths/internal/tracing"
	"hotpaths/internal/trajectory"
	"hotpaths/internal/wal"
)

// DurableConfig parameterises OpenDurable: the common Config plus the
// journal and checkpoint knobs.
type DurableConfig struct {
	Config

	// Concurrent is ignored: a Durable always journals in front of the
	// sharded Engine (it used to select a System-backed variant that no
	// served traffic took). The field stays declared only because the
	// frozen benchmark/ module still sets it; ROADMAP lists it for removal
	// by the next benchmark PR.
	Concurrent bool

	// Shards, Buffer are the backing Engine's concurrency knobs.
	Shards, Buffer int

	// SegmentBytes rotates WAL segments at this size (default 64 MiB).
	SegmentBytes int64

	// FsyncInterval is the group-commit cadence (default 25ms): appends
	// are acknowledged immediately and made durable together every
	// interval, so a crash can lose at most the last interval's records.
	// Negative disables timed fsync entirely; durability then happens at
	// rotation, checkpoint, Sync and Close only (useful for tests and
	// bulk loads).
	FsyncInterval time.Duration

	// CheckpointEvery is the auto-checkpoint cadence in timestamps:
	// at epoch boundaries, once the clock has advanced this far since the
	// last checkpoint, the full state is checkpointed and older WAL
	// segments are truncated. The default is W — recovery then replays at
	// most about one window of records. Negative disables automatic
	// checkpoints (Checkpoint can still be called explicitly).
	CheckpointEvery int64

	// KeepCheckpoints is how many checkpoint files to retain (default 2:
	// the newest plus one fallback in case the newest is unreadable).
	KeepCheckpoints int
}

func (cfg DurableConfig) withDefaults() (DurableConfig, error) {
	c, err := cfg.Config.withDefaults()
	if err != nil {
		return cfg, err
	}
	cfg.Config = c
	if cfg.SegmentBytes == 0 {
		cfg.SegmentBytes = 64 << 20
	}
	if cfg.FsyncInterval == 0 {
		cfg.FsyncInterval = 25 * time.Millisecond
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = cfg.W
	}
	if cfg.KeepCheckpoints <= 0 {
		cfg.KeepCheckpoints = 2
	}
	return cfg, nil
}

// WALStats reports the durability layer's counters.
type WALStats struct {
	Records             uint64 // records appended this process
	NextLSN             uint64 // total records in the stream (next record's index)
	Segments            int    // live segment files on disk
	Bytes               int64  // bytes across live segments
	Syncs               uint64 // fsync batches issued
	Truncated           int64  // torn-tail bytes discarded when the log was opened
	Checkpoints         uint64 // checkpoints written this process
	LastCheckpointLSN   uint64
	LastCheckpointClock int64
	Replayed            uint64 // WAL records replayed while opening
}

// Durable is an Engine behind a write-ahead log: every batch and tick is
// journaled before it is applied, so the exact state can be reconstructed
// after a crash by OpenDurable (which recovers automatically) or Recover.
// Because the pipeline is observation-order-deterministic, replaying the
// journal reproduces the pre-crash state bit for bit; periodic
// checkpoints bound the replay to roughly one window.
//
// Durable is a Reader and a Writer. Its writes are serialised by an
// internal mutex — the journal fixes the total observation order that
// recovery replays — and are safe to call from many goroutines. Snapshot,
// Stats, Clock and Subscribe go straight to the Engine and never wait on
// a writer.
//
// Durability is group-committed: an acknowledged write is on disk no
// later than FsyncInterval after it returned. Call Sync for a hard
// barrier.
//
// Because replay is deterministic, the journal doubles as a replication
// log: hotpathsd ships it to read-only followers over HTTP, and
// OpenFollower replays it into a live replica whose query results are
// byte-identical to this deployment's at every shared epoch boundary.
type Durable struct {
	cfg DurableConfig
	dir string

	eng *Engine
	log *wal.Log

	mu     sync.Mutex // serialises journal-then-apply; guards the fields below
	closed bool

	lastCkptClock int64
	lastCkptLSN   uint64
	ckptCount     uint64
	replayed      uint64
}

// metaFile records the Config a log directory was created under, so later
// opens (and Recover, which takes no config) replay under identical
// parameters. A mismatched Config would silently break determinism.
const metaFile = "meta.json"

// writeMeta writes meta.json with the fsync-before-rename discipline the
// checkpoint writer uses: this one file gates opening the directory at
// all, so a power loss must never leave a renamed-but-empty meta behind.
func writeMeta(dir string, cfg Config) error {
	b, err := json.MarshalIndent(cfg, "", "  ")
	if err != nil {
		return err
	}
	return wal.WriteFileAtomic(dir, metaFile, b)
}

func readMeta(dir string) (Config, bool, error) {
	b, err := os.ReadFile(filepath.Join(dir, metaFile))
	if errors.Is(err, fs.ErrNotExist) {
		return Config{}, false, nil
	}
	if err != nil {
		return Config{}, false, err
	}
	var cfg Config
	if err := json.Unmarshal(b, &cfg); err != nil {
		return Config{}, false, fmt.Errorf("hotpaths: corrupt %s: %w", metaFile, err)
	}
	return cfg, true, nil
}

// OpenDurable opens (creating if needed) a durable deployment rooted at
// dir. When the directory already holds a journal, the previous state is
// recovered first — latest checkpoint plus WAL tail — and journaling
// continues where it left off, so a daemon restart or crash loses at most
// the records of the last un-synced group commit.
func OpenDurable(dir string, cfg DurableConfig) (*Durable, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if prev, ok, err := readMeta(dir); err != nil {
		return nil, err
	} else if ok {
		if prev != cfg.Config {
			return nil, fmt.Errorf("hotpaths: %s was journaled under config %+v; reopening with %+v would break replay determinism", dir, prev, cfg.Config)
		}
	} else if err := writeMeta(dir, cfg.Config); err != nil {
		return nil, err
	}

	// Open the log first: it truncates any torn tail, so the replay below
	// sees exactly the record stream that will be appended to.
	log, err := wal.Open(dir, wal.Options{
		SegmentBytes:  cfg.SegmentBytes,
		FsyncInterval: cfg.FsyncInterval,
	})
	if err != nil {
		return nil, err
	}

	eng, ckptLSN, replayed, err := recoverEngine(dir, EngineConfig{Config: cfg.Config, Shards: cfg.Shards, Buffer: cfg.Buffer})
	if err != nil {
		log.Close()
		return nil, err
	}
	d := &Durable{
		cfg: cfg, dir: dir, eng: eng, log: log,
		lastCkptClock: eng.Clock(), lastCkptLSN: ckptLSN, replayed: replayed,
	}
	if log.NextLSN() < ckptLSN {
		// The checkpoint is newer than the log's decodable end (segments
		// removed out-of-band): appending below its LSN would write
		// records recovery skips.
		err = log.ResetTo(ckptLSN)
	}
	if err == nil && replayed > 0 && cfg.CheckpointEvery >= 0 {
		// Re-checkpoint after a non-trivial replay so the next recovery
		// starts from here instead of paying the same replay again.
		err = d.checkpointLocked(context.Background())
	}
	if err != nil {
		eng.Close()
		log.Close()
		return nil, err
	}
	return d, nil
}

// Recover rebuilds the state journaled in dir — latest checkpoint plus
// WAL tail — into a fresh Engine and returns it, without opening the
// directory for writing. It is the read-only half of the durability
// contract: the returned Engine is bit-identical to the Durable that
// wrote the journal at its last applied record, and is the caller's to
// Close. The directory's meta file supplies the Config.
func Recover(dir string) (*Engine, error) {
	cfg, ok, err := readMeta(dir)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("hotpaths: %s has no %s; not a durable log directory", dir, metaFile)
	}
	eng, _, _, err := recoverEngine(dir, EngineConfig{Config: cfg})
	return eng, err
}

// ObserveBatchCtx journals and applies a batch of observations under one
// lock acquisition and one journal write — the fast path for network
// ingestion. The batch is validated before anything is journaled, so a
// rejected batch leaves both journal and state untouched (matching
// Engine.ObserveBatchCtx's all-or-nothing contract). A journal I/O failure
// poisons the log — every later write fails until the process restarts
// and recovers — so the journal can never silently diverge from the
// acknowledged stream. On the context's trace it records one wal.append
// span per journal write plus the engine's batch span; on an unrecorded
// context the only cost is a context check per layer.
func (d *Durable) ObserveBatchCtx(ctx context.Context, batch []Observation) error {
	if len(batch) == 0 {
		return nil
	}
	conv, err := d.cfg.convertBatch(batch)
	if err != nil {
		return err
	}
	recs := make([]wal.Record, len(batch))
	for i, o := range batch {
		recs[i] = recordOf(o)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrDurableClosed
	}
	_, wspan := tracing.StartSpan(ctx, "wal.append")
	wspan.SetAttr("records", len(recs))
	_, err = d.log.AppendBatch(recs)
	wspan.End()
	if err != nil {
		return fmt.Errorf("hotpaths: journal batch: %w", err)
	}
	// conv is the batch just validated and journaled; the Engine's own
	// validate-and-convert pass would only repeat that work.
	return d.eng.eng.ObserveBatchCtx(ctx, conv)
}

// TickCtx journals and applies a clock advance. At epoch boundaries, once
// the clock has moved CheckpointEvery timestamps past the last
// checkpoint, the state is checkpointed and old WAL segments truncated.
// A tick that does not advance the clock is refused before it is
// journaled, with the Engine's error. On the context's trace it records
// the journal append, the engine's epoch spans, and — when this tick
// crosses a checkpoint boundary — the checkpoint with its fsync child.
func (d *Durable) TickCtx(ctx context.Context, now int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrDurableClosed
	}
	// d.mu serialises every tick into this Engine, so the clock cannot
	// move between this check and the apply below. A rejected tick must
	// never reach the journal: every recovery and follower would replay it.
	if err := engine.CheckAdvance(trajectory.Time(now), trajectory.Time(d.eng.Clock())); err != nil {
		return err
	}
	_, wspan := tracing.StartSpan(ctx, "wal.append")
	wspan.SetAttr("records", 1)
	_, aerr := d.log.Append(wal.Record{Kind: wal.KindTick, T: now})
	wspan.End()
	if aerr != nil {
		return fmt.Errorf("hotpaths: journal tick: %w", aerr)
	}
	// The Engine says whether this tick fired an epoch; the epoch rule is
	// not re-derived here.
	epoch, err := d.eng.eng.TickCtx(ctx, trajectory.Time(now))
	if epoch && d.cfg.CheckpointEvery >= 0 && now-d.lastCkptClock >= d.cfg.CheckpointEvery {
		if cerr := d.checkpointLocked(ctx); cerr != nil {
			err = errors.Join(err, cerr)
		}
	}
	return err
}

// Snapshot captures an immutable view of the current hot paths, counters
// and clock. It does not block writers.
func (d *Durable) Snapshot() Snapshot { return d.eng.Snapshot() }

// Subscribe registers a standing query with the backing Engine: deltas
// fire at the same epoch boundaries, so a Durable emits the identical
// stream to a bare Engine fed the same journal.
func (d *Durable) Subscribe(q Query) (*Subscription, error) { return d.eng.Subscribe(q) }

// Stats returns the backing Engine's counters (no path copy).
func (d *Durable) Stats() Stats { return d.eng.Stats() }

// Shards returns the backing Engine's shard count.
func (d *Durable) Shards() int { return d.eng.Shards() }

// Config returns the configuration with defaults applied.
func (d *Durable) Config() Config { return d.cfg.Config }

// Checkpoint forces a full-state checkpoint now and truncates WAL
// segments older than it. It returns the LSN the checkpoint covers up to.
func (d *Durable) Checkpoint() (uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0, ErrDurableClosed
	}
	if err := d.checkpointLocked(context.Background()); err != nil {
		return 0, err
	}
	return d.lastCkptLSN, nil
}

// checkpointLocked: commit the journal, dump the state, write the
// checkpoint durably, then drop segments the checkpoint covers. The
// context carries the trace of the tick that crossed the checkpoint
// boundary, so checkpoint stalls show up inside that request's trace.
func (d *Durable) checkpointLocked(ctx context.Context) error {
	t0 := time.Now()
	ctx, span := tracing.StartSpan(ctx, "checkpoint")
	defer span.End()
	flightrec.Default.RecordCtx(ctx, flightrec.EvCheckpointStart,
		flightrec.KV("count", d.ckptCount))
	_, fspan := tracing.StartSpan(ctx, "wal.fsync")
	serr := d.log.Sync()
	fspan.End()
	if serr != nil {
		return fmt.Errorf("hotpaths: checkpoint sync: %w", serr)
	}
	lsn := d.log.NextLSN()
	st, err := d.eng.eng.DumpState()
	if err != nil {
		return err
	}
	payload, err := encodeCheckpoint(d.cfg.Config, st)
	if err != nil {
		return err
	}
	if err := wal.WriteCheckpoint(d.dir, lsn, payload, d.cfg.KeepCheckpoints); err != nil {
		return fmt.Errorf("hotpaths: write checkpoint: %w", err)
	}
	if err := d.log.TruncateBefore(lsn); err != nil {
		return fmt.Errorf("hotpaths: truncate journal: %w", err)
	}
	d.lastCkptLSN = lsn
	d.lastCkptClock = int64(st.Clock)
	d.ckptCount++
	span.SetAttr("lsn", lsn)
	span.SetAttr("bytes", len(payload))
	el := time.Since(t0)
	mCheckpoint.Observe(el.Seconds())
	mCheckpointBytes.Observe(float64(len(payload)))
	flightrec.Default.RecordCtx(ctx, flightrec.EvCheckpointFinish,
		flightrec.KV("lsn", lsn),
		flightrec.KV("bytes", len(payload)),
		flightrec.KV("duration_ms", el.Milliseconds()))
	return nil
}

// NextLSN returns the LSN the next journaled record will get — the
// length of the acknowledged observation stream so far. It is the
// primary-side position replication heartbeats advertise, and is cheap
// (no directory walk, unlike WAL).
func (d *Durable) NextLSN() uint64 {
	return d.log.NextLSN()
}

// Clock returns the deployment's current clock: the timestamp of the
// last applied Tick (or the recovered clock right after open). Cheap —
// no snapshot is taken, and no writer is waited on: replication
// heartbeats read it at stream rate.
func (d *Durable) Clock() int64 { return d.eng.Clock() }

// Err reports the durability layer's poisoned state: the first journal
// I/O failure, or nil while the log is healthy. Once non-nil, every write
// fails with it until the process restarts and recovers — operators
// should surface it from health probes (the hotpathsd daemon turns it
// into a 503 on /healthz and a wal_error field on /stats).
func (d *Durable) Err() error {
	return d.log.Err()
}

// Sync is a hard durability barrier: every acknowledged write is on disk
// when it returns.
func (d *Durable) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrDurableClosed
	}
	return d.log.Sync()
}

// WAL returns the durability layer's counters.
func (d *Durable) WAL() WALStats {
	d.mu.Lock()
	ckpts, ckptLSN, ckptClock, replayed := d.ckptCount, d.lastCkptLSN, d.lastCkptClock, d.replayed
	log := d.log
	d.mu.Unlock()
	ls := log.Stats()
	return WALStats{
		Records:             ls.Records,
		NextLSN:             ls.NextLSN,
		Segments:            ls.Segments,
		Bytes:               ls.Bytes,
		Syncs:               ls.Syncs,
		Truncated:           ls.Truncated,
		Checkpoints:         ckpts,
		LastCheckpointLSN:   ckptLSN,
		LastCheckpointClock: ckptClock,
		Replayed:            replayed,
	}
}

// Close checkpoints the final state (unless automatic checkpoints are
// disabled), commits and closes the journal, and stops the Engine's
// shards, which closes every subscription channel. The directory recovers
// instantly on the next OpenDurable. Close is idempotent.
func (d *Durable) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	var errs []error
	if d.cfg.CheckpointEvery >= 0 {
		if err := d.checkpointLocked(context.Background()); err != nil {
			errs = append(errs, err)
		}
	}
	if err := d.log.Close(); err != nil {
		errs = append(errs, err)
	}
	if err := d.eng.Close(); err != nil {
		errs = append(errs, err)
	}
	d.closed = true
	return errors.Join(errs...)
}

// ErrDurableClosed is returned by operations on a closed Durable.
var ErrDurableClosed = errors.New("hotpaths: durable deployment closed")
