package hotpaths

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"hotpaths/internal/engine"
	"hotpaths/internal/flightrec"
	"hotpaths/internal/replication"
	"hotpaths/internal/wal"
)

// ErrFollowerClosed is returned by operations on a closed Follower.
var ErrFollowerClosed = errors.New("hotpaths: follower closed")

// FollowerConfig parameterises OpenFollower. The pipeline configuration
// (Eps, W, Epoch, Bounds, ...) is NOT here: the follower adopts the
// primary's journal configuration, fetched from /wal/meta, because
// replaying the primary's record stream under different parameters would
// not reproduce its state.
type FollowerConfig struct {
	// Shards is the local Engine's shard count (the follower may shard
	// differently from the primary — state is deployment-agnostic).
	Shards int

	// ReconnectMin and a 5s cap bound the reconnect backoff after a
	// stream drops (default 100ms; the nominal delay doubles
	// between consecutive failures and resets on a healthy connection).
	// The actual delay is jittered within [nominal/2, nominal] so the
	// followers of a restarted primary spread their reconnects out
	// instead of stampeding it in lockstep waves.
	ReconnectMin time.Duration

	// stallTimeout is how long a live stream may go without any activity
	// (a record or a heartbeat — the primary heartbeats idle streams
	// every second) before the applier declares it hung, drops it, and
	// reconnects (default 10s). Without it, a SIGSTOPped primary or a
	// black-holed network path would leave the follower "connected" — and
	// its health probe green — while serving unboundedly stale data. Only
	// tests shorten it.
	stallTimeout time.Duration
}

const (
	// followerConnectTimeout bounds the initial meta + checkpoint fetch
	// and every re-bootstrap. OpenFollower fails fast when the primary is
	// unreachable; after that, the applier reconnects forever.
	followerConnectTimeout = 10 * time.Second
	// followerReconnectMax caps the reconnect backoff.
	followerReconnectMax = 5 * time.Second
)

func (cfg FollowerConfig) withDefaults() FollowerConfig {
	if cfg.ReconnectMin <= 0 {
		cfg.ReconnectMin = 100 * time.Millisecond
	}
	if cfg.stallTimeout <= 0 {
		cfg.stallTimeout = 10 * time.Second
	}
	return cfg
}

// ReplicationStats reports a Follower's position relative to its primary.
type ReplicationStats struct {
	Primary   string // the primary's base URL
	Connected bool   // a stream is live and has heartbeated

	AppliedLSN   uint64 // records applied to the local engine
	AppliedEpoch int64  // local epoch sequence (matches the primary's at equal LSN)
	AppliedClock int64  // local clock (last applied Tick)

	PrimaryLSN   uint64 // primary log end, from the last heartbeat
	PrimaryEpoch int64
	PrimaryClock int64

	LagRecords uint64 // PrimaryLSN - AppliedLSN (0 when ahead, e.g. pre-heartbeat)
	LagEpochs  int64  // PrimaryEpoch - AppliedEpoch (0 floor)

	Reconnects uint64 // streams that dropped and were re-established
	Bootstraps uint64 // checkpoint restores (initial one included)
	LastError  string // most recent stream/bootstrap error, "" when none
}

// Follower is a read-only replica: it bootstraps from the primary's
// latest checkpoint, tails the primary's write-ahead log over HTTP, and
// applies the records to a local Engine through the same applier crash
// recovery uses. Because the pipeline is observation-order-deterministic,
// the follower's Snapshot().Query(q) is byte-identical to the primary's
// at every shared epoch boundary.
//
// A Follower is a Reader and not a Writer: replicated state flows one
// way, from the primary's write-ahead log, and a local write would fork
// the follower's state away from the stream it replays, so writes go to
// the primary. Snapshot, Subscribe and Stats serve local state with no
// primary round-trip. Reads are eventually consistent with the primary —
// replication lag is bounded by the primary's group-commit flush cadence
// plus one poll interval, and Replication() reports the current lag.
//
// The applier reconnects with resume-from-LSN after network errors, and
// re-bootstraps from the newest checkpoint when the primary reports the
// resume position is gone (truncated by a checkpoint, or rewritten after
// a primary crash that lost unsynced tail records). A re-bootstrap while
// subscribers are attached can make the local epoch sequence jump;
// subscription streams stay ordered (stale epochs are dropped), so
// watchers observe a gap, not a reordering.
type Follower struct {
	primary string
	cfg     FollowerConfig
	client  *replication.Client
	eng     *Engine

	cancel context.CancelFunc
	done   chan struct{}

	mu           sync.Mutex
	streamCancel context.CancelFunc // cancels the live stream (Reconnect)
	applied      uint64
	hb           replication.Status
	hbSeen       bool
	connected    bool
	reconnects   uint64
	bootstraps   uint64
	lastErr      error
	closed       bool
}

// OpenFollower connects to a primary hotpathsd (its base URL, e.g.
// "http://primary:8080") and returns a read-only replica of it. The
// primary must run with -wal, which exposes the /wal/meta, /wal/checkpoint
// and /wal/stream endpoints this feeds on. OpenFollower fails when the
// primary is unreachable or not serving a journal; once open, the
// follower reconnects and re-bootstraps on its own until Close.
func OpenFollower(primary string, cfg FollowerConfig) (*Follower, error) {
	if err := replication.ParseBase(primary); err != nil {
		return nil, fmt.Errorf("hotpaths: %w", err)
	}
	cfg = cfg.withDefaults()
	client := &replication.Client{Base: primary}

	ctx, cancelConnect := context.WithTimeout(context.Background(), followerConnectTimeout)
	defer cancelConnect()
	metaB, err := client.Meta(ctx)
	if err != nil {
		return nil, fmt.Errorf("hotpaths: fetch primary config: %w", err)
	}
	var conf Config
	if err := json.Unmarshal(metaB, &conf); err != nil {
		return nil, fmt.Errorf("hotpaths: primary served corrupt journal config: %w", err)
	}
	eng, err := NewEngine(EngineConfig{Config: conf, Shards: cfg.Shards})
	if err != nil {
		return nil, fmt.Errorf("hotpaths: primary journal config rejected: %w", err)
	}

	runCtx, cancel := context.WithCancel(context.Background())
	f := &Follower{
		primary: primary,
		cfg:     cfg,
		client:  client,
		eng:     eng,
		cancel:  cancel,
		done:    make(chan struct{}),
	}
	if err := f.bootstrap(ctx); err != nil {
		cancel()
		eng.Close()
		return nil, fmt.Errorf("hotpaths: bootstrap from primary checkpoint: %w", err)
	}
	go f.run(runCtx)
	return f, nil
}

// bootstrap loads the primary's newest checkpoint into the local engine
// and positions the applier at its LSN. With no checkpoint yet, the
// follower replays the stream from LSN 0 — which, on a RE-bootstrap
// (the primary refused to resume from our LSN), requires wiping the
// local state first: keeping it and retrying the same invalid LSN would
// loop forever serving diverged answers.
func (f *Follower) bootstrap(ctx context.Context) error {
	t0 := time.Now()
	lsn, payload, err := f.client.Checkpoint(ctx)
	var st engine.State // stays empty (a wipe, at LSN 0) without a checkpoint
	switch {
	case errors.Is(err, replication.ErrNoCheckpoint):
		f.mu.Lock()
		applied := f.applied
		f.mu.Unlock()
		if applied == 0 {
			return nil // initial open: the engine is already fresh at LSN 0
		}
		lsn = 0
	case err != nil:
		return err
	default:
		if st, err = decodeCheckpoint(payload, f.eng.cfg); err != nil {
			return err
		}
	}
	if err := f.eng.eng.RestoreState(st); err != nil {
		return err
	}
	f.mu.Lock()
	f.applied = lsn
	f.bootstraps++
	f.mu.Unlock()
	mFollowerBootstrap.ObserveSince(t0)
	return nil
}

// run is the applier loop: stream, apply, reconnect with jittered
// backoff, re-bootstrap when resume is impossible. It exits when Close
// cancels the context.
func (f *Follower) run(ctx context.Context) {
	defer close(f.done)
	backoff := &replication.Backoff{Min: f.cfg.ReconnectMin, Max: followerReconnectMax}
	for {
		hadConnection, err := f.streamOnce(ctx)
		if ctx.Err() != nil {
			return
		}
		f.mu.Lock()
		wasConnected := f.connected
		f.connected = false
		applied := f.applied
		mFollowerConnected.Set(0)
		if hadConnection {
			f.reconnects++
			mFollowerReconnects.Inc()
			backoff.Reset()
		}
		if err != nil && !errors.Is(err, context.Canceled) {
			f.lastErr = err
		}
		f.mu.Unlock()
		if wasConnected {
			// Only the true-to-false flip is an event; failed reconnect
			// attempts while already down are not.
			attrs := []flightrec.Attr{
				flightrec.KV("primary", f.primary),
				flightrec.KV("applied_lsn", applied),
			}
			if err != nil && !errors.Is(err, context.Canceled) {
				attrs = append(attrs, flightrec.KV("error", err.Error()))
			}
			flightrec.Default.Record(flightrec.EvReplDisconnect, attrs...)
		}

		if errors.Is(err, replication.ErrSnapshotNeeded) {
			flightrec.Default.Record(flightrec.EvReplRebootstrap,
				flightrec.KV("primary", f.primary),
				flightrec.KV("refused_lsn", applied))
			bctx, cancel := context.WithTimeout(ctx, followerConnectTimeout)
			berr := f.bootstrap(bctx)
			cancel()
			if berr != nil && ctx.Err() == nil {
				f.mu.Lock()
				f.lastErr = fmt.Errorf("re-bootstrap: %w", berr)
				f.mu.Unlock()
			}
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(backoff.Next()):
		}
	}
}

// streamOnce runs one stream connection until it ends, feeding its
// records to the applier, flushed at every heartbeat too. The applied LSN
// only advances over fully-applied prefixes, so a dropped connection
// resumes exactly after the last applied record.
func (f *Follower) streamOnce(ctx context.Context) (hadConnection bool, err error) {
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	f.mu.Lock()
	from := f.applied
	f.streamCancel = cancel
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		f.streamCancel = nil
		f.mu.Unlock()
	}()

	// Stall watchdog: every record or heartbeat is activity and winds it
	// back; a stream with none for stallTimeout is hung (the read blocks
	// forever on a dead-but-unclosed connection) and gets cancelled so
	// the reconnect path takes over and the follower stops reporting
	// itself healthy.
	var stalled atomic.Bool
	watchdog := time.AfterFunc(f.cfg.stallTimeout, func() {
		stalled.Store(true)
		cancel()
	})
	touch := func() { watchdog.Reset(f.cfg.stallTimeout) }

	a := newApplier(f.eng)
	a.traced = true
	a.applied = func(next uint64) {
		f.mu.Lock()
		n := next - f.applied
		f.applied = next
		f.mu.Unlock()
		mFollowerApplied.Add(n)
	}
	err = f.client.Stream(sctx, from,
		func(lsn uint64, rec wal.Record) error {
			touch()
			return a.apply(lsn, rec)
		},
		func(st replication.Status) {
			touch()
			a.flush()
			f.mu.Lock()
			wasConnected := f.connected
			f.hb = st
			f.hbSeen = true
			f.connected = true
			applied := f.applied
			lag := int64(0)
			if st.NextLSN > applied {
				lag = int64(st.NextLSN - applied)
			}
			f.mu.Unlock()
			if !wasConnected {
				// Heartbeats repeat; only the false-to-true flip is an event.
				flightrec.Default.Record(flightrec.EvReplConnect,
					flightrec.KV("primary", f.primary),
					flightrec.KV("primary_lsn", st.NextLSN),
					flightrec.KV("applied_lsn", applied))
			}
			mFollowerConnected.Set(1)
			mFollowerLag.Set(lag)
			hadConnection = true
		})
	a.flush() // records received before the drop are valid; keep them
	watchdog.Stop()
	// A stall ends the stream through cancel, which the watchdog calls
	// after it sets stalled, so that read sees it.
	if stalled.Load() {
		err = fmt.Errorf("hotpaths: replication stream stalled: no records or heartbeats for %v", f.cfg.stallTimeout)
	}
	return hadConnection, err
}

// Snapshot captures an immutable view of the replicated hot paths,
// counters and clock. It is served locally (no primary round-trip) and is
// safe concurrently with the applier. Like Engine.Snapshot it shares one
// path copy between two applied ticks; an applied tick drops it, so the
// next read sees the replicated clock.
func (f *Follower) Snapshot() Snapshot { return f.eng.Snapshot() }

// Subscribe registers a standing query against the replicated state;
// deltas fire at every applied epoch boundary, exactly as they do on the
// primary (the epoch stream is part of the replicated determinism).
func (f *Follower) Subscribe(q Query) (*Subscription, error) { return f.eng.Subscribe(q) }

// Stats returns the replicated deployment's counters.
func (f *Follower) Stats() Stats { return f.eng.Stats() }

// Clock returns the timestamp of the last applied Tick — cheap (no
// snapshot), for monitoring probes.
func (f *Follower) Clock() int64 { return f.eng.Clock() }

// Config returns the primary's journal configuration, which the follower
// replays under (defaults applied).
func (f *Follower) Config() Config { return f.eng.cfg }

// Shards returns the local engine's shard count.
func (f *Follower) Shards() int { return f.eng.Shards() }

// Primary returns the primary's base URL.
func (f *Follower) Primary() string { return f.primary }

// Reconnect drops the live replication stream, if any; the applier
// reconnects with resume-from-LSN after its usual backoff. Useful for
// forcing a fresh connection after a primary failover behind a stable
// URL, and for testing reconnect behaviour.
func (f *Follower) Reconnect() {
	f.mu.Lock()
	cancel := f.streamCancel
	f.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// Replication reports the follower's position and lag relative to the
// primary. The primary-side fields come from the stream's heartbeats and
// are zero until the first one arrives.
func (f *Follower) Replication() ReplicationStats {
	// The local epoch and clock are the Engine's own, not a mirror of its
	// epoch rule; read before taking f.mu so a probe never holds it across
	// the engine lock.
	epoch, clock := int64(f.eng.Stats().Epochs), f.eng.Clock()
	f.mu.Lock()
	defer f.mu.Unlock()
	st := ReplicationStats{
		Primary:      f.primary,
		Connected:    f.connected,
		AppliedLSN:   f.applied,
		AppliedEpoch: epoch,
		AppliedClock: clock,
		Reconnects:   f.reconnects,
		Bootstraps:   f.bootstraps,
	}
	if f.hbSeen {
		st.PrimaryLSN = f.hb.NextLSN
		st.PrimaryEpoch = f.hb.Epoch
		st.PrimaryClock = f.hb.Clock
		if st.PrimaryLSN > st.AppliedLSN {
			st.LagRecords = st.PrimaryLSN - st.AppliedLSN
		}
		if st.PrimaryEpoch > st.AppliedEpoch {
			st.LagEpochs = st.PrimaryEpoch - st.AppliedEpoch
		}
	}
	if f.lastErr != nil {
		st.LastError = f.lastErr.Error()
	}
	return st
}

// NewReplicationFeed returns an http.Handler serving the primary-side
// replication feed for a Durable deployment: GET /wal/meta,
// /wal/checkpoint and /wal/stream — the endpoints OpenFollower consumes.
// hotpathsd mounts exactly this feed when -wal is set; mount it into
// your own mux to make any process built on OpenDurable a replication
// primary:
//
//	dur, _ := hotpaths.OpenDurable(dir, cfg)
//	mux.Handle("/wal/", hotpaths.NewReplicationFeed(dur, nil))
//
// closing, when non-nil, ends every open stream when it is closed; wire
// it to your HTTP server's shutdown hook so long-lived streams do not
// pin a graceful shutdown to its timeout.
func NewReplicationFeed(d *Durable, closing <-chan struct{}) http.Handler {
	rs := &replication.Server{
		Dir: d.dir,
		// Counters, not a snapshot: heartbeats ride the stream's hot path,
		// and an O(paths) copy per heartbeat would tax ingest for telemetry.
		Position: func() replication.Status {
			return replication.Status{
				NextLSN: d.NextLSN(),
				Epoch:   int64(d.Stats().Epochs),
				Clock:   d.Clock(),
			}
		},
		Closing: closing,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+replication.StreamPath, rs.ServeStream)
	mux.HandleFunc("GET "+replication.CheckpointPath, rs.ServeCheckpoint)
	mux.HandleFunc("GET "+replication.MetaPath, rs.ServeMeta)
	return mux
}

// Close stops the applier and shuts the local engine down, closing every
// subscription channel. Queries on previously taken Snapshots stay valid.
// Close is idempotent.
func (f *Follower) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	f.mu.Unlock()
	f.cancel()
	<-f.done
	mFollowerConnected.Set(0)
	return f.eng.Close()
}
