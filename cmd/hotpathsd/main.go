// Command hotpathsd serves on-line hot motion path discovery over
// HTTP/JSON, backed by the concurrent sharded hotpaths.Engine.
//
// Usage:
//
//	hotpathsd [-addr :8080] [-eps 10] [-delta 0] [-w 100] [-epoch 10]
//	          [-k 10] [-shards 0] [-grid 64]
//	          [-bounds 0,0,16000,16000] [-snapshot paths.geojson]
//	          [-wal DIR] [-fsync 25ms] [-pprof localhost:6060]
//	          [-log-format text|json] [-trace-sample 0.01] [-trace-slow 250ms]
//	hotpathsd -follow http://primary:8080 [-addr :8081] [-shards 0]
//	          [-max-lag 100000]
//
// The public routes, their bodies, query parameters, SSE framing, the
// -pprof admin listener and the logging/tracing flags are the wire
// contract hotpathsd shares with hotpathsgw (package
// hotpaths/internal/httpapi): see the README's "HTTP API" section. On top
// of it the daemon mounts:
//
//	POST /admin/checkpoint  force a checkpoint + WAL truncation (-wal only)
//	GET  /wal/meta          -wal only: the journal's Config (followers fetch it)
//	GET  /wal/checkpoint    -wal only: newest checkpoint blob for follower bootstrap
//	GET  /wal/stream        -wal only: live WAL frame stream from ?from=LSN
//	POST /admin/reconnect   -follow only: drop and re-establish the stream
//
// GET /healthz answers 503 once WAL I/O has failed or (with -follow)
// replication is down or lagging; GET /stats carries the ingestion,
// coordinator, WAL and replication counters.
//
// With -wal DIR the daemon journals every observation and tick to a
// write-ahead log before applying it, checkpoints the full engine state
// at epoch boundaries, and on startup recovers the pre-crash state from
// the directory — restarts and crashes lose at most the last -fsync
// interval of acknowledged writes. See the README's "Durability &
// operations" section for the on-disk layout and recovery procedure.
//
// With -partition-count N -partition-id I the daemon declares itself
// partition I of an N-primary fleet fronted by a hotpathsgw gateway: the
// partition slot is advertised in /stats (partition_id/partition_count),
// and observations whose object id hashes to a different partition are
// rejected with 400 — a misconfigured router fails loudly instead of
// silently forking state across primaries. See the README's "Horizontal
// write scaling" section.
//
// A -wal daemon is also a replication primary: it serves its journal to
// followers over /wal/stream. With -follow URL the daemon is instead a
// read-only follower of that primary — it bootstraps from the primary's
// checkpoint, tails its WAL, and serves the same read endpoints with
// results byte-identical to the primary's at every shared epoch. Write
// endpoints answer 403 on a follower; the pipeline flags (-eps, -w,
// -epoch, -k, -bounds, ...) are ignored because the follower adopts the
// primary's journal configuration; /healthz answers 503 while the stream
// is down or the record lag exceeds -max-lag. See the README's
// "Replication & read scaling" section.
//
// Time is logical and client-driven: producers POST observation batches
// for a timestamp, then advance the clock (inline via "tick", or from a
// single place via POST /tick). On SIGINT/SIGTERM the daemon stops
// accepting requests, drains the ingestion shards, and — with -snapshot —
// writes the final hot paths as GeoJSON before exiting. The snapshot
// reflects the last processed epoch: reports raised after it are not
// included (as with hotpaths.System, epochs only fire on ticks), so
// clients wanting a complete snapshot should POST a final epoch-crossing
// /tick before stopping the daemon.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"hotpaths"
	"hotpaths/internal/flightrec"
	"hotpaths/internal/httpapi"
)

func main() {
	os.Exit(run())
}

// run is main behind an exit code: a failed shutdown snapshot or WAL
// close must exit non-zero so orchestrators notice the lost dump (defers
// still run, unlike calling os.Exit inline).
func run() int {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		eps      = flag.Float64("eps", 10, "tolerance epsilon, metres")
		delta    = flag.Float64("delta", 0, "uncertainty delta; 0 disables the (eps,delta) model")
		w        = flag.Int64("w", 100, "sliding window length, timestamps")
		epoch    = flag.Int64("epoch", 10, "epoch length, timestamps")
		k        = flag.Int("k", 10, "top-k hottest paths to report")
		shards   = flag.Int("shards", 0, "filter shards (0 = GOMAXPROCS)")
		grid     = flag.Int("grid", 64, "coordinator grid resolution (grid x grid cells)")
		bounds   = flag.String("bounds", "0,0,16000,16000", "monitored region: minx,miny,maxx,maxy")
		snapshot = flag.String("snapshot", "", "write final paths as GeoJSON here on shutdown")
		walDir   = flag.String("wal", "", "journal directory: enables the write-ahead log, checkpoints, crash recovery and the replication feed")
		fsync    = flag.Duration("fsync", 25*time.Millisecond, "WAL group-commit interval (with -wal); negative disables timed fsync")
		segBytes = flag.Int64("wal-segment", 0, "WAL segment rotation size in bytes (with -wal; 0 = 64 MiB default)")
		follow   = flag.String("follow", "", "primary base URL: run as a read-only replica of that hotpathsd (e.g. http://primary:8080)")
		maxLag   = flag.Uint64("max-lag", 100_000, "with -follow: /healthz degrades once the follower lags this many records behind the primary (0 disables)")
		partID   = flag.Int("partition-id", 0, "with -partition-count: this daemon's partition slot (0-based)")
		partN    = flag.Int("partition-count", 0, "run as partition -partition-id of this many primaries behind a hotpathsgw gateway; 0 = unpartitioned")
		proc     = httpapi.NewProcess(flag.CommandLine, "hotpathsd", "localhost:6060",
			"directory for flight-recorder ring dumps: written on WAL poisoning and on shutdown; empty disables dumps")
	)
	flag.Parse()

	if err := proc.Setup(); err != nil {
		return httpapi.Fail(err)
	}
	if dir := proc.DumpDir(); dir != "" {
		// Arm the crash-forensics dump: the moment the WAL poisons, the
		// event ring — the last N things the daemon did — hits disk, even
		// if nobody reaches /debug/events before a restart wipes it.
		flightrec.Default.AutoDump(dir, flightrec.EvWALPoisoned)
	}

	if *partN < 0 {
		return httpapi.Fail(errors.New("-partition-count must be non-negative"))
	}
	if *partN == 0 && *partID != 0 {
		return httpapi.Fail(errors.New("-partition-id requires -partition-count"))
	}
	if *partN > 0 && (*partID < 0 || *partID >= *partN) {
		return httpapi.Fail(fmt.Errorf("-partition-id %d out of range for -partition-count %d", *partID, *partN))
	}

	rect, err := httpapi.ParseBounds(*bounds)
	if err != nil {
		return httpapi.Fail(err)
	}
	cfg := hotpaths.Config{
		Eps:      *eps,
		Delta:    *delta,
		W:        *w,
		Epoch:    *epoch,
		K:        *k,
		Bounds:   rect,
		GridCols: *grid,
		GridRows: *grid,
	}
	// The backend: a bare Engine; the Durable wrapper around one when -wal
	// is set (which first recovers any state already journaled there); or
	// a read-only Follower replicating a primary when -follow is set.
	var (
		src   backend
		dur   *hotpaths.Durable
		fol   *hotpaths.Follower
		drain func() error
	)
	if *follow != "" {
		if *walDir != "" {
			return httpapi.Fail(errors.New("-follow and -wal are mutually exclusive: a follower replays the primary's journal instead of writing its own"))
		}
		fol, err = hotpaths.OpenFollower(*follow, hotpaths.FollowerConfig{
			Shards: *shards,
		})
		if err != nil {
			return httpapi.Fail(err)
		}
		src, drain = fol, fol.Close
		rs := fol.Replication()
		slog.Info("following primary",
			"primary", *follow,
			"lsn", rs.AppliedLSN,
			"epoch", rs.AppliedEpoch,
			"config", fmt.Sprintf("%+v", fol.Config()))
	} else if *walDir != "" {
		dur, err = hotpaths.OpenDurable(*walDir, hotpaths.DurableConfig{
			Config:        cfg,
			Shards:        *shards,
			FsyncInterval: *fsync,
			SegmentBytes:  *segBytes,
		})
		if err != nil {
			return httpapi.Fail(err)
		}
		src, drain = dur, dur.Close
		ws := dur.WAL()
		slog.Info("wal open",
			"dir", *walDir,
			"records", ws.NextLSN,
			"replayed", ws.Replayed,
			"checkpoint_lsn", ws.LastCheckpointLSN)
	} else {
		eng, err := hotpaths.NewEngine(hotpaths.EngineConfig{
			Config: cfg,
			Shards: *shards,
		})
		if err != nil {
			return httpapi.Fail(err)
		}
		src, drain = eng, eng.Close
	}

	api := newServer(src, serverOpts{
		dur: dur, fol: fol, maxLag: *maxLag,
		partitionID: *partID, partitionCount: *partN,
	})
	// End open /watch streams when Shutdown begins: their subscriptions
	// only close when the backend drains, which happens after Shutdown —
	// without the hook every watcher would pin Shutdown to its timeout.
	proc.Start(*addr, api.handler(), api.stopWatches)
	// Log the resolved config, not the flags: a follower adopts the
	// primary's journal parameters and ignores the local pipeline flags.
	rcfg := src.Config()
	slog.Info("listening",
		"addr", *addr,
		"shards", src.Shards(),
		"eps", rcfg.Eps,
		"w", rcfg.W,
		"epoch", rcfg.Epoch)
	if err := proc.Wait(); err != nil {
		return httpapi.Fail(err)
	}

	// Graceful drain: stop accepting, finish in-flight requests, then
	// drain the ingestion shards (checkpointing and closing the WAL when
	// enabled) and snapshot the final state. A listener that would not
	// shut down in time is logged, not fatal: the drain below is what
	// protects data.
	code := 0
	_ = proc.Shutdown()
	if err := drain(); err != nil {
		slog.Error("drain failed", "error", err)
		code = 1
	}
	if *snapshot != "" {
		if err := writeSnapshot(*snapshot, src); err != nil {
			slog.Error("snapshot failed", "error", err)
			code = 1
		} else {
			slog.Info("snapshot written", "path", *snapshot)
		}
	}
	_ = proc.DumpFlightRecorder() // logged; a lost dump does not fail the exit
	st := src.Stats()
	slog.Info("final state",
		"observations", st.Observations,
		"reports", st.Reports,
		"live_paths", st.IndexSize)
	return code
}

// writeSnapshot dumps every live path as GeoJSON, using the same encoding
// as GET /paths.geojson.
func writeSnapshot(path string, src backend) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := src.Snapshot().WriteGeoJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
