// Command hotpaths runs one full simulation of the paper's distributed
// environment and prints per-epoch statistics plus the final top-k hottest
// motion paths.
//
// Usage:
//
//	hotpaths [-n 20000] [-eps 10] [-w 100] [-epoch 10] [-duration 250]
//	         [-k 10] [-agility 0.1] [-step 10] [-err 1] [-seed 1]
//	         [-net network.txt] [-iid] [-dp] [-quiet] [-log-format text|json]
//
// Results print to stdout; diagnostics go to stderr through log/slog in
// the format -log-format selects.
//
// Without -net, the synthetic Athens-like network is generated from the
// seed. Alternatively, -trace replays a recorded measurement trace (as
// written by genworkload) through the full RayTrace + SinglePath pipeline,
// ignoring the workload flags:
//
//	hotpaths -trace trace.txt [-eps 10] [-w 100] [-epoch 10] [-k 10]
//	         [-engine] [-json] [-watch] [-wal-record DIR]
//
// The replay drives the hotpaths.Source interface, so -engine swaps the
// single-goroutine System for the concurrent sharded Engine without
// touching the replay loop; results are bit-identical. With -wal-record
// the replay always runs through the Engine — a journaled deployment is
// one — so -engine changes nothing there. -json prints the
// final top-k in the canonical PathJSON wire form instead of a table.
// -watch additionally subscribes a standing top-k query to the replay
// and prints one line per epoch delta — the continuous-query view a
// hotpathsd client would receive on GET /watch.
//
// -wal-record DIR additionally journals the replayed stream into a
// write-ahead log directory (the full journal is kept — no checkpoint
// truncation — so the directory doubles as a portable binary trace), and
// -wal-replay DIR reconstructs the state offline from such a directory —
// or from a crashed hotpathsd -wal directory — and prints the top-k:
//
//	hotpaths -wal-replay DIR [-json]
//
// -wal-tail streams a journal as human-readable records, one line per
// record, following the live tail until interrupted — the replication
// debugging sibling of -wal-replay. The target is either a journal
// directory (tailing the files a live hotpathsd -wal is writing) or a
// primary's base URL (consuming its /wal/stream feed exactly as a
// follower does, heartbeats included):
//
//	hotpaths -wal-tail DIR
//	hotpaths -wal-tail http://primary:8080 [-from 1000]
//
// `hotpaths bench` runs the core benchmark suite (internal/bench) —
// ingest, WAL append, recovery, follower replay, snapshot queries — and
// writes one bench-trajectory point as JSON, optionally gating on a
// checked-in baseline:
//
//	hotpaths bench [-out BENCH_core.json] [-baseline BENCH_core.json]
//	               [-max-regress 0.25] [-run name,...] [-list] [-q]
//	               [-paper BENCH_paper.json]
//
// -paper additionally regenerates the paper's accuracy-vs-communication
// curve (deterministic under the fixed seed) as a separate artifact.
//
// `hotpaths fleet` is the fleet ops view: it polls every named node's
// /stats, /healthz, /metrics and /debug/events and renders a live
// refreshing dashboard — per-node health with its degraded reason, SLO
// burn rates, and the fleet-merged flight-recorder timeline with trace
// IDs preserved. With -once it instead emits one JSON snapshot (for CI
// artifacts and postmortems):
//
//	hotpaths fleet [-once] [-out fleet.json] [-interval 2s] [-events 50] \
//	    p0=http://localhost:8080,http://localhost:6060 \
//	    gw=http://localhost:8090,http://localhost:6061
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hotpaths/internal/dp"
	"hotpaths/internal/replication"
	"hotpaths/internal/roadnet"
	"hotpaths/internal/simulation"
	"hotpaths/internal/stats"
	"hotpaths/internal/trace"
	"hotpaths/internal/tracing"
	"hotpaths/internal/trajectory"
	"hotpaths/internal/wal"
	"hotpaths/internal/workload"

	"hotpaths"
)

func main() {
	// The bench and fleet subcommands have their own FlagSets; dispatch
	// before the simulation flags are parsed.
	if len(os.Args) > 1 && os.Args[1] == "bench" {
		os.Exit(runBench(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "fleet" {
		os.Exit(runFleet(os.Args[2:]))
	}
	var (
		n         = flag.Int("n", 20000, "number of moving objects")
		eps       = flag.Float64("eps", 10, "tolerance epsilon, metres")
		w         = flag.Int64("w", 100, "sliding window length, timestamps")
		epoch     = flag.Int64("epoch", 10, "epoch length, timestamps")
		duration  = flag.Int64("duration", 250, "simulation length, timestamps")
		k         = flag.Int("k", 10, "top-k hottest paths to report")
		agility   = flag.Float64("agility", 0.1, "fraction of objects moving per timestamp")
		step      = flag.Float64("step", 10, "displacement per move, metres")
		errAmp    = flag.Float64("err", 1, "positional noise amplitude, metres")
		seed      = flag.Int64("seed", 1, "random seed")
		netFile   = flag.String("net", "", "road network file (default: generate Athens-like)")
		traceIn   = flag.String("trace", "", "replay a recorded measurement trace instead of simulating")
		useEng    = flag.Bool("engine", false, "replay through the concurrent Engine instead of the System (-wal-record always does)")
		jsonOut   = flag.Bool("json", false, "print replay results as canonical PathJSON")
		watch     = flag.Bool("watch", false, "with -trace: print one subscription delta line per epoch while replaying")
		walRecord = flag.String("wal-record", "", "journal the trace replay into this write-ahead log directory")
		walReplay = flag.String("wal-replay", "", "reconstruct state offline from a write-ahead log directory and print the top-k")
		walTail   = flag.String("wal-tail", "", "stream a journal directory or a primary's base URL as human-readable records until interrupted")
		tailFrom  = flag.Uint64("from", 0, "with -wal-tail: start at this LSN")
		iid       = flag.Bool("iid", false, "use the literal i.i.d. agility model instead of traffic lights")
		runDP     = flag.Bool("dp", false, "also run the DP benchmark")
		quiet     = flag.Bool("quiet", false, "suppress per-epoch rows")
		logFmt    = flag.String("log-format", "text", "diagnostic log format: text or json (results stay on stdout)")
	)
	flag.Parse()

	if err := tracing.SetupSlog(*logFmt, "hotpaths"); err != nil {
		fmt.Fprintln(os.Stderr, "hotpaths:", err)
		os.Exit(1)
	}

	if *walTail != "" {
		if err := tailWAL(*walTail, *tailFrom); err != nil {
			fatal(err)
		}
		return
	}
	if *walReplay != "" {
		if err := replayWAL(*walReplay, *jsonOut); err != nil {
			fatal(err)
		}
		return
	}
	if *traceIn != "" {
		if err := replayTrace(*traceIn, *eps, *w, *epoch, *k, *useEng, *jsonOut, *watch, *walRecord); err != nil {
			fatal(err)
		}
		return
	}
	if *walRecord != "" {
		fatal(fmt.Errorf("-wal-record requires -trace"))
	}
	if *watch {
		fatal(fmt.Errorf("-watch requires -trace"))
	}

	net, err := loadNetwork(*netFile, *seed)
	if err != nil {
		fatal(err)
	}
	model := workload.Bursty
	if *iid {
		model = workload.IID
	}
	cfg := simulation.Config{
		Net:      net,
		Model:    model,
		N:        *n,
		Eps:      *eps,
		Err:      *errAmp,
		Agility:  *agility,
		Step:     *step,
		W:        trajectory.Time(*w),
		Epoch:    trajectory.Time(*epoch),
		Duration: trajectory.Time(*duration),
		K:        *k,
		Seed:     *seed,
		RunDP:    *runDP,
		DPPolicy: dp.NOPW,
	}
	res, err := simulation.Run(cfg)
	if err != nil {
		fatal(err)
	}

	if !*quiet {
		var tb stats.Table
		if *runDP {
			tb.AddRow("epoch", "t", "reports", "index", "score", "time-ms", "dp-index", "dp-score")
		} else {
			tb.AddRow("epoch", "t", "reports", "index", "score", "time-ms")
		}
		for _, e := range res.PerEpoch {
			cells := []string{
				fmt.Sprintf("%d", e.Epoch),
				fmt.Sprintf("%d", e.Now),
				fmt.Sprintf("%d", e.Reports),
				fmt.Sprintf("%d", e.IndexSize),
				fmt.Sprintf("%.0f", e.TopKScore),
				fmt.Sprintf("%.3f", float64(e.ProcTime.Microseconds())/1000),
			}
			if *runDP {
				cells = append(cells,
					fmt.Sprintf("%d", e.DPIndexSize),
					fmt.Sprintf("%.0f", e.DPTopKScore))
			}
			tb.AddRow(cells...)
		}
		tb.WriteTo(os.Stdout)
		fmt.Println()
	}

	fmt.Printf("averages per epoch: index=%.0f score=%.0f time=%v\n",
		res.AvgIndexSize, res.AvgTopKScore, res.AvgProcTime)
	if *runDP {
		fmt.Printf("DP benchmark:       index=%.0f score=%.0f\n",
			res.AvgDPIndexSize, res.AvgDPTopKScore)
	}
	fmt.Printf("communication: %d measurements -> %d state messages (%.1fx byte compression)\n",
		res.Comm.Measurements, res.Comm.UpMessages, res.CompressionRatio())

	fmt.Printf("\ntop-%d hottest motion paths:\n", *k)
	var tb stats.Table
	tb.AddRow("id", "hotness", "length-m", "score", "from", "to")
	for _, hp := range res.TopK {
		tb.AddRow(
			fmt.Sprintf("%d", hp.Path.ID),
			fmt.Sprintf("%d", hp.Hotness),
			fmt.Sprintf("%.0f", hp.Path.Length()),
			fmt.Sprintf("%.0f", hp.Score()),
			hp.Path.S.String(),
			hp.Path.E.String(),
		)
	}
	tb.WriteTo(os.Stdout)
}

// tailWAL streams a journal — a directory, or a primary's /wal/stream
// feed when the target is an http(s) URL — printing one line per record
// until interrupted. It is the debugging view of replication: what a
// follower would apply, in the order it would apply it.
func tailWAL(target string, from uint64) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	printRec := func(lsn uint64, r wal.Record) {
		switch r.Kind {
		case wal.KindObserve:
			if r.SigmaX != 0 || r.SigmaY != 0 {
				fmt.Printf("lsn=%-8d observe  object=%-6d t=%-8d x=%.3f y=%.3f sigma=(%g,%g)\n",
					lsn, r.ObjectID, r.T, r.X, r.Y, r.SigmaX, r.SigmaY)
				return
			}
			fmt.Printf("lsn=%-8d observe  object=%-6d t=%-8d x=%.3f y=%.3f\n", lsn, r.ObjectID, r.T, r.X, r.Y)
		case wal.KindTick:
			fmt.Printf("lsn=%-8d tick     t=%d\n", lsn, r.T)
		default:
			fmt.Printf("lsn=%-8d kind=%d (unknown)\n", lsn, r.Kind)
		}
	}

	if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") {
		c := &replication.Client{Base: target}
		for ctx.Err() == nil {
			err := c.Stream(ctx, from,
				func(lsn uint64, r wal.Record) error {
					printRec(lsn, r)
					from = lsn + 1
					return nil
				},
				func(st replication.Status) {
					fmt.Printf("# heartbeat: primary lsn=%d epoch=%d clock=%d (lag %d records)\n",
						st.NextLSN, st.Epoch, st.Clock, st.NextLSN-from)
				})
			if ctx.Err() != nil {
				return nil
			}
			if errors.Is(err, replication.ErrSnapshotNeeded) {
				lsn, _, cerr := c.Checkpoint(ctx)
				if cerr != nil {
					return fmt.Errorf("records at LSN %d are truncated and no checkpoint is readable: %w", from, cerr)
				}
				fmt.Printf("# records [%d, %d) truncated by a primary checkpoint; skipping ahead\n", from, lsn)
				from = lsn
				continue
			}
			fmt.Printf("# stream dropped (%v); reconnecting from lsn=%d\n", err, from)
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(time.Second):
			}
		}
		return nil
	}

	tl := wal.Follow(target, from)
	defer tl.Close()
	for ctx.Err() == nil {
		frames, lsn, n, err := tl.ReadBatch(0)
		var te *wal.TruncatedError
		if errors.As(err, &te) {
			fmt.Printf("# records [%d, %d) truncated by a checkpoint; skipping ahead\n", te.From, te.Oldest)
			tl.Close()
			tl = wal.Follow(target, te.Oldest)
			continue
		}
		if err != nil {
			return err
		}
		off := 0
		for i := 0; i < n; i++ {
			r, consumed, derr := wal.DecodeRecord(frames[off:])
			if derr != nil {
				return fmt.Errorf("decode frame at LSN %d: %w", lsn+uint64(i), derr)
			}
			printRec(lsn+uint64(i), r)
			off += consumed
		}
		if n == 0 {
			select {
			case <-ctx.Done():
			case <-time.After(100 * time.Millisecond):
			}
		}
	}
	return nil
}

// replayWAL reconstructs the state journaled in a write-ahead log
// directory — checkpoint plus WAL tail — and prints the top-k it held.
// The directory's meta file carries the configuration, so no workload
// flags apply.
func replayWAL(dir string, jsonOut bool) error {
	eng, err := hotpaths.Recover(dir)
	if err != nil {
		return err
	}
	defer eng.Close()
	return printReplay(eng.Snapshot(), jsonOut)
}

// replayTrace feeds a recorded trace through the public API and prints the
// resulting top-k. The loop is written against hotpaths.Source, so the
// System and Engine deployments replay identically. A non-empty walRecord
// journals the stream to that directory as it replays.
func replayTrace(path string, eps float64, w, epoch int64, k int, useEngine, jsonOut, watch bool, walRecord string) (retErr error) {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	// The trace's extent is unknown upfront; scan once for bounds, then
	// replay. Traces are files, so two passes are fine.
	recs, err := trace.ReadAll(f)
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		return fmt.Errorf("trace %s is empty", path)
	}
	lo, hi := recs[0].TP.P, recs[0].TP.P
	for _, r := range recs[1:] {
		lo = lo.Min(r.TP.P)
		hi = hi.Max(r.TP.P)
	}
	cfg := hotpaths.Config{
		Eps:    eps,
		W:      w,
		Epoch:  epoch,
		K:      k,
		Bounds: hotpaths.Rect{Min: hotpaths.Pt(lo.X-eps, lo.Y-eps), Max: hotpaths.Pt(hi.X+eps, hi.Y+eps)},
	}
	var src hotpaths.Source
	switch {
	case walRecord != "":
		// Journal while replaying. The whole journal is kept (automatic
		// checkpoints off) so the directory doubles as a portable binary
		// trace; fsync once at Close rather than on a timer — this is a
		// bulk load, not a live ingest.
		dur, err := hotpaths.OpenDurable(walRecord, hotpaths.DurableConfig{
			Config:          cfg,
			FsyncInterval:   -1,
			CheckpointEvery: -1,
		})
		if err != nil {
			return err
		}
		// With the fsync ticker off, Close performs the capture's only
		// flush+fsync — swallowing its error would print a top-k while
		// leaving a truncated journal behind.
		defer func() {
			if cerr := dur.Close(); cerr != nil && retErr == nil {
				retErr = fmt.Errorf("close wal capture: %w", cerr)
			}
		}()
		src = dur
	case useEngine:
		eng, err := hotpaths.NewEngine(hotpaths.EngineConfig{Config: cfg})
		if err != nil {
			return err
		}
		defer eng.Close()
		src = eng
	default:
		sys, err := hotpaths.New(cfg)
		if err != nil {
			return err
		}
		src = sys
	}
	// -watch: a standing top-k query rides along with the replay, printing
	// the per-epoch deltas a live monitoring client would see. The printer
	// runs on its own goroutine — exactly the consumption model of the
	// daemon's SSE handler — and drains before the final table prints.
	var (
		watchSub  *hotpaths.Subscription
		watchDone chan struct{}
	)
	if watch {
		sub, err := src.Subscribe(hotpaths.Query{}.K(k))
		if err != nil {
			return err
		}
		watchSub = sub
		watchDone = make(chan struct{})
		go func() {
			defer close(watchDone)
			for d := range sub.Deltas() {
				if d.Empty() && !d.Reset {
					continue
				}
				tag := ""
				if d.Reset {
					tag = "  [reset]"
				}
				fmt.Printf("watch: t=%-6d epoch=%-4d +%d entered  ~%d changed  -%d left  missed=%d%s\n",
					d.Clock, d.Epoch, len(d.Entered), len(d.Changed), len(d.Left), d.Missed, tag)
			}
		}()
	}

	// Walk every timestamp so epochs fire on schedule even through silent
	// stretches; records are time-ordered, so a single cursor suffices.
	endT := int64(recs[len(recs)-1].TP.T)
	i := 0
	for t := int64(1); t <= endT; t++ {
		for i < len(recs) && int64(recs[i].TP.T) == t {
			r := recs[i]
			if err := src.Observe(r.ObjectID, r.TP.P.X, r.TP.P.Y, t); err != nil {
				return err
			}
			i++
		}
		if err := src.Tick(t); err != nil {
			return err
		}
	}

	if watchSub != nil {
		// Detach the watcher; buffered deltas stay readable after Close,
		// so the printer drains them before the final table prints.
		watchSub.Close()
		<-watchDone
	}

	// One snapshot answers every read consistently.
	return printReplay(src.Snapshot(), jsonOut)
}

// printReplay prints a replay's final state: the canonical PathJSON
// wire form with -json, a summary plus top-k table otherwise.
func printReplay(snap hotpaths.Snapshot, jsonOut bool) error {
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(hotpaths.PathsJSON(snap.TopK()))
	}
	st := snap.Stats()
	fmt.Printf("replayed %d measurements: %d reports, %d paths live\n",
		st.Observations, st.Reports, st.IndexSize)
	top := snap.TopK()
	fmt.Printf("\ntop-%d hottest motion paths:\n", len(top))
	var tb stats.Table
	tb.AddRow("id", "hotness", "length-m", "score")
	for _, hp := range top {
		tb.AddRow(
			fmt.Sprintf("%d", hp.ID),
			fmt.Sprintf("%d", hp.Hotness),
			fmt.Sprintf("%.0f", hp.Length()),
			fmt.Sprintf("%.0f", hp.Score()),
		)
	}
	tb.WriteTo(os.Stdout)
	return nil
}

func loadNetwork(path string, seed int64) (*roadnet.Network, error) {
	if path == "" {
		return roadnet.GenerateAthens(seed)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return roadnet.Read(f)
}

func fatal(err error) {
	slog.Error("run failed", "error", err)
	os.Exit(1)
}
