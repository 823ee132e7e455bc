// Durability quickstart: journal an observation stream through
// hotpaths.OpenDurable, "crash" halfway, and watch recovery rebuild the
// exact state from disk.
//
// A fleet of taxis shuttles along a boulevard. The first life ingests
// half the stream with checkpoints disabled and stops — the journal
// holds every record but no checkpoint, exactly the recovery work a
// crash that outran its last checkpoint leaves behind. (A second writer
// on a live directory is refused: the journal is flock-guarded, so a
// true kill-9 demo needs two processes — see the crash-recovery golden
// tests, which cut the journal mid-record instead.) A second OpenDurable
// replays the journal and its counters and paths match the first life's;
// it then ingests the second half. Offline, hotpaths.Recover reads the
// directory once more and agrees with the final state bit for bit.
//
// Run with: go run ./examples/durable
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"hotpaths"
)

func main() {
	dir := filepath.Join(os.TempDir(), "hotpaths-durable-example")
	if err := os.RemoveAll(dir); err != nil {
		log.Fatal(err)
	}

	cfg := hotpaths.DurableConfig{
		Config: hotpaths.Config{
			Eps:    15,
			W:      300,
			Epoch:  10,
			K:      3,
			Bounds: hotpaths.Rect{Min: hotpaths.Pt(-100, -100), Max: hotpaths.Pt(2000, 200)},
		},
		// Journal knobs (all defaulted in real deployments): no fsync
		// ticker (the example syncs by hand) and no checkpoints, so the
		// reopen below has a full journal replay to do.
		FsyncInterval:   -1,
		CheckpointEvery: -1,
	}

	rng := rand.New(rand.NewSource(7))
	const taxis, horizon = 32, 240
	offset := make([]float64, taxis)
	for i := range offset {
		offset[i] = rng.Float64()*8 - 4
	}
	// Taxi i drives east along the boulevard and loops back.
	feed := func(w hotpaths.Writer, from, to int64) {
		ctx := context.Background()
		for now := from; now <= to; now++ {
			batch := make([]hotpaths.Observation, taxis)
			for i := range batch {
				s := (now + int64(i)*9) % 200
				x := float64(s) * 9
				if s > 100 {
					x = float64(200-s) * 9
				}
				batch[i] = hotpaths.Observation{ObjectID: i, X: x, Y: offset[i], T: now}
			}
			if err := w.ObserveBatchCtx(ctx, batch); err != nil {
				log.Fatal(err)
			}
			if err := w.TickCtx(ctx, now); err != nil {
				log.Fatal(err)
			}
		}
	}

	// First life: ingest half the stream and stop without a checkpoint —
	// recovery has the whole journal to replay, as after a crash.
	dur, err := hotpaths.OpenDurable(dir, cfg)
	if err != nil {
		log.Fatal(err)
	}
	feed(dur, 1, horizon/2)
	crashed := dur.Snapshot()
	if err := dur.Close(); err != nil { // releases the journal lock; writes no checkpoint
		log.Fatal(err)
	}
	fmt.Printf("before crash:  %d observations, %d paths live, clock %d\n",
		crashed.Stats().Observations, crashed.Stats().IndexSize, crashed.Clock())

	// Second life: OpenDurable replays the journal, bit-identical.
	dur2, err := hotpaths.OpenDurable(dir, cfg)
	if err != nil {
		log.Fatal(err)
	}
	recovered := dur2.Snapshot()
	fmt.Printf("after recover: %d observations, %d paths live, clock %d (replayed %d WAL records)\n",
		recovered.Stats().Observations, recovered.Stats().IndexSize,
		recovered.Clock(), dur2.WAL().Replayed)
	if recovered.Stats() != crashed.Stats() {
		log.Fatal("recovery diverged from the pre-crash state")
	}

	feed(dur2, horizon/2+1, horizon)
	final := dur2.Snapshot()
	if _, err := dur2.Checkpoint(); err != nil { // bound the next recovery: no replay needed
		log.Fatal(err)
	}
	if err := dur2.Close(); err != nil {
		log.Fatal(err)
	}

	// Offline reconstruction — what `hotpaths -wal-replay DIR` runs. The
	// replica is an Engine like the one behind dur: ours to query, and to
	// Close.
	replica, err := hotpaths.Recover(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer replica.Close()
	if replica.Snapshot().Stats() != final.Stats() {
		log.Fatal("offline replica diverged")
	}
	fmt.Printf("final state:   %d observations, %d paths live — offline replica agrees\n",
		final.Stats().Observations, final.Stats().IndexSize)
	fmt.Println("hottest motion paths:")
	for _, hp := range replica.Snapshot().TopK() {
		fmt.Printf("  #%d  hotness %d  length %.0fm\n", hp.ID, hp.Hotness, hp.Length())
	}
}
