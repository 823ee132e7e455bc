// Replication quickstart: a two-node topology in one process — a primary
// that journals a commuter flow and serves its write-ahead log, and a
// read-only follower that attaches MID-STREAM, bootstraps from the
// primary's checkpoint, tails the log, and converges to the exact same
// top-k.
//
// The wire protocol is the real one (HTTP chunked WAL frames, the same
// endpoints hotpathsd serves with -wal and consumes with -follow); only
// the network is loopback. A production topology is the same picture with
// more machines:
//
//	writers ──> hotpathsd -wal /var/lib/hotpaths   (primary: all writes)
//	              │ GET /wal/stream
//	      ┌───────┼────────────┐
//	      ▼       ▼            ▼
//	  hotpathsd -follow ...  (followers: /topk /paths /watch, 403 writes)
//
// Run with: go run ./examples/replication
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"hotpaths"
)

func main() {
	dir := filepath.Join(os.TempDir(), "hotpaths-replication-example")
	if err := os.RemoveAll(dir); err != nil {
		log.Fatal(err)
	}

	// The primary: a durable deployment whose journal doubles as the
	// replication log. Fast group commit so the follower's lag stays low.
	dur, err := hotpaths.OpenDurable(dir, hotpaths.DurableConfig{
		Config: hotpaths.Config{
			Eps:    10,
			W:      120,
			Epoch:  10,
			K:      5,
			Bounds: hotpaths.Rect{Min: hotpaths.Pt(-100, -100), Max: hotpaths.Pt(2000, 400)},
		},
		FsyncInterval: 2 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer dur.Close()

	// Serve the replication feed — hotpathsd mounts exactly this when run
	// with -wal; here it rides a loopback test server.
	mux := http.NewServeMux()
	mux.Handle("/wal/", hotpaths.NewReplicationFeed(dur, nil))
	primary := httptest.NewServer(mux)
	defer primary.Close()

	// Commuters stream along two avenues; lane offsets keep them within
	// Eps of each other so shared paths heat up.
	rng := rand.New(rand.NewSource(11))
	const commuters, horizon = 40, 300
	offset := make([]float64, commuters)
	for i := range offset {
		offset[i] = rng.Float64()*6 - 3
	}
	feed := func(from, to int64) {
		for now := from; now <= to; now++ {
			var batch []hotpaths.Observation
			for i := 0; i < commuters; i++ {
				s := (now + int64(i)*7) % 150
				avenue := float64(i%2) * 250
				batch = append(batch, hotpaths.Observation{
					ObjectID: i, X: float64(s) * 8, Y: avenue + offset[i], T: now,
				})
			}
			if err := dur.ObserveBatchCtx(context.Background(), batch); err != nil {
				log.Fatal(err)
			}
			if err := dur.Tick(now); err != nil {
				log.Fatal(err)
			}
		}
	}

	// Half the workload happens before the follower exists; a checkpoint
	// in between gives the late joiner a bootstrap that skips most of the
	// replay.
	feed(1, horizon/2)
	if _, err := dur.Checkpoint(); err != nil {
		log.Fatal(err)
	}

	// The follower attaches mid-stream: checkpoint restore + WAL tail.
	fol, err := hotpaths.OpenFollower(primary.URL, hotpaths.FollowerConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer fol.Close()
	rs := fol.Replication()
	fmt.Printf("follower attached mid-stream: bootstrapped at lsn %d (%d checkpoint restore)\n",
		rs.AppliedLSN, rs.Bootstraps)

	// Writes belong on the primary; the follower says so.
	if err := fol.Observe(0, 1, 2, 3); err != nil {
		fmt.Printf("follower rejects writes: %v\n", err)
	}

	// Second half of the workload, with the follower tailing live.
	feed(horizon/2+1, horizon)

	// Wait until the follower has applied everything the primary wrote,
	// then both must answer the standing question — "what are the hottest
	// paths right now?" — identically, byte for byte.
	for fol.Replication().AppliedLSN < dur.NextLSN() {
		time.Sleep(2 * time.Millisecond)
	}
	ptop, ftop := dur.Snapshot().TopK(), fol.Snapshot().TopK()
	if !reflect.DeepEqual(ptop, ftop) {
		log.Fatalf("follower diverged:\nprimary:  %v\nfollower: %v", ptop, ftop)
	}
	rs = fol.Replication()
	fmt.Printf("caught up: applied %d records, lag %d, epoch %d (primary epoch %d)\n",
		rs.AppliedLSN, rs.LagRecords, rs.AppliedEpoch, rs.PrimaryEpoch)
	fmt.Println("top paths, identical on both nodes:")
	for i, hp := range ptop {
		fmt.Printf("  primary #%d hotness %d length %.0fm   == follower #%d hotness %d length %.0fm\n",
			hp.ID, hp.Hotness, hp.Length(), ftop[i].ID, ftop[i].Hotness, ftop[i].Length())
	}
}
