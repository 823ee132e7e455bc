// Engine quickstart: feed observations from multiple producer goroutines
// into the concurrent sharded hotpaths.Engine and read back the hottest
// motion paths.
//
// Sixty-four commuters drive the same two-leg route (east, then north)
// with small lateral offsets and staggered departures. Each timestamp,
// four producer goroutines push their partition of the fleet concurrently
// — the shape of a network ingest tier — then a single clock goroutine
// ticks the engine. The discovered paths are identical to what a
// single-threaded System would find on the same stream.
//
// Run with: go run ./examples/engine
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"runtime"
	"sync"

	"hotpaths"
)

func main() {
	eng, err := hotpaths.NewEngine(hotpaths.EngineConfig{
		Config: hotpaths.Config{
			Eps:    15,  // metres: how much trajectories may deviate and still share a path
			W:      300, // timestamps: crossings older than this stop counting
			Epoch:  10,  // coordinator cadence
			K:      5,   // how many hot paths to report
			Bounds: hotpaths.Rect{Min: hotpaths.Pt(-100, -100), Max: hotpaths.Pt(2000, 2000)},
		},
		Shards: runtime.GOMAXPROCS(0),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	rng := rand.New(rand.NewSource(42))
	const (
		commuters = 64
		producers = 4
		legLen    = 100 // steps per leg
		speed     = 8.0 // metres per step
		horizon   = 300
	)
	depart := make([]int64, commuters)
	offset := make([]float64, commuters)
	for i := range depart {
		depart[i] = int64(rng.Intn(40))
		offset[i] = rng.Float64()*10 - 5
	}
	// Position of commuter i at step s: east leg, north leg, then parked at
	// the destination (the stop is a velocity change the safe area cannot
	// absorb, which flushes the final leg).
	pos := func(i int, s int64) (x, y float64) {
		switch {
		case s <= legLen:
			return float64(s) * speed, offset[i]
		case s <= 2*legLen:
			return legLen * speed, offset[i] + float64(s-legLen)*speed
		default:
			return legLen * speed, offset[i] + legLen*speed
		}
	}

	for now := int64(1); now <= horizon; now++ {
		// Each producer owns a fixed partition of the fleet, so per-object
		// timestamp order is preserved without extra coordination.
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				var batch []hotpaths.Observation
				for i := p; i < commuters; i += producers {
					s := now - depart[i]
					if s < 1 || s > 2*legLen+30 {
						continue // not on the road yet / phone gone quiet after arrival
					}
					x, y := pos(i, s)
					batch = append(batch, hotpaths.Observation{ObjectID: i, X: x, Y: y, T: now})
				}
				if err := eng.ObserveBatchCtx(context.Background(), batch); err != nil {
					log.Fatal(err)
				}
			}(p)
		}
		wg.Wait()
		if err := eng.Tick(now); err != nil {
			log.Fatal(err)
		}
	}

	// Snapshot captures paths, counters and clock at one consistent point
	// under the engine lock; it is safe to query from any goroutine while
	// producers keep ingesting.
	snap := eng.Snapshot()
	st := snap.Stats()
	fmt.Printf("ingested %d observations over %d shards: %d reports, %d paths live\n",
		st.Observations, eng.Shards(), st.Reports, st.IndexSize)
	fmt.Println("hottest motion paths:")
	for _, hp := range snap.TopK() {
		fmt.Printf("  #%d  hotness %d  length %.0fm  (%.0f,%.0f) -> (%.0f,%.0f)\n",
			hp.ID, hp.Hotness, hp.Length(),
			hp.Start.X, hp.Start.Y, hp.End.X, hp.End.Y)
	}
}
