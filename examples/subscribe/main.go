// Subscribe quickstart: watch hot motion paths appear, heat up and expire
// through a standing query instead of polling snapshots.
//
// A morning commute plays out in three acts: an eastbound flow builds up,
// a second northbound flow joins it, then both stop and the window slides
// everything back out. A subscription with MinHotness(3) turns those acts
// into a stream of per-epoch deltas — paths entering the hot set, changing
// hotness, and finally leaving — the same stream the hotpathsd daemon
// serves over GET /watch.
//
// Run with: go run ./examples/subscribe
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"hotpaths"
)

func main() {
	eng, err := hotpaths.NewEngine(hotpaths.EngineConfig{
		Config: hotpaths.Config{
			Eps:    15,  // metres: trajectory deviation absorbed by one path
			W:      120, // timestamps: crossings older than this stop counting
			Epoch:  10,  // coordinator cadence = delta cadence
			K:      5,
			Bounds: hotpaths.Rect{Min: hotpaths.Pt(-100, -100), Max: hotpaths.Pt(2000, 2000)},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	// The standing query: paths crossed at least 3 times in the window.
	// The first delta is the current result (empty here); afterwards one
	// delta arrives per epoch. Applying each delta to the previous result
	// reproduces Snapshot().Query(q) at that boundary exactly.
	sub, err := eng.Subscribe(hotpaths.Query{}.MinHotness(3))
	if err != nil {
		log.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var result []hotpaths.HotPath
		for d := range sub.Deltas() {
			result = d.Apply(result)
			if d.Empty() {
				continue // heartbeat epoch: nothing crossed the threshold
			}
			fmt.Printf("t=%-4d %d hot paths", d.Clock, len(result))
			for _, hp := range d.Entered {
				fmt.Printf("  +#%d(h=%d)", hp.ID, hp.Hotness)
			}
			for _, hp := range d.Changed {
				fmt.Printf("  ~#%d(h=%d)", hp.ID, hp.Hotness)
			}
			for _, id := range d.Left {
				fmt.Printf("  -#%d", id)
			}
			fmt.Println()
		}
	}()

	rng := rand.New(rand.NewSource(7))
	const horizon = 400
	for now := int64(1); now <= horizon; now++ {
		var batch []hotpaths.Observation
		for i := 0; i < 24; i++ {
			// Act 1: eastbound flow for the first half of the run.
			if now <= 200 {
				s := (float64(now) + float64(i*9%60)) * 7
				batch = append(batch, hotpaths.Observation{
					ObjectID: i, X: s - float64(int64(s)/1400*1400), Y: rng.Float64()*8 - 4, T: now,
				})
			}
			// Act 2: northbound flow joins from t=80 until t=260.
			if now >= 80 && now <= 260 {
				s := (float64(now-80) + float64(i*7%40)) * 7
				batch = append(batch, hotpaths.Observation{
					ObjectID: 100 + i, X: 800 + rng.Float64()*8 - 4, Y: s - float64(int64(s)/1400*1400), T: now,
				})
			}
			// Act 3 (t>260): silence — the sliding window drains the hot set.
		}
		if err := eng.ObserveBatchCtx(context.Background(), batch); err != nil {
			log.Fatal(err)
		}
		if err := eng.TickCtx(context.Background(), now); err != nil {
			log.Fatal(err)
		}
	}

	// Closing the engine closes the subscription channel; wait for the
	// watcher to drain so its last lines print before we exit.
	eng.Close()
	<-done
	fmt.Println("engine closed, subscription drained")
}
