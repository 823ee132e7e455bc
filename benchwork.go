package hotpaths

import "math/rand"

// IngestWorkload builds a deterministic multi-object workload: seeded
// random walks with occasional sharp turns, so filters report and the
// coordinator exercises all three SinglePath cases. One batch per
// timestamp from 1 to horizon. The correctness tests, the go-test
// benchmarks and the `hotpaths bench` harness all drive this generator,
// so every measurement along the bench trajectory exercises the same
// workload.
func IngestWorkload(nObjects int, horizon, seed int64) [][]Observation {
	rng := rand.New(rand.NewSource(seed))
	type state struct{ x, y, dx, dy float64 }
	objs := make([]state, nObjects)
	for i := range objs {
		objs[i] = state{x: float64(i%16) * 40, y: float64(i/16) * 40, dx: 6}
	}
	out := make([][]Observation, 0, horizon)
	for t := int64(1); t <= horizon; t++ {
		batch := make([]Observation, 0, nObjects)
		for i := range objs {
			o := &objs[i]
			if rng.Float64() < 0.15 {
				o.dx, o.dy = rng.Float64()*12-6, rng.Float64()*12-6
			}
			o.x += o.dx + rng.Float64() - 0.5
			o.y += o.dy + rng.Float64() - 0.5
			batch = append(batch, Observation{ObjectID: i, X: o.x, Y: o.y, T: t})
		}
		out = append(out, batch)
	}
	return out
}
