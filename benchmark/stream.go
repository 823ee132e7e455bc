package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"hotpaths"
	"hotpaths/internal/roadnet"
	"hotpaths/internal/trajectory"
	traffic "hotpaths/internal/workload"
)

// observeRequest is the POST /observe body: one timestamp's measurements
// with the clock advance inline, the form a single-writer feed uses.
type observeRequest struct {
	Observations []hotpaths.ObservationJSON `json:"observations"`
	Tick         int64                      `json:"tick,omitempty"`
}

// stream is the input every workload is fed: one request body per
// timestamp, generated and encoded before any SUT process starts so the
// measured phases do no simulation and no encoding. batches holds the
// same measurements decoded, for the in-process oracle and layer replays.
type stream struct {
	bounds    hotpaths.Rect // network bounds widened by 100 m
	bodies    [][]byte      // bodies[i] is the body of timestamp i+1
	batches   [][]hotpaths.Observation
	generated time.Duration
}

// population is the paper's Section-6.1 default except under -smoke.
const population = 20000

// generate builds the stream for timestamps 1..n as a pure function of
// seed: the Athens-like network and the bursty traffic population both
// take it.
func generate(seed int64, objects, n int) (*stream, error) {
	t0 := time.Now()
	net, err := roadnet.GenerateAthens(seed)
	if err != nil {
		return nil, fmt.Errorf("generate network: %w", err)
	}
	sim, err := traffic.New(net, traffic.Config{
		N: objects, Agility: 0.1, Step: 10, Err: 1, Model: traffic.Bursty, Seed: seed,
	})
	if err != nil {
		return nil, fmt.Errorf("generate population: %w", err)
	}
	b := net.Bounds()
	st := &stream{
		bounds: hotpaths.Rect{
			Min: hotpaths.Pt(b.Lo.X-100, b.Lo.Y-100),
			Max: hotpaths.Pt(b.Hi.X+100, b.Hi.Y+100),
		},
		bodies:  make([][]byte, n),
		batches: make([][]hotpaths.Observation, n),
	}
	for i := range st.bodies {
		t := int64(i + 1)
		ms := sim.Tick(trajectory.Time(t))
		req := observeRequest{Observations: make([]hotpaths.ObservationJSON, len(ms)), Tick: t}
		batch := make([]hotpaths.Observation, len(ms))
		for j, m := range ms {
			req.Observations[j] = hotpaths.ObservationJSON{Object: m.ObjectID, X: m.TP.P.X, Y: m.TP.P.Y, T: t}
			batch[j] = req.Observations[j].Observation()
		}
		if st.bodies[i], err = json.Marshal(req); err != nil {
			return nil, fmt.Errorf("encode timestamp %d: %w", t, err)
		}
		st.batches[i] = batch
	}
	st.generated = time.Since(t0)
	return st, nil
}

// digest is the SHA-256 over every body in order: the identity of the
// input, printed with each result so two runs can be shown to have
// measured the same stream.
func (st *stream) digest() string {
	h := sha256.New()
	for _, b := range st.bodies {
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// centreBox is the region the bbox reads ask for: a side×side metre box
// at the centre of the network.
func (st *stream) centreBox(side float64) hotpaths.Rect {
	cx := (st.bounds.Min.X + st.bounds.Max.X) / 2
	cy := (st.bounds.Min.Y + st.bounds.Max.Y) / 2
	return hotpaths.Rect{
		Min: hotpaths.Pt(cx-side/2, cy-side/2),
		Max: hotpaths.Pt(cx+side/2, cy+side/2),
	}
}
