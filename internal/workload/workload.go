// Package workload simulates the paper's moving-object population
// (Section 6.1). Objects travel on the road network with a fixed
// displacement s per move and take one noisy location measurement per move
// (white noise uniform in [−err, +err] per coordinate); at any instant only
// a fraction α (the agility) of the population is moving. Leaving a node,
// an object picks the next link with probability proportional to the link's
// class weight, which concentrates traffic on major roads.
//
// Two movement models realise the agility parameter:
//
//   - IID: the paper's literal reading — at every timestamp each object
//     independently moves with probability α. The inter-arrival times of an
//     object's measurements are then geometric, which makes its position a
//     random staircase over wall-clock time.
//
//   - Bursty (default): a traffic interpretation — objects drive at full
//     speed (one move per timestamp) and stop at red lights when they reach
//     a crossroads, with stop durations calibrated so the long-run moving
//     fraction is α. Movement between stops has constant velocity, so
//     trajectory approximation errors concentrate at intersections — the
//     same locations for every object — exactly as in real road traffic.
//     BenchmarkAblationMovementModel sets it against IID on the same
//     network.
package workload

import (
	"fmt"
	"math/rand"

	"hotpaths/internal/geom"
	"hotpaths/internal/roadnet"
	"hotpaths/internal/trajectory"
)

// MovementModel selects how agility is realised.
type MovementModel int

const (
	// Bursty is the traffic-light model (default).
	Bursty MovementModel = iota
	// IID is the independent per-timestamp coin-flip model.
	IID
)

func (m MovementModel) String() string {
	if m == IID {
		return "iid"
	}
	return "bursty"
}

// Config parameterises a simulated population.
type Config struct {
	N       int     // number of objects (paper default 20,000)
	Agility float64 // long-run fraction of objects moving per timestamp (default 0.1)
	Step    float64 // displacement s per move, metres (default 10)
	Err     float64 // positional white-noise amplitude, metres (default 1)
	Seed    int64   // RNG seed
	Model   MovementModel
	// StopProb is the probability of a red light when reaching a node
	// (Bursty model only; default 0.4).
	StopProb float64
}

// Measurement is one noisy location reading taken by a moving object.
type Measurement struct {
	ObjectID int
	TP       trajectory.TimePoint // noisy position with timestamp
	True     geom.Point           // ground-truth position (for verification)
}

// objState tracks one object's position on the network: travelling on link
// `link` from node `from` towards node `to`, `dist` metres from `from`.
type objState struct {
	link      int
	from, to  int
	dist      float64
	stopUntil trajectory.Time // Bursty: stopped until this timestamp
}

// Simulator drives the population over discrete timestamps.
type Simulator struct {
	net      *roadnet.Network
	cfg      Config
	rng      *rand.Rand
	objs     []objState
	moves    int
	stopMean float64 // Bursty: mean red-light duration
}

// New validates cfg and places the N objects at random nodes.
func New(net *roadnet.Network, cfg Config) (*Simulator, error) {
	if net == nil || len(net.Nodes) == 0 || len(net.Links) == 0 {
		return nil, fmt.Errorf("workload: network must be non-empty")
	}
	if cfg.N <= 0 {
		return nil, fmt.Errorf("workload: N must be positive, got %d", cfg.N)
	}
	if cfg.Agility <= 0 || cfg.Agility > 1 {
		return nil, fmt.Errorf("workload: agility must be in (0,1], got %v", cfg.Agility)
	}
	if cfg.Step <= 0 {
		return nil, fmt.Errorf("workload: step must be positive, got %v", cfg.Step)
	}
	if cfg.Err < 0 {
		return nil, fmt.Errorf("workload: err must be non-negative, got %v", cfg.Err)
	}
	if cfg.Model != Bursty && cfg.Model != IID {
		return nil, fmt.Errorf("workload: unknown movement model %d", cfg.Model)
	}
	if cfg.StopProb < 0 || cfg.StopProb > 1 {
		return nil, fmt.Errorf("workload: stop probability must be in [0,1], got %v", cfg.StopProb)
	}
	if cfg.StopProb == 0 {
		cfg.StopProb = 0.4
	}
	s := &Simulator{
		net:  net,
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		objs: make([]objState, cfg.N),
	}
	// Calibrate red-light duration so the long-run moving fraction is α:
	// a cycle is (drive one link, maybe stop); moving time per cycle is
	// linkTime = avgLink/Step, stopped time is StopProb·stopMean, so
	// α = linkTime / (linkTime + StopProb·stopMean).
	if cfg.Model == Bursty && cfg.Agility < 1 {
		var total float64
		for i := range net.Links {
			total += net.LinkLength(i)
		}
		avgLink := total / float64(len(net.Links))
		linkTime := avgLink / cfg.Step
		s.stopMean = linkTime * (1 - cfg.Agility) / (cfg.Agility * cfg.StopProb)
	}
	for i := range s.objs {
		node := s.rng.Intn(len(net.Nodes))
		link := s.chooseLink(node)
		s.objs[i] = objState{link: link, from: node, to: net.Other(link, node), dist: 0}
		if cfg.Model == Bursty && cfg.Agility < 1 {
			// Start the population in steady state: 1−α of the objects are
			// waiting at a light with a residual duration.
			if s.rng.Float64() >= cfg.Agility {
				s.objs[i].stopUntil = trajectory.Time(1 + s.rng.Intn(int(2*s.stopMean)+1))
			}
		}
	}
	return s, nil
}

// N returns the population size.
func (s *Simulator) N() int { return s.cfg.N }

// Moves returns the total number of object moves so far.
func (s *Simulator) Moves() int { return s.moves }

// chooseLink picks an incident link of node with probability proportional
// to its class weight.
func (s *Simulator) chooseLink(node int) int {
	inc := s.net.Incident(node)
	total := 0.0
	for _, l := range inc {
		total += s.net.Links[l].Class.Weight()
	}
	x := s.rng.Float64() * total
	for _, l := range inc {
		x -= s.net.Links[l].Class.Weight()
		if x <= 0 {
			return l
		}
	}
	return inc[len(inc)-1]
}

// position returns the object's current true position.
func (s *Simulator) position(o *objState) geom.Point {
	a := s.net.Nodes[o.from].P
	b := s.net.Nodes[o.to].P
	length := a.Dist(b)
	if length == 0 {
		return a
	}
	return a.Lerp(b, o.dist/length)
}

// Position returns the true position of object id (for tests/inspection).
func (s *Simulator) Position(id int) geom.Point {
	return s.position(&s.objs[id])
}

// Stopped reports whether object id is currently waiting at a light
// (always false under the IID model).
func (s *Simulator) Stopped(id int, now trajectory.Time) bool {
	return s.objs[id].stopUntil > now
}

// Tick advances the world to timestamp now; objects that move emit one
// noisy measurement each.
func (s *Simulator) Tick(now trajectory.Time) []Measurement {
	var out []Measurement
	for i := range s.objs {
		o := &s.objs[i]
		switch s.cfg.Model {
		case IID:
			if s.rng.Float64() >= s.cfg.Agility {
				continue
			}
		default: // Bursty
			if o.stopUntil > now {
				continue
			}
		}
		s.advance(o, now)
		s.moves++
		truth := s.position(o)
		noisy := geom.Pt(
			truth.X+(s.rng.Float64()*2-1)*s.cfg.Err,
			truth.Y+(s.rng.Float64()*2-1)*s.cfg.Err,
		)
		out = append(out, Measurement{
			ObjectID: i,
			TP:       trajectory.TP(noisy, now),
			True:     truth,
		})
	}
	return out
}

// advance moves one object Step metres along its link, clamping at the far
// node ("the next location will be along that link or at the opposite end
// node at most"). At a node the object either hits a red light (Bursty) or
// immediately picks the next link by the weighted rule.
func (s *Simulator) advance(o *objState, now trajectory.Time) {
	length := s.net.Nodes[o.from].P.Dist(s.net.Nodes[o.to].P)
	if o.dist >= length {
		// At the far node: choose the next link from there.
		node := o.to
		link := s.chooseLink(node)
		o.link = link
		o.from = node
		o.to = s.net.Other(link, node)
		o.dist = 0
		length = s.net.Nodes[o.from].P.Dist(s.net.Nodes[o.to].P)
	}
	o.dist += s.cfg.Step
	if o.dist >= length {
		o.dist = length // arrived: clamp at the node
		if s.cfg.Model == Bursty && s.cfg.Agility < 1 && s.rng.Float64() < s.cfg.StopProb {
			// Red light: exponential duration with the calibrated mean.
			dur := 1 + int(s.rng.ExpFloat64()*s.stopMean)
			o.stopUntil = now + trajectory.Time(dur)
		}
	}
}
