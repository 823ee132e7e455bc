package engine

import (
	"fmt"
	"sync/atomic"

	"hotpaths/internal/coordinator"
	"hotpaths/internal/raytrace"
	"hotpaths/internal/trajectory"
)

// An ObjectError is a per-observation processing failure attributed to
// one object, surfaced from the epoch-boundary Tick that follows it.
// Tick wraps it ("engine: ..."), so callers classify with
// errors.As(&ObjectError{}) — never by matching the rendered text
// (the errstring contract).
type ObjectError struct {
	ObjectID int
	Err      error
}

func (e *ObjectError) Error() string { return fmt.Sprintf("object %d: %v", e.ObjectID, e.Err) }

func (e *ObjectError) Unwrap() error { return e.Err }

// obs is an Observation tagged with its global ingestion sequence number,
// assigned when the observation entered the engine. Sequence numbers
// restore the single-threaded arrival order when shard reports are merged
// at an epoch boundary.
type obs struct {
	Observation
	seq uint64
}

// taggedReport is a RayTrace state message remembering the sequence number
// of the observation that triggered it.
type taggedReport struct {
	seq uint64
	rep coordinator.Report
}

// msg is one unit of work on a shard's queue: a batch of observations, or
// a flush token (non-nil flush) the shard closes once everything queued
// before it has been processed.
type msg struct {
	obs   []obs
	flush chan struct{}
}

// shard owns the RayTrace filters for the objects that hash to it. All
// fields below the channel are owned by the shard goroutine while it runs;
// the engine touches them only between a flush barrier and the next send,
// which the channel synchronisation orders correctly.
type shard struct {
	ch   chan msg
	done chan struct{}
	tol  func(sigmaX, sigmaY float64) raytrace.ToleranceFunc

	filters map[int]*raytrace.Filter
	// sigmas remembers each object's first-observation noise levels — the
	// parameters its tolerance model was built with — so checkpoints can
	// rebuild the filter's ToleranceFunc on restore.
	sigmas  map[int][2]float64
	reports []taggedReport
	err     error // first processing error since the last barrier

	// Monotone counters, atomic so Stats can read them mid-flight.
	observed atomic.Int64
	reported atomic.Int64
}

func newShard(buffer int, tol func(sigmaX, sigmaY float64) raytrace.ToleranceFunc) *shard {
	return &shard{
		ch:      make(chan msg, buffer),
		done:    make(chan struct{}),
		tol:     tol,
		filters: make(map[int]*raytrace.Filter),
		sigmas:  make(map[int][2]float64),
	}
}

// run is the shard goroutine: drain the queue, acking flush tokens in
// order. It exits when the channel is closed.
func (s *shard) run() {
	defer close(s.done)
	for m := range s.ch {
		if m.flush != nil {
			close(m.flush)
			continue
		}
		for _, o := range m.obs {
			s.process(o)
		}
	}
}

// process mirrors System.observe: the first observation of an object seeds
// its filter, later ones step the SSA, and violations queue a report for
// the next epoch.
func (s *shard) process(o obs) {
	s.observed.Add(1)
	tp := trajectory.TP(o.P, o.T)
	f, ok := s.filters[o.ObjectID]
	if !ok {
		s.filters[o.ObjectID] = raytrace.NewWithTolerance(tp, s.tol(o.SigmaX, o.SigmaY))
		if o.SigmaX != 0 || o.SigmaY != 0 {
			s.sigmas[o.ObjectID] = [2]float64{o.SigmaX, o.SigmaY}
		}
		return
	}
	st, report, err := f.Process(tp)
	if err != nil {
		if s.err == nil {
			s.err = &ObjectError{ObjectID: o.ObjectID, Err: err}
		}
		return
	}
	if report {
		s.reports = append(s.reports, taggedReport{
			seq: o.seq,
			rep: coordinator.Report{ObjectID: o.ObjectID, State: st},
		})
		s.reported.Add(1)
	}
}
