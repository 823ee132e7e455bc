package engine

import (
	"sync/atomic"

	"hotpaths/internal/coordinator"
	"hotpaths/internal/raytrace"
	"hotpaths/internal/trajectory"
)

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

// shard is a goroutine around a filter bank: it feeds the bank the
// observations of the objects that hash to it and keeps the reports they
// raise, tagged for the merge. All fields below the channel are owned by
// the shard goroutine while it runs; the engine touches them only between
// a flush barrier and the next send, which the channel synchronisation
// orders correctly.
type shard struct {
	ch   chan msg
	done chan struct{}

	bank    raytrace.Bank
	reports []taggedReport
	err     error // first processing error since the last barrier

	// Monotone counters, atomic so Stats can read them mid-flight.
	observed atomic.Int64
	reported atomic.Int64
}

func newShard(buffer int, tol func(sigmaX, sigmaY float64) raytrace.ToleranceFunc) *shard {
	return &shard{
		ch:   make(chan msg, buffer),
		done: make(chan struct{}),
		bank: raytrace.NewBank(tol),
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

// process feeds one observation to the bank and queues a raised report
// for the next epoch, tagged with the observation's sequence number.
func (s *shard) process(o obs) {
	s.observed.Add(1)
	st, report, err := s.bank.Observe(o.ObjectID, trajectory.TP(o.P, o.T), o.SigmaX, o.SigmaY)
	if err != nil {
		if s.err == nil {
			s.err = err
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
