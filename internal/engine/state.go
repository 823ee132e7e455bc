package engine

import (
	"fmt"
	"sort"

	"hotpaths/internal/coordinator"
	"hotpaths/internal/raytrace"
	"hotpaths/internal/trajectory"
)

// FilterEntry is one object's filter-bank state: the RayTrace filter dump
// plus the noise levels its tolerance model was built with.
type FilterEntry struct {
	ObjectID       int
	SigmaX, SigmaY float64
	Filter         raytrace.FilterState
}

// State is the engine's complete mutable state, exported for
// checkpointing. It is shard-count-agnostic: the same State restores into
// an Engine of any width with bit-identical future behaviour — Pending
// holds the next epoch's reports (follow-ups first, then
// observation-raised reports) in the exact order that epoch's batch will
// process them.
type State struct {
	Clock        trajectory.Time
	Observations int64
	Reports      int64
	Responses    int
	Pending      []coordinator.Report // next epoch's batch prefix, in order
	Filters      []FilterEntry        // sorted by object id
	Coord        coordinator.State
}

// DumpState drains the shards and captures the engine's state at one
// consistent point. The caller must guarantee no concurrent ingestion
// (hotpaths.Durable holds its write path closed while checkpointing).
// Dumping is read-only apart from moving already-raised shard reports
// into the engine's staged buffer, which the next Tick would do anyway.
func (e *Engine) DumpState() (State, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return State{}, ErrClosed
	}
	e.drainLocked()
	for _, s := range e.shards {
		e.staged = append(e.staged, s.reports...)
		s.reports = nil
	}
	sort.Slice(e.staged, func(i, j int) bool { return e.staged[i].seq < e.staged[j].seq })

	counters := e.statsLocked()
	st := State{
		Clock:        e.lastNow,
		Responses:    e.responses,
		Reports:      int64(counters.Reports),
		Observations: int64(counters.Observations),
		Coord:        e.coord.DumpState(),
	}
	st.Pending = append(st.Pending, e.followUps...)
	for _, tr := range e.staged {
		st.Pending = append(st.Pending, tr.rep)
	}
	for _, s := range e.shards {
		for id, f := range s.filters {
			sig := s.sigmas[id]
			st.Filters = append(st.Filters, FilterEntry{
				ObjectID: id,
				SigmaX:   sig[0],
				SigmaY:   sig[1],
				Filter:   f.Dump(),
			})
		}
	}
	sort.Slice(st.Filters, func(i, j int) bool { return st.Filters[i].ObjectID < st.Filters[j].ObjectID })
	return st, nil
}

// RestoreState replaces the engine's state with a dumped one. The engine
// must be freshly built from the same Config (any shard count); filters
// are redistributed to the current shards by the object-id hash.
func (e *Engine) RestoreState(st State) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	// Dropped first: a restore that fails part-way has still changed
	// the coordinator.
	e.view.Store(nil)
	if e.closed {
		return ErrClosed
	}
	e.drainLocked()
	if err := e.coord.RestoreState(st.Coord); err != nil {
		return err
	}
	for _, s := range e.shards {
		s.filters = make(map[int]*raytrace.Filter)
		s.sigmas = make(map[int][2]float64)
		s.reports = nil
		s.err = nil
		s.observed.Store(0)
		s.reported.Store(0)
	}
	for _, fe := range st.Filters {
		s := e.shards[e.shardIndex(fe.ObjectID)]
		if _, dup := s.filters[fe.ObjectID]; dup {
			return fmt.Errorf("engine: restored filter for object %d is duplicated", fe.ObjectID)
		}
		s.filters[fe.ObjectID] = raytrace.Restore(fe.Filter, e.cfg.Tolerance(fe.SigmaX, fe.SigmaY))
		if fe.SigmaX != 0 || fe.SigmaY != 0 {
			s.sigmas[fe.ObjectID] = [2]float64{fe.SigmaX, fe.SigmaY}
		}
	}
	// Reinstate the pending batch with fresh ascending sequence numbers:
	// reports raised after the restore get higher ones, so the next
	// epoch's merge reproduces the dumped batch order exactly.
	e.staged = nil
	e.followUps = nil
	for _, p := range st.Pending {
		e.staged = append(e.staged, taggedReport{seq: e.seq.Add(1) - 1, rep: p})
	}
	e.lastNow = st.Clock
	e.responses = st.Responses
	e.followed = 0
	e.baseObserved = st.Observations
	e.baseReported = st.Reports
	return nil
}
