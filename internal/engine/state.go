package engine

import (
	"fmt"
	"sort"

	"hotpaths/internal/coordinator"
	"hotpaths/internal/raytrace"
	"hotpaths/internal/trajectory"
)

// FilterEntry is a bank entry under its checkpoint name. Gob names an
// unnamed field type by its Go spelling, so State.Filters must stay
// "[]engine.FilterEntry" for checkpoints to keep their bytes.
type FilterEntry raytrace.FilterEntry

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
	counters := e.statsLocked()
	st := State{
		Clock:        e.lastNow,
		Responses:    e.responses,
		Reports:      int64(counters.Reports),
		Observations: int64(counters.Observations),
		Pending:      e.batchLocked(),
		Coord:        e.coord.DumpState(),
	}
	for _, s := range e.shards {
		for fe := range s.bank.Dump() {
			st.Filters = append(st.Filters, FilterEntry(fe))
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
		s.bank = raytrace.NewBank(e.cfg.Tolerance)
		s.reports = nil
		s.err = nil
		s.observed.Store(0)
		s.reported.Store(0)
	}
	for _, fe := range st.Filters {
		if err := e.shards[e.shardIndex(fe.ObjectID)].bank.Restore(raytrace.FilterEntry(fe)); err != nil {
			return fmt.Errorf("engine: %w", err)
		}
	}
	// A pending report is answered at the next epoch by its object's
	// filter, which must be there and waiting for exactly that answer.
	for _, p := range st.Pending {
		if !e.shards[e.shardIndex(p.ObjectID)].bank.Awaits(p.ObjectID, p.State) {
			return fmt.Errorf("engine: pending report for object %d is not what its filter awaits", p.ObjectID)
		}
	}
	// The pending batch goes ahead of every report raised after the
	// restore, as the previous epoch's follow-ups do, so the next epoch
	// processes it in the dumped order.
	e.staged = nil
	e.followUps = append([]coordinator.Report(nil), st.Pending...)
	e.lastNow = st.Clock
	e.responses = st.Responses
	e.followed = 0
	e.baseObserved = st.Observations
	e.baseReported = st.Reports
	return nil
}
