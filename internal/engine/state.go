package engine

import (
	"cmp"
	"fmt"
	"slices"

	"hotpaths/internal/coordinator"
	"hotpaths/internal/raytrace"
	"hotpaths/internal/trajectory"
)

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
	Pending      []coordinator.Report   // next epoch's batch prefix, in order
	Filters      []raytrace.FilterEntry // sorted by object id
	Coord        coordinator.State
}

// DumpState drains the shards and captures the engine's state at one
// consistent point. The caller must guarantee no concurrent ingestion
// (hotpaths.Durable holds its write path closed while checkpointing).
// Dumping is read-only apart from merging already-raised shard reports
// behind the pending follow-ups, which the next Tick would do anyway.
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
		Pending:      slices.Clone(e.batch(e)),
		Coord:        e.coord.DumpState(),
	}
	n := 0
	for _, s := range e.shards {
		n += s.bank.Len()
	}
	st.Filters = make([]raytrace.FilterEntry, 0, n)
	for _, s := range e.shards {
		st.Filters = slices.AppendSeq(st.Filters, s.bank.Dump())
	}
	sortByObject(st.Filters)
	return st, nil
}

// sortByObject orders filter entries by object id. An entry is ~176
// bytes, so it sorts (id, index) pairs and then moves each entry once,
// following the permutation's cycles, rather than swapping entries.
func sortByObject(fs []raytrace.FilterEntry) {
	type key struct{ id, i int }
	keys := make([]key, len(fs))
	for i := range fs {
		keys[i] = key{fs[i].ObjectID, i}
	}
	slices.SortFunc(keys, func(a, b key) int { return cmp.Compare(a.id, b.id) })
	// Position k takes the entry at keys[k].i; a visited position is
	// marked by setting its source to -1.
	for start := range keys {
		if keys[start].i < 0 || keys[start].i == start {
			continue
		}
		tmp := fs[start]
		k := start
		for {
			src := keys[k].i
			keys[k].i = -1
			if src == start {
				fs[k] = tmp
				break
			}
			fs[k] = fs[src]
			k = src
		}
	}
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
		s.bank = raytrace.NewBank(e.cfg.Eps, e.cfg.Delta)
		s.reports = nil
		s.observed.Store(0)
		s.reported.Store(0)
	}
	for _, fe := range st.Filters {
		if err := e.shards[e.shardIndex(fe.ObjectID)].bank.Restore(fe); err != nil {
			return fmt.Errorf("engine: %w", err)
		}
	}
	// A pending report is answered at the next epoch by its object's
	// filter, which must be there and waiting for exactly that answer,
	// and the coordinator must be able to process it then.
	for _, p := range st.Pending {
		if !e.shards[e.shardIndex(p.ObjectID)].bank.Awaits(p.ObjectID, p.State) {
			return fmt.Errorf("engine: pending report for object %d is not what its filter awaits", p.ObjectID)
		}
		if err := e.coord.CheckReport(p); err != nil {
			return fmt.Errorf("engine: pending report refused: %w", err)
		}
	}
	// The pending batch goes ahead of every report raised after the
	// restore, as the previous epoch's follow-ups do, so the next epoch
	// processes it in the dumped order.
	e.pending = append(e.pending[:0], st.Pending...)
	e.lastNow = st.Clock
	e.responses = st.Responses
	e.followed = 0
	e.baseObserved = st.Observations
	e.baseReported = st.Reports
	return nil
}
