package coordinator

import (
	"fmt"
	"sort"

	"hotpaths/internal/gridindex"
	"hotpaths/internal/hotness"
	"hotpaths/internal/motion"
)

// State is the coordinator's complete mutable state, exported for
// checkpointing: the stored paths, the counters and the hotness window's
// pending crossings. Restoring it into a coordinator built with the same
// Config yields bit-identical future behaviour — the grid index is
// derived from the paths, and the crossing list carries the window's heap
// layout verbatim.
type State struct {
	Paths     []motion.Path // sorted by id, for a canonical encoding
	Stats     Stats
	Crossings []hotness.Crossing // the window's pending events, heap order
}

// DumpState captures the coordinator's state for checkpointing.
func (c *Coordinator) DumpState() State {
	paths := make([]motion.Path, 0, len(c.paths))
	for _, p := range c.paths {
		paths = append(paths, p)
	}
	sort.Slice(paths, func(i, j int) bool { return paths[i].ID < paths[j].ID })
	return State{
		Paths:     paths,
		Stats:     c.stats,
		Crossings: c.hot.Dump(),
	}
}

// RestoreState replaces the coordinator's state with a dumped one. The
// coordinator must have been built with the same Config as the dumping
// one; the grid index is rebuilt from the dumped paths.
func (c *Coordinator) RestoreState(st State) error {
	hot, err := hotness.Restore(c.cfg.W, st.Crossings)
	if err != nil {
		return fmt.Errorf("coordinator: restore hotness window: %w", err)
	}
	grid, err := gridindex.New(c.cfg.Bounds, c.cfg.Cols, c.cfg.Rows)
	if err != nil {
		return fmt.Errorf("coordinator: restore grid: %w", err)
	}
	paths := make(map[motion.PathID]motion.Path, len(st.Paths))
	for _, p := range st.Paths {
		if _, dup := paths[p.ID]; dup {
			return fmt.Errorf("coordinator: restored path id %d is duplicated", p.ID)
		}
		paths[p.ID] = p
		grid.Insert(gridindex.Entry{ID: p.ID, End: p.E, Start: p.S})
	}
	for _, cr := range st.Crossings {
		if _, ok := paths[cr.ID]; !ok {
			return fmt.Errorf("coordinator: restored crossing references unknown path %d", cr.ID)
		}
	}
	c.paths = paths
	c.grid = grid
	c.hot = hot
	c.stats = st.Stats
	return nil
}
