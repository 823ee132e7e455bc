package coordinator

import (
	"cmp"
	"fmt"
	"slices"

	"hotpaths/internal/gridindex"
	"hotpaths/internal/hotness"
	"hotpaths/internal/motion"
)

// State is the coordinator's complete mutable state, exported for
// checkpointing: the stored paths, the counters and the hotness window's
// pending crossings. Restoring it into a coordinator built with the same
// Config yields bit-identical future behaviour — the grid index is
// derived from the paths, each path's hotness is its number of pending
// crossings, and the crossing list carries the window's heap layout
// verbatim. The table's slot order is not part of it: nothing the
// coordinator answers depends on it.
type State struct {
	Paths     []motion.Path // sorted by id, for a canonical encoding
	Stats     Stats
	Crossings []hotness.Crossing // the window's pending events, heap order
}

// DumpState captures the coordinator's state for checkpointing.
func (c *Coordinator) DumpState() State {
	paths := make([]motion.Path, len(c.table))
	for i, hp := range c.table {
		paths[i] = hp.Path
	}
	slices.SortFunc(paths, func(a, b motion.Path) int { return cmp.Compare(a.ID, b.ID) })
	return State{
		Paths:     paths,
		Stats:     c.stats,
		Crossings: c.hot.Dump(),
	}
}

// RestoreState replaces the coordinator's state with a dumped one. The
// coordinator must have been built with the same Config as the dumping
// one; the grid index is rebuilt from the dumped paths, and the table
// holds them in the dumped order. A state whose crossings and paths do not
// match one to one is refused: a crossing of an unknown path, and a path
// with no crossing, which would never expire.
func (c *Coordinator) RestoreState(st State) error {
	hot, err := hotness.Restore(c.cfg.W, st.Crossings)
	if err != nil {
		return fmt.Errorf("coordinator: restore hotness window: %w", err)
	}
	grid, err := gridindex.New(c.cfg.Bounds, c.cfg.Cols, c.cfg.Rows)
	if err != nil {
		return fmt.Errorf("coordinator: restore grid: %w", err)
	}
	table := make([]motion.HotPath, len(st.Paths))
	slot := make(map[motion.PathID]int32, len(st.Paths))
	for i, p := range st.Paths {
		if _, dup := slot[p.ID]; dup {
			return fmt.Errorf("coordinator: restored path id %d is duplicated", p.ID)
		}
		slot[p.ID] = int32(i)
		table[i].Path = p
		grid.Insert(gridindex.Entry{ID: p.ID, End: p.E, Start: p.S})
	}
	for _, cr := range st.Crossings {
		i, ok := slot[cr.ID]
		if !ok {
			return fmt.Errorf("coordinator: restored crossing references unknown path %d", cr.ID)
		}
		table[i].Hotness++
	}
	for _, hp := range table {
		if hp.Hotness == 0 {
			return fmt.Errorf("coordinator: restored path %d has no crossing in the window", hp.Path.ID)
		}
	}
	c.table = table
	c.slot = slot
	c.grid = grid
	c.hot = hot
	c.stats = st.Stats
	return nil
}
