// Package gridindex implements the MotionPath index of the paper
// (Section 5.1): a lightweight uniform grid over the monitored space that
// indexes the END vertices of stored motion paths.
//
// Every cell keeps its entries in a slice, and one table maps each path id
// to its cell and slot. Insertion appends to the cell; deletion moves the
// cell's last entry into the freed slot. Both stay expected O(1), as the
// paper's per-cell hash tables are, and a range query is a contiguous scan
// of the cells it overlaps. Each entry carries the endpoint coordinates,
// the path id and the coordinates of the path's other (start) endpoint, so
// range queries can answer both "paths from s ending in R" (SinglePath
// Case 1) and "end vertices in R" (Case 2) without touching any other
// structure.
package gridindex

import (
	"fmt"

	"hotpaths/internal/geom"
	"hotpaths/internal/motion"
)

// Entry is one indexed endpoint.
type Entry struct {
	ID    motion.PathID
	End   geom.Point // the indexed (end) vertex
	Start geom.Point // the path's other endpoint
}

// Grid is a uniform spatial hash over a bounding rectangle. Points outside
// the bounds are clamped into the boundary cells, so no entry is ever lost.
type Grid struct {
	bounds       geom.Rect
	cols, rows   int
	cellW, cellH float64
	cells        [][]Entry
	where        map[motion.PathID]slot
}

// slot locates an entry: cells[cell][pos].
type slot struct{ cell, pos int32 }

// New creates a grid with cols×rows cells over bounds.
func New(bounds geom.Rect, cols, rows int) (*Grid, error) {
	if cols < 1 || rows < 1 {
		return nil, fmt.Errorf("gridindex: need at least 1x1 cells, got %dx%d", cols, rows)
	}
	if bounds.Empty() || bounds.Width() == 0 || bounds.Height() == 0 {
		return nil, fmt.Errorf("gridindex: bounds %v must have positive area", bounds)
	}
	return &Grid{
		bounds: bounds,
		cols:   cols,
		rows:   rows,
		cellW:  bounds.Width() / float64(cols),
		cellH:  bounds.Height() / float64(rows),
		cells:  make([][]Entry, cols*rows),
		where:  make(map[motion.PathID]slot),
	}, nil
}

// Len returns the number of indexed entries.
func (g *Grid) Len() int { return len(g.where) }

// Bounds returns the grid's covering rectangle.
func (g *Grid) Bounds() geom.Rect { return g.bounds }

// ClampCell truncates f, a coordinate in cell units from the grid's lower
// bound, to a cell number in [0, n). The comparisons run on the float,
// where they are defined for any input: converting an out-of-range float
// to int is not, and a far-away coordinate must still clamp to the
// boundary cell on its own side.
func ClampCell(f float64, n int) int {
	switch {
	case f >= float64(n):
		return n - 1
	case f >= 1:
		return int(f)
	}
	return 0 // below the bounds, or NaN
}

// clampCol maps an x coordinate to a column index, clamping out-of-bounds
// coordinates into the boundary columns.
func (g *Grid) clampCol(x float64) int { return ClampCell((x-g.bounds.Lo.X)/g.cellW, g.cols) }

func (g *Grid) clampRow(y float64) int { return ClampCell((y-g.bounds.Lo.Y)/g.cellH, g.rows) }

func (g *Grid) cellAt(p geom.Point) int {
	return g.clampRow(p.Y)*g.cols + g.clampCol(p.X)
}

// Insert adds an entry. Inserting an id that is already indexed replaces
// its entry; the caller (the coordinator) derives ids from path geometry,
// so this only matters for misuse.
func (g *Grid) Insert(e Entry) {
	i := g.cellAt(e.End)
	if at, ok := g.where[e.ID]; ok {
		if int(at.cell) == i {
			g.cells[i][at.pos] = e
			return
		}
		g.unlink(at)
	}
	g.where[e.ID] = slot{cell: int32(i), pos: int32(len(g.cells[i]))}
	g.cells[i] = append(g.cells[i], e)
}

// Remove deletes the entry for id whose end vertex is at end. It reports
// whether an entry was removed.
func (g *Grid) Remove(id motion.PathID, end geom.Point) bool {
	at, ok := g.where[id]
	if !ok || int(at.cell) != g.cellAt(end) {
		return false
	}
	g.unlink(at)
	delete(g.where, id)
	return true
}

// unlink removes the entry at at from its cell by moving the cell's last
// entry into its slot. The caller updates the removed id's own mapping.
func (g *Grid) unlink(at slot) {
	cell := g.cells[at.cell]
	last := len(cell) - 1
	if int(at.pos) != last {
		cell[at.pos] = cell[last]
		g.where[cell[at.pos].ID] = at
	}
	cell[last] = Entry{}
	g.cells[at.cell] = cell[:last]
}

// Query invokes fn for every entry whose end vertex lies inside r
// (inclusive). Iteration stops early if fn returns false. Within a cell,
// entries come in slot order, which depends on the history of inserts and
// removes; callers must not depend on it.
func (g *Grid) Query(r geom.Rect, fn func(Entry) bool) {
	if r.Empty() {
		return
	}
	c0, c1 := g.clampCol(r.Lo.X), g.clampCol(r.Hi.X)
	r0, r1 := g.clampRow(r.Lo.Y), g.clampRow(r.Hi.Y)
	for row := r0; row <= r1; row++ {
		for _, cell := range g.cells[row*g.cols+c0 : row*g.cols+c1+1] {
			for _, e := range cell {
				if r.Contains(e.End) {
					if !fn(e) {
						return
					}
				}
			}
		}
	}
}

// QueryAll returns all entries with end vertex inside r.
func (g *Grid) QueryAll(r geom.Rect) []Entry {
	var out []Entry
	g.Query(r, func(e Entry) bool {
		out = append(out, e)
		return true
	})
	return out
}
