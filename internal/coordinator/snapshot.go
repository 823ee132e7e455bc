package coordinator

import (
	"slices"
	"sync"

	"hotpaths/internal/geom"
	"hotpaths/internal/gridindex"
	"hotpaths/internal/motion"
)

// Snapshot is an immutable copy of the coordinator's path store at one
// instant: every live path with its hotness, in canonical order (hottest
// first, ties broken by length then id — the TopK order). Taking one is
// O(paths); the grid index over end vertices that answers Region is
// derived lazily from the copied paths on first use, so snapshots that
// never run a spatial query pay nothing for it.
//
// A Snapshot never changes after extraction and is safe to share across
// goroutines while the live coordinator keeps mutating. Counters are not
// part of it — the caller captures whatever stats it needs at the same
// instant (the public hotpaths.Snapshot does exactly that).
type Snapshot struct {
	Paths []motion.HotPath // canonical hottest-first order

	// Epoch is the coordinator's epoch sequence number (Stats.Epochs) at
	// the instant the snapshot was taken. Subscription deltas carry it as
	// their cursor; synthetic snapshots built with SnapshotOf leave it 0.
	Epoch int

	bounds     geom.Rect
	cols, rows int

	// The region index, built on first use: Paths' ranks (indexes into
	// Paths) grouped by the grid cell of their end vertex. Cell c holds
	// cellRanks[cellStart[c]:cellStart[c+1]], ascending. A snapshot never
	// changes, so it needs none of the O(1) insert and delete the live
	// coordinator's per-cell slices and id table (internal/gridindex)
	// exist for: two flat arrays answer the same range scan.
	once         sync.Once
	cellW, cellH float64
	cellStart    []int32
	cellRanks    []int32
}

// Snapshot extracts an immutable copy of the current path store. The
// caller must hold whatever lock protects the coordinator; the returned
// value needs no further synchronisation.
func (c *Coordinator) Snapshot() *Snapshot {
	s := SnapshotOf(c.TopK(0), c.cfg.Bounds, c.cfg.Cols, c.cfg.Rows)
	s.Epoch = c.stats.Epochs
	return s
}

// SnapshotOf builds a snapshot directly from a path set in canonical
// (hottest-first) order, with the grid geometry Region queries should use.
// It is how coordinators take snapshots, and lets benchmarks and tools
// assemble synthetic snapshots without replaying a workload.
func SnapshotOf(paths []motion.HotPath, bounds geom.Rect, cols, rows int) *Snapshot {
	return &Snapshot{
		Paths:  paths,
		bounds: bounds,
		cols:   cols,
		rows:   rows,
	}
}

// buildIndex counting-sorts the paths' ranks by end-vertex cell. The
// bounds and resolution were validated when the live coordinator was
// constructed; a synthetic snapshot without usable ones keeps no index
// and Region falls back to a linear scan.
func (s *Snapshot) buildIndex() {
	if s.cols < 1 || s.rows < 1 || s.bounds.Empty() || s.bounds.Width() == 0 || s.bounds.Height() == 0 {
		return
	}
	s.cellW = s.bounds.Width() / float64(s.cols)
	s.cellH = s.bounds.Height() / float64(s.rows)
	start := make([]int32, s.cols*s.rows+1)
	cells := make([]int32, len(s.Paths))
	for i, hp := range s.Paths {
		c := s.row(hp.Path.E.Y)*s.cols + s.col(hp.Path.E.X)
		cells[i] = int32(c)
		start[c+1]++
	}
	for c := 1; c < len(start); c++ {
		start[c] += start[c-1]
	}
	// Fill in rank order, so every cell's ranks come out ascending; the
	// cursor of cell c ends where cell c+1 starts, and shifting the
	// cursors down one slot restores the starts.
	ranks := make([]int32, len(s.Paths))
	for i, c := range cells {
		ranks[start[c]] = int32(i)
		start[c]++
	}
	copy(start[1:], start)
	start[0] = 0
	s.cellStart, s.cellRanks = start, ranks
}

// col maps an x coordinate to its grid column, clamping coordinates
// outside the bounds into the boundary columns as the live index does, so
// no path is ever lost.
func (s *Snapshot) col(x float64) int { return gridindex.ClampCell((x-s.bounds.Lo.X)/s.cellW, s.cols) }

func (s *Snapshot) row(y float64) int { return gridindex.ClampCell((y-s.bounds.Lo.Y)/s.cellH, s.rows) }

// Region returns the snapshot's paths whose end vertex lies inside r
// (inclusive), in canonical order. It is answered by a range scan over
// the region index — only the cells overlapping r are visited — so small
// viewports over large snapshots cost far less than a linear filter.
func (s *Snapshot) Region(r geom.Rect) []motion.HotPath {
	s.once.Do(s.buildIndex)
	if s.cellStart == nil {
		var out []motion.HotPath
		for _, hp := range s.Paths {
			if r.Contains(hp.Path.E) {
				out = append(out, hp)
			}
		}
		return out
	}
	if r.Empty() {
		return []motion.HotPath{}
	}
	var idx []int32
	c0, c1 := s.col(r.Lo.X), s.col(r.Hi.X)
	for row, r1 := s.row(r.Lo.Y), s.row(r.Hi.Y); row <= r1; row++ {
		lo, hi := s.cellStart[row*s.cols+c0], s.cellStart[row*s.cols+c1+1]
		for _, i := range s.cellRanks[lo:hi] {
			if r.Contains(s.Paths[i].Path.E) {
				idx = append(idx, i)
			}
		}
	}
	// Ranks are positions in canonical order: sorted, they are the
	// result's order.
	slices.Sort(idx)
	out := make([]motion.HotPath, len(idx))
	for i, j := range idx {
		out[i] = s.Paths[j]
	}
	return out
}
