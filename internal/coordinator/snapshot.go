package coordinator

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"hotpaths/internal/geom"
	"hotpaths/internal/gridindex"
	"hotpaths/internal/motion"
)

// Snapshot is an immutable copy of the coordinator's path store at one
// instant: every live path with its hotness, in no particular order.
// Taking one copies the store's dense table — one allocation and one
// memmove — and sorts nothing. The snapshot orders itself on
// demand and memoizes what it ordered: a top-k is a bounded selection,
// O(paths + k log k), and its canonical prefix (hottest first, ties broken
// by length then id — motion.HotPath.Rank) is kept for later queries; only
// a query that needs every path in order sorts them all, once per
// snapshot. The grid index over end vertices that answers Region is
// derived lazily on first use too, so a snapshot that never runs a spatial
// query pays nothing for it.
//
// A Snapshot never changes after extraction and is safe to share across
// goroutines while the live coordinator keeps mutating; its memos are
// filled under its own lock. Counters are not part of it — the caller
// captures whatever stats it needs at the same instant (the public
// hotpaths.Snapshot does exactly that).
type Snapshot struct {
	// Epoch is the coordinator's epoch sequence number (Stats.Epochs) at
	// the instant the snapshot was taken. Subscription deltas carry it as
	// their cursor; synthetic snapshots built with SnapshotOf leave it 0.
	Epoch int

	paths []motion.HotPath // every live path, in no particular order

	bounds     geom.Rect
	cols, rows int

	// ranked is the longest canonical prefix established so far, never
	// modified once stored; mu serialises extending it, so concurrent
	// first queries sort at most once.
	mu     sync.Mutex
	ranked atomic.Pointer[[]motion.HotPath]

	// The region index, built on first use: indexes into paths grouped by
	// the grid cell of their end vertex. Cell c holds
	// cellIdx[cellStart[c]:cellStart[c+1]], ascending. A snapshot never
	// changes, so it needs none of the O(1) insert and delete the live
	// coordinator's per-cell slices and id table (internal/gridindex)
	// exist for: two flat arrays answer the same range scan.
	once         sync.Once
	cellW, cellH float64
	cellStart    []int32
	cellIdx      []int32
}

// Snapshot extracts an immutable copy of the current path store: a copy of
// its table of live (path, hotness) pairs, with no ordering work. The
// caller must hold whatever lock protects the coordinator; the returned
// value needs no further synchronisation.
func (c *Coordinator) Snapshot() *Snapshot {
	s := SnapshotOf(slices.Clone(c.table), c.cfg.Bounds, c.cfg.Cols, c.cfg.Rows)
	s.Epoch = c.stats.Epochs
	return s
}

// SnapshotOf builds a snapshot directly from a path set with distinct
// ids, in any order, with the grid geometry Region queries should use; the
// snapshot takes ownership of paths. It is how coordinators take
// snapshots, and lets benchmarks, tools and tests assemble synthetic
// snapshots without replaying a workload.
func SnapshotOf(paths []motion.HotPath, bounds geom.Rect, cols, rows int) *Snapshot {
	return &Snapshot{paths: paths, bounds: bounds, cols: cols, rows: rows}
}

// Len returns the number of paths in the snapshot.
func (s *Snapshot) Len() int { return len(s.paths) }

// Unordered returns every path in the snapshot in no particular order.
// The slice is shared: callers must not modify it.
func (s *Snapshot) Unordered() []motion.HotPath { return s.paths }

// Hottest returns, in canonical order, the paths with hotness ≥ minHotness
// (every path when minHotness ≤ 0), at most k of them (k ≤ 0: no cap).
// Canonical order is hotness descending, so the answer is a prefix of it.
// The slice is shared with the snapshot's memo: callers must not modify
// it.
func (s *Snapshot) Hottest(k, minHotness int) []motion.HotPath {
	if k <= 0 || k > len(s.paths) {
		k = len(s.paths)
	}
	top := s.prefix(k)
	if minHotness > 0 {
		top = top[:sort.Search(len(top), func(i int) bool { return top[i].Hotness < minHotness })]
	}
	return top
}

// prefix returns the first k ≤ Len() paths of canonical order, extending
// the memo when it is shorter: by a bounded selection, or — when k is at
// least half the snapshot — by the one full sort, whose whole order is
// kept.
func (s *Snapshot) prefix(k int) []motion.HotPath {
	if k == 0 {
		return nil
	}
	if r := s.ranked.Load(); r != nil && len(*r) >= k {
		return (*r)[:k]
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if r := s.ranked.Load(); r != nil && len(*r) >= k {
		return (*r)[:k]
	}
	n := k
	if 2*k >= len(s.paths) {
		n = len(s.paths) // TopRanked sorts every key anyway: keep them all
	}
	top := motion.TopRanked(s.paths, n, (*motion.HotPath).Rank, (*motion.HotPath).RankMajor)
	s.ranked.Store(&top)
	return top[:k]
}

// buildIndex counting-sorts the paths' indexes by end-vertex cell. The
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
	cells := make([]int32, len(s.paths))
	for i, hp := range s.paths {
		c := s.row(hp.Path.E.Y)*s.cols + s.col(hp.Path.E.X)
		cells[i] = int32(c)
		start[c+1]++
	}
	for c := 1; c < len(start); c++ {
		start[c] += start[c-1]
	}
	// Fill in index order, so every cell's indexes come out ascending; the
	// cursor of cell c ends where cell c+1 starts, and shifting the
	// cursors down one slot restores the starts.
	idx := make([]int32, len(s.paths))
	for i, c := range cells {
		idx[start[c]] = int32(i)
		start[c]++
	}
	copy(start[1:], start)
	start[0] = 0
	s.cellStart, s.cellIdx = start, idx
}

// col maps an x coordinate to its grid column, clamping coordinates
// outside the bounds into the boundary columns as the live index does, so
// no path is ever lost.
func (s *Snapshot) col(x float64) int { return gridindex.ClampCell((x-s.bounds.Lo.X)/s.cellW, s.cols) }

func (s *Snapshot) row(y float64) int { return gridindex.ClampCell((y-s.bounds.Lo.Y)/s.cellH, s.rows) }

// Region returns the snapshot's paths whose end vertex lies inside r
// (inclusive), in canonical order: RegionUnordered's matches, and only
// they, sorted. The result is freshly allocated.
func (s *Snapshot) Region(r geom.Rect) []motion.HotPath {
	out := s.RegionUnordered(r)
	motion.SortRanked(out, (*motion.HotPath).Rank)
	return out
}

// RegionUnordered returns the snapshot's paths whose end vertex lies
// inside r (inclusive), in no particular order. It is answered by a range
// scan over the region index — only the cells overlapping r are visited —
// so small viewports over large snapshots cost far less than a linear
// filter. The result is freshly allocated.
func (s *Snapshot) RegionUnordered(r geom.Rect) []motion.HotPath {
	s.once.Do(s.buildIndex)
	var idx []int32
	if s.cellStart == nil {
		for i, hp := range s.paths {
			if r.Contains(hp.Path.E) {
				idx = append(idx, int32(i))
			}
		}
	} else if !r.Empty() {
		c0, c1 := s.col(r.Lo.X), s.col(r.Hi.X)
		for row, r1 := s.row(r.Lo.Y), s.row(r.Hi.Y); row <= r1; row++ {
			lo, hi := s.cellStart[row*s.cols+c0], s.cellStart[row*s.cols+c1+1]
			for _, i := range s.cellIdx[lo:hi] {
				if r.Contains(s.paths[i].Path.E) {
					idx = append(idx, i)
				}
			}
		}
	}
	out := make([]motion.HotPath, len(idx))
	for i, j := range idx {
		out[i] = s.paths[j]
	}
	return out
}
