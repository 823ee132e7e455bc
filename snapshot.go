package hotpaths

import (
	"context"
	"io"
	"sort"

	"hotpaths/internal/coordinator"
	"hotpaths/internal/geom"
	"hotpaths/internal/motion"
)

// Reader is the read surface every deployment shares: the
// single-goroutine System, the concurrent sharded Engine, and the two
// shells around an Engine — the journaled Durable and the replicated
// Follower. Query tools, network frontends and tests are written once
// against it. Snapshot is the read side proper — an immutable view the
// caller can query freely; Stats and Clock are cheap counters that copy
// no paths.
type Reader interface {
	// Snapshot captures an immutable view of the current hot paths,
	// counters and clock.
	Snapshot() Snapshot
	// Subscribe registers a standing query, re-evaluated at every epoch
	// boundary; the subscription receives one Delta per epoch.
	Subscribe(q Query) (*Subscription, error)
	// Stats returns the lifetime counters.
	Stats() Stats
	// Clock returns the timestamp of the last Tick.
	Clock() int64
	// Config returns the configuration with defaults applied.
	Config() Config
}

// Writer is the write path of the paper's architecture: measurements in,
// the clock forward. System, Engine and Durable implement it. A Follower
// does not: its state is replicated from a primary's journal, so it is
// read-only by its type.
//
// The concurrency contract stays per-implementation: System must be driven
// from one goroutine; Engine and Durable accept concurrent batches. The
// context carries the caller's trace, on which the Engine-backed
// deployments record their spans.
type Writer interface {
	// ObserveBatchCtx feeds a batch of location measurements. The batch is
	// validated up front, so a rejected batch ingests nothing.
	ObserveBatchCtx(ctx context.Context, batch []Observation) error
	// TickCtx advances the clock to now; epochs fire when it reaches or
	// crosses a multiple of Config.Epoch.
	TickCtx(ctx context.Context, now int64) error
}

var (
	_ Reader = (*System)(nil)
	_ Reader = (*Engine)(nil)
	_ Reader = (*Durable)(nil)
	_ Reader = (*Follower)(nil)
	_ Writer = (*System)(nil)
	_ Writer = (*Engine)(nil)
	_ Writer = (*Durable)(nil)
)

// SortOrder selects how a Query orders its results.
type SortOrder int

const (
	// ByHotness orders hottest first (ties: longer path, then smaller id).
	// This is the canonical order of TopK and HotPaths.
	ByHotness SortOrder = iota
	// ByScore orders by the paper's quality metric hotness×length,
	// highest first (ties: hotter, then smaller id).
	ByScore
)

// Query is a composable selection over a Snapshot. The zero value selects
// every path in canonical (hottest-first) order; the builder methods
// narrow and shape it:
//
//	snap.Query(hotpaths.Query{}.
//		Region(viewport). // only paths ending inside the viewport
//		MinHotness(3).    // at least 3 crossings in the window
//		SortBy(hotpaths.ByScore).
//		K(20))            // top 20 of what remains
//
// Each method returns a modified copy, so queries can be built up and
// reused across snapshots.
type Query struct {
	region     Rect
	hasRegion  bool
	minHotness int
	k          int
	order      SortOrder
}

// Region restricts the query to paths whose end vertex lies inside r
// (inclusive). It is answered by a range scan over the snapshot's grid
// index, not a linear filter — unless the snapshot has none (see
// SnapshotOf).
func (q Query) Region(r Rect) Query {
	q.region, q.hasRegion = r, true
	return q
}

// MinHotness restricts the query to paths with hotness ≥ n.
func (q Query) MinHotness(n int) Query {
	q.minHotness = n
	return q
}

// K caps the result at the n best paths under the query's sort order.
// n ≤ 0 (the default) returns all matches.
func (q Query) K(n int) Query {
	q.k = n
	return q
}

// SortBy sets the result order.
func (q Query) SortBy(o SortOrder) Query {
	q.order = o
	return q
}

// Snapshot is an immutable view of a deployment's discovered hot
// paths at one instant: the paths with their hotness, the clock, and the
// lifetime counters, all captured at a single consistent point. It is safe
// to share across goroutines and to query repeatedly while ingestion
// continues on the live deployment; two reads from the same Snapshot always
// agree, which two successive live accessor calls (which may straddle an
// epoch) do not guarantee.
//
// Taking a snapshot is an O(paths) copy that sorts nothing. Ordering
// happens on demand and is memoized in the snapshot: a top-k costs a
// bounded selection, O(paths + k log k); only a query for every path in
// order (HotPaths, WriteGeoJSON, an uncapped ByHotness Query) sorts them
// all, once per snapshot; a Region query orders only its matches, from a
// grid index built lazily on first use.
type Snapshot struct {
	snap  *coordinator.Snapshot
	clock int64
	stats Stats
	k     int
}

// Snapshot captures an immutable view of the system's current hot paths,
// counters and clock.
func (s *System) Snapshot() Snapshot {
	return Snapshot{snap: s.in.Snapshot(), clock: s.Clock(), stats: s.Stats(), k: s.cfg.K}
}

// Snapshot captures an immutable view of the engine's hot paths, counters
// and clock, all read at one consistent point under the engine read lock.
// It is safe to call concurrently with ingestion; the view reflects the
// last processed epoch. The path copy is made once per tick: every call
// until the next tick shares it, and what it has ordered, while the clock
// and counters are read fresh.
func (e *Engine) Snapshot() Snapshot {
	snap, now, st := e.eng.Snapshot()
	return Snapshot{snap: snap, clock: int64(now), stats: Stats(st), k: e.cfg.K}
}

// Clock returns the timestamp of the last Tick before the snapshot was
// taken.
func (s Snapshot) Clock() int64 { return s.clock }

// Epoch returns the number of epochs the source had processed when the
// snapshot was taken. It is the sequence number subscription deltas carry,
// so a consumer can line a snapshot up against a delta stream.
func (s Snapshot) Epoch() int64 {
	if s.snap == nil {
		return 0
	}
	return int64(s.snap.Epoch)
}

// Stats returns the counters at the snapshot instant.
func (s Snapshot) Stats() Stats { return s.stats }

// Len returns the number of live paths in the snapshot.
func (s Snapshot) Len() int {
	if s.snap == nil {
		return 0
	}
	return s.snap.Len()
}

// SnapshotOf assembles a Snapshot from a path set with distinct ids, in
// any order, as a coordinator's copy comes: k is its TopK cap and
// cols×rows cells over bounds are the grid behind Region — zero bounds
// keep no grid, and Region is a linear filter. Its clock and epoch are
// zero. A gateway holds its merged fleet view this way, so the view
// orders itself on demand like any snapshot; benchmarks assemble
// synthetic snapshots of any size with it.
func SnapshotOf(paths []HotPath, bounds Rect, cols, rows, k int) Snapshot {
	mp := make([]motion.HotPath, len(paths))
	for i, hp := range paths {
		mp[i] = motion.HotPath{
			Path: motion.Path{
				ID: motion.PathID(hp.ID),
				S:  geom.Pt(hp.Start.X, hp.Start.Y),
				E:  geom.Pt(hp.End.X, hp.End.Y),
			},
			Hotness: hp.Hotness,
		}
	}
	gb := geom.Rect{Lo: geom.Pt(bounds.Min.X, bounds.Min.Y), Hi: geom.Pt(bounds.Max.X, bounds.Max.Y)}
	return Snapshot{snap: coordinator.SnapshotOf(mp, gb, cols, rows), k: k}
}

// Order returns the query's sort order.
func (q Query) Order() SortOrder { return q.order }

// rect is the query's Region in the coordinator's geometry.
func (q Query) rect() geom.Rect {
	return geom.Rect{Lo: geom.Pt(q.region.Min.X, q.region.Min.Y), Hi: geom.Pt(q.region.Max.X, q.region.Max.Y)}
}

// prefix returns how many leading paths of an n-long selection in
// canonical order survive MinHotness and — under ByHotness, where the k
// best are a prefix too — K, so both cuts happen before any copy.
func (q Query) prefix(n int, hotness func(i int) int) int {
	if q.minHotness > 0 {
		// Canonical order is hotness descending: the matches are a prefix.
		n = sort.Search(n, func(i int) bool { return hotness(i) < q.minHotness })
	}
	if q.order == ByHotness && q.k > 0 && q.k < n {
		n = q.k
	}
	return n
}

// shape finishes a materialised selection for the orders prefix could not
// cut: the K best by a bounded selection, or every match sorted.
func (q Query) shape(out []HotPath) []HotPath {
	switch {
	case q.order == ByHotness:
		return out
	case q.k > 0 && q.k < len(out):
		return motion.TopRanked(out, q.k, resultKey(q.order), nil)
	}
	sortResults(out, q.order)
	return out
}

// Query runs a selection over the snapshot and returns the matching paths
// in the query's order. The result is a fresh slice owned by the caller.
//
// The snapshot orders only what the query needs: a ByHotness answer is a
// prefix of the canonical order, which the snapshot selects (K) or sorts
// (no K) once and memoizes for every later query; a Region query orders
// only its matches; a ByScore query selects or sorts the MinHotness
// matches by score.
func (s Snapshot) Query(q Query) []HotPath {
	switch {
	case s.snap == nil:
		return nil
	case q.hasRegion:
		sel := s.snap.Region(q.rect())
		sel = sel[:q.prefix(len(sel), func(i int) int { return sel[i].Hotness })]
		return q.shape(convert(sel))
	case q.order == ByHotness:
		return convert(s.snap.Hottest(q.k, q.minHotness))
	}
	return q.shape(s.matches(q))
}

// Matches returns the paths Query(q) returns, in no particular order. The
// result is a fresh slice owned by the caller. Without a K it does no
// ordering work: every path, or a Region's range scan, filtered by
// MinHotness — what a reader that re-orders the answer anyway (a gateway
// summing partitions) should ask for.
func (s Snapshot) Matches(q Query) []HotPath {
	if q.k > 0 {
		return s.Query(q) // the K best are a set only once ranked
	}
	return s.matches(q)
}

// matches returns every path the query's Region and MinHotness select,
// unordered; K and the sort order play no part.
func (s Snapshot) matches(q Query) []HotPath {
	if s.snap == nil {
		return nil
	}
	all := s.snap.Unordered()
	if q.hasRegion {
		all = s.snap.RegionUnordered(q.rect())
	}
	sel := make([]HotPath, 0, len(all))
	for _, hp := range all {
		if q.minHotness <= 0 || hp.Hotness >= q.minHotness {
			sel = append(sel, publicPath(hp))
		}
	}
	return sel
}

// TopK returns the Config.K hottest paths, hottest first.
func (s Snapshot) TopK() []HotPath { return s.Query(Query{}.K(s.k)) }

// HotPaths returns every path in the snapshot, hottest first.
func (s Snapshot) HotPaths() []HotPath { return s.Query(Query{}) }

// Score returns the paper's quality metric over the snapshot's top-k set:
// the average hotness×length.
func (s Snapshot) Score() float64 {
	if s.snap == nil {
		return 0
	}
	return motion.TopKScore(s.snap.Hottest(s.k, 0))
}

// WriteGeoJSON writes the snapshot's paths as a GeoJSON FeatureCollection,
// hottest first, with id/rank/hotness/length/score properties.
func (s Snapshot) WriteGeoJSON(w io.Writer) error {
	return WriteGeoJSON(w, s.HotPaths())
}
