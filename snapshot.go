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
// index, not a linear filter.
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
// Taking a snapshot is O(paths); the grid index behind Region queries is
// built lazily on first use.
type Snapshot struct {
	snap  *coordinator.Snapshot
	clock int64
	stats Stats
	k     int
}

// Snapshot captures an immutable view of the system's current hot paths,
// counters and clock.
func (s *System) Snapshot() Snapshot {
	return Snapshot{snap: s.coord.Snapshot(), clock: s.lastNow, stats: s.Stats(), k: s.cfg.K}
}

// Snapshot captures an immutable view of the engine's hot paths, counters
// and clock, all read at one consistent point under the engine lock. It is
// safe to call concurrently with ingestion; the view reflects the last
// processed epoch.
func (e *Engine) Snapshot() Snapshot {
	snap, now, st := e.eng.Snapshot()
	return Snapshot{
		snap:  snap,
		clock: int64(now),
		stats: convertStats(st),
		k:     e.cfg.K,
	}
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
	return len(s.snap.Paths)
}

// Order returns the query's sort order.
func (q Query) Order() SortOrder { return q.order }

// Select runs the query over paths, which must be in canonical (ByHotness)
// order and is not modified, and returns what Snapshot.Query would return
// for a snapshot holding exactly those paths. It is exported for readers
// that hold a merged path set instead of a Snapshot (the gateway's
// scatter-gather view); the region step is a linear filter here, the
// rest is shared with Snapshot.Query.
func (q Query) Select(paths []HotPath) []HotPath {
	sel := paths
	if q.hasRegion {
		sel = make([]HotPath, 0, len(paths))
		for _, hp := range paths {
			if hp.End.X >= q.region.Min.X && hp.End.X <= q.region.Max.X &&
				hp.End.Y >= q.region.Min.Y && hp.End.Y <= q.region.Max.Y {
				sel = append(sel, hp)
			}
		}
	}
	sel = sel[:q.prefix(len(sel), func(i int) int { return sel[i].Hotness })]
	return q.shape(append(make([]HotPath, 0, len(sel)), sel...))
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

// shape finishes a materialised selection: re-sort and cut to K for the
// orders prefix could not cut.
func (q Query) shape(out []HotPath) []HotPath {
	if q.order == ByHotness {
		return out
	}
	sortResults(out, q.order)
	if q.k > 0 && q.k < len(out) {
		out = out[:q.k]
	}
	return out
}

// Query runs a selection over the snapshot and returns the matching paths
// in the query's order. The result is a fresh slice owned by the caller.
func (s Snapshot) Query(q Query) []HotPath {
	if s.snap == nil {
		return nil
	}
	sel := s.snap.Paths
	if q.hasRegion {
		sel = s.snap.Region(geom.Rect{
			Lo: geom.Pt(q.region.Min.X, q.region.Min.Y),
			Hi: geom.Pt(q.region.Max.X, q.region.Max.Y),
		})
	}
	sel = sel[:q.prefix(len(sel), func(i int) int { return sel[i].Hotness })]
	return q.shape(convert(sel))
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
	top := s.snap.Paths
	if s.k > 0 && s.k < len(top) {
		top = top[:s.k]
	}
	return motion.TopKScore(top)
}

// WriteGeoJSON writes the snapshot's paths as a GeoJSON FeatureCollection,
// hottest first, with id/rank/hotness/length/score properties.
func (s Snapshot) WriteGeoJSON(w io.Writer) error {
	return WriteGeoJSON(w, s.HotPaths())
}
