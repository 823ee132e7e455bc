// Package motion defines the shared identity types for discovered motion
// paths, used by the grid index, the hotness window and the coordinator.
package motion

import (
	"fmt"
	"math"
	"slices"

	"hotpaths/internal/geom"
	"hotpaths/internal/trajectory"
)

// PathID identifies a stored motion path. The id is content-addressed —
// derived from the path's geometry by PathIDFor — so the same directed
// segment always carries the same id, in every deployment and across
// expiry/re-discovery. That is what lets independently running partitions
// mint identical ids for identical corridors, and a merging reader sum
// their hotness by id alone.
type PathID uint64

// PathIDFor derives the identity of the directed path s→e from its
// geometry: a 64-bit mix of the exact float bit patterns of the four
// coordinates. The mapping is deterministic, direction-sensitive (s→e and
// e→s differ) and spread uniformly, so ids double as hash keys. Collisions
// between distinct live geometries are possible in principle but need
// ~2³² simultaneously stored paths to become likely; real indexes hold
// orders of magnitude fewer.
func PathIDFor(s, e geom.Point) PathID {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range [4]uint64{
		coordBits(s.X), coordBits(s.Y),
		coordBits(e.X), coordBits(e.Y),
	} {
		h ^= v
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		h *= 0xc4ceb9fe1a85ec53
		h ^= h >> 33
	}
	return PathID(h)
}

// coordBits is Float64bits with the sign of zero erased: point equality
// throughout the pipeline is plain ==, under which -0 and +0 are the same
// coordinate (and the ε-grid snap readily produces -0), so the identity
// hash must not tell them apart either.
func coordBits(f float64) uint64 {
	if f == 0 {
		f = 0 // drops a negative sign: -0 == 0, but their bits differ
	}
	return math.Float64bits(f)
}

// Path is the stored geometry of a discovered motion path: the directed
// segment S→E. Crossing intervals are tracked separately by the hotness
// window, since one path is crossed by many objects at different times.
type Path struct {
	ID PathID
	S  geom.Point
	E  geom.Point
}

// Segment returns the path's spatial segment.
func (p Path) Segment() geom.Segment { return geom.Seg(p.S, p.E) }

// Length returns the Euclidean length of the path.
func (p Path) Length() float64 { return p.S.Dist(p.E) }

func (p Path) String() string {
	return fmt.Sprintf("path#%d %v->%v", p.ID, p.S, p.E)
}

// Crossing records that some object crossed a path during [Ts,Te].
type Crossing struct {
	Path   PathID
	Ts, Te trajectory.Time
}

// HotPath pairs a stored path with its current hotness; it is the unit of
// top-k reporting.
type HotPath struct {
	Path    Path
	Hotness int
}

// Score is the paper's quality metric for a single path:
// hotness × length. The outer conversion rounds the product, so a sum of
// scores (TopKScore) is not fused into multiply-adds on any architecture.
func (hp HotPath) Score() float64 {
	return float64(float64(hp.Hotness) * hp.Path.Length())
}

// TopKScore is the paper's quality metric for a top-k set: the average
// score of its members. It returns 0 for an empty set.
func TopKScore(set []HotPath) float64 {
	if len(set) == 0 {
		return 0
	}
	var sum float64
	for _, hp := range set {
		sum += hp.Score()
	}
	return sum / float64(len(set))
}

// RankKey is what the result orders compare: Major then Minor, each
// descending, then ID ascending. The canonical hottest-first order is
// (hotness, length, id); the score order is (score, hotness, id). Ending
// in the id makes every order total, so a set of paths has exactly one
// sorted form in every deployment.
type RankKey struct {
	Major, Minor float64
	ID           uint64
}

// Rank is the canonical (hottest-first) key of hp: every snapshot answer
// ordered by hotness is in this order.
func (hp HotPath) Rank() RankKey {
	return RankKey{hp.RankMajor(), hp.Path.Length(), uint64(hp.Path.ID)}
}

// RankMajor is Rank's Major alone: the hotness, without the hypot Rank
// takes for the length. TopRanked turns most candidates away on it.
func (hp HotPath) RankMajor() float64 { return float64(hp.Hotness) }

func (a RankKey) compare(b RankKey) int {
	switch {
	case a.Major != b.Major:
		if a.Major > b.Major {
			return -1
		}
		return 1
	case a.Minor != b.Minor:
		if a.Minor > b.Minor {
			return -1
		}
		return 1
	case a.ID != b.ID:
		if a.ID < b.ID {
			return -1
		}
		return 1
	}
	return 0
}

// SortRanked sorts s in place by key. It is the one implementation of
// the result orders — the coordinator, the subscription layer and a
// merging gateway all sort through it — and computes each key (a hypot
// for the length) once per element instead of twice per comparison: the
// sort runs over 32-byte (key, index) records, and s is then permuted
// along its cycles.
func SortRanked[T any](s []T, key func(*T) RankKey) {
	type rec struct {
		RankKey
		from int32 // where the element of this rank sits in s; -1 once placed
	}
	recs := make([]rec, len(s))
	for i := range s {
		recs[i] = rec{key(&s[i]), int32(i)}
	}
	slices.SortFunc(recs, func(a, b rec) int { return a.compare(b.RankKey) })
	for i := range recs {
		if recs[i].from < 0 || int(recs[i].from) == i {
			continue
		}
		first, to := s[i], i
		for from := int(recs[to].from); from != i; from = int(recs[to].from) {
			s[to] = s[from]
			recs[to].from = -1
			to = from
		}
		s[to] = first
		recs[to].from = -1
	}
}

// TopRanked returns the first k elements of s's SortRanked order, in that
// order, as a new slice; s is not modified. For k below half of s it keeps
// the k best keys seen so far in a bounded heap whose root is the worst of
// them, so a candidate that cannot enter costs one key and one comparison:
// O(n + k log k) when few candidates displace the root, O(n log k) at
// worst. A larger k sorts every key once, as SortRanked does. Both result
// orders are total, so the answer is the k-prefix of SortRanked exactly.
//
// major, when not nil, returns key's Major alone at less cost than the
// whole key: the canonical order's hotness, where the key also takes a
// hypot for the length. A candidate whose major part ranks below the
// root's is then turned away without its key, which is the fate of most
// candidates of a large set. The score order passes nil: its Major is
// the score, which costs the hypot itself.
func TopRanked[T any](s []T, k int, key func(*T) RankKey, major func(*T) float64) []T {
	k = min(max(k, 0), len(s))
	type rec struct {
		RankKey
		from int
	}
	if 2*k >= len(s) {
		recs := make([]rec, len(s))
		for i := range s {
			recs[i] = rec{key(&s[i]), i}
		}
		slices.SortFunc(recs, func(a, b rec) int { return a.compare(b.RankKey) })
		out := make([]T, k)
		for i := range out {
			out[i] = s[recs[i].from]
		}
		return out
	}
	// h[0] ranks last; a parent never ranks before its children.
	h := make([]rec, 0, k)
	for i := range s {
		if major != nil && len(h) == k && k > 0 && major(&s[i]) < h[0].Major {
			continue
		}
		r := rec{key(&s[i]), i}
		if len(h) < k {
			h = append(h, r)
			for j := len(h) - 1; j > 0; {
				p := (j - 1) / 2
				if h[p].compare(h[j].RankKey) >= 0 {
					break
				}
				h[p], h[j] = h[j], h[p]
				j = p
			}
			continue
		}
		if k == 0 || r.compare(h[0].RankKey) >= 0 {
			continue
		}
		h[0] = r
		for j := 0; ; {
			c := 2*j + 1
			if c >= k {
				break
			}
			if c+1 < k && h[c+1].compare(h[c].RankKey) > 0 {
				c++
			}
			if h[j].compare(h[c].RankKey) >= 0 {
				break
			}
			h[j], h[c] = h[c], h[j]
			j = c
		}
	}
	slices.SortFunc(h, func(a, b rec) int { return a.compare(b.RankKey) })
	out := make([]T, len(h))
	for i, r := range h {
		out[i] = s[r.from]
	}
	return out
}
