package motion

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"hotpaths/internal/geom"
)

func TestPathBasics(t *testing.T) {
	p := Path{ID: 7, S: geom.Pt(0, 0), E: geom.Pt(3, 4)}
	if p.Length() != 5 {
		t.Errorf("Length = %v", p.Length())
	}
	if p.Segment() != geom.Seg(geom.Pt(0, 0), geom.Pt(3, 4)) {
		t.Error("Segment mismatch")
	}
	if p.String() == "" {
		t.Error("String empty")
	}
}

func TestHotPathScore(t *testing.T) {
	hp := HotPath{Path: Path{S: geom.Pt(0, 0), E: geom.Pt(10, 0)}, Hotness: 3}
	if hp.Score() != 30 {
		t.Errorf("Score = %v", hp.Score())
	}
}

func TestTopKScore(t *testing.T) {
	if TopKScore(nil) != 0 {
		t.Error("empty set score must be 0")
	}
	set := []HotPath{
		{Path: Path{S: geom.Pt(0, 0), E: geom.Pt(10, 0)}, Hotness: 2}, // 20
		{Path: Path{S: geom.Pt(0, 0), E: geom.Pt(0, 5)}, Hotness: 4},  // 20
		{Path: Path{S: geom.Pt(0, 0), E: geom.Pt(8, 6)}, Hotness: 1},  // 10
	}
	if got := TopKScore(set); math.Abs(got-50.0/3) > 1e-12 {
		t.Errorf("TopKScore = %v", got)
	}
}

func TestPathIDFor(t *testing.T) {
	a := PathIDFor(geom.Pt(1, 2), geom.Pt(3, 4))
	if b := PathIDFor(geom.Pt(1, 2), geom.Pt(3, 4)); b != a {
		t.Errorf("identical geometry hashed to %d and %d", a, b)
	}
	if r := PathIDFor(geom.Pt(3, 4), geom.Pt(1, 2)); r == a {
		t.Error("reversed direction must not share the id")
	}
	if o := PathIDFor(geom.Pt(1, 2), geom.Pt(3, 4.000001)); o == a {
		t.Error("distinct geometry must not share the id")
	}
	// -0 and +0 are the same coordinate under == (the equality the whole
	// pipeline uses), so they must carry the same identity.
	neg := math.Copysign(0, -1)
	if PathIDFor(geom.Pt(neg, 0), geom.Pt(10, neg)) != PathIDFor(geom.Pt(0, 0), geom.Pt(10, 0)) {
		t.Error("-0 and +0 coordinates must hash identically")
	}
	// Coordinate positions must matter: swapping x and y changes the path.
	if PathIDFor(geom.Pt(2, 1), geom.Pt(3, 4)) == a {
		t.Error("swapped coordinates must not share the id")
	}
	// Uniqueness smoke over a realistic grid of snapped vertices.
	seen := make(map[PathID]struct{})
	for x := 0; x < 50; x++ {
		for y := 0; y < 50; y++ {
			id := PathIDFor(geom.Pt(0, 0), geom.Pt(float64(x)*5, float64(y)*5))
			if _, dup := seen[id]; dup {
				t.Fatalf("collision at (%d,%d)", x, y)
			}
			seen[id] = struct{}{}
		}
	}
}

// SortRanked must produce the one order the comparator-per-pair sort it
// replaced produced — ties on hotness and on length included — whatever
// permutation the input arrives in.
func TestSortRankedMatchesComparatorSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 17, 1000} {
		paths := make([]HotPath, n)
		for i, id := range rng.Perm(n) {
			// Few distinct hotness values and lengths, so most comparisons
			// fall through to the next key; distinct ids make the order
			// total.
			s := geom.Pt(float64(rng.Intn(4)), 0)
			e := geom.Pt(float64(rng.Intn(4)), float64(rng.Intn(3)))
			paths[i] = HotPath{Path: Path{ID: PathID(id), S: s, E: e}, Hotness: rng.Intn(3)}
		}
		want := slices.Clone(paths)
		sort.Slice(want, func(i, j int) bool {
			a, b := want[i], want[j]
			if a.Hotness != b.Hotness {
				return a.Hotness > b.Hotness
			}
			if la, lb := a.Path.Length(), b.Path.Length(); la != lb {
				return la > lb
			}
			return a.Path.ID < b.Path.ID
		})
		input := slices.Clone(paths)
		for _, k := range []int{-1, 0, 1, 2, 5, n / 2, n - 1, n, n + 1} {
			want := want[:min(max(k, 0), n)]
			if got := TopRanked(paths, k, (*HotPath).Rank, nil); !slices.Equal(got, want) {
				t.Fatalf("n=%d: TopRanked(%d) is not the sorted order's prefix", n, k)
			}
			if got := TopRanked(paths, k, (*HotPath).Rank, (*HotPath).RankMajor); !slices.Equal(got, want) {
				t.Fatalf("n=%d: TopRanked(%d) turning candidates away on hotness is not the sorted order's prefix", n, k)
			}
		}
		if !slices.Equal(paths, input) {
			t.Fatalf("n=%d: TopRanked modified its input", n)
		}
		SortRanked(paths, (*HotPath).Rank)
		if !slices.Equal(paths, want) {
			t.Fatalf("n=%d: SortRanked and the comparator sort disagree", n)
		}
	}
}
