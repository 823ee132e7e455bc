package hotpaths

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"

	"hotpaths/internal/coordinator"
	"hotpaths/internal/geom"
	"hotpaths/internal/motion"
)

// A snapshot orders its paths on demand. These tests hold every answer to
// what a snapshot sorted in full up front returns: the reference sorts
// every path canonically, then filters the region linearly, cuts at
// MinHotness and K, and orders the rest with sortResults.

// referenceQuery answers q over the snapshot's paths by the full sort.
func referenceQuery(s Snapshot, q Query) []HotPath {
	all := convert(s.snap.Unordered())
	sortResults(all, ByHotness)
	sel := []HotPath{}
	for _, hp := range all {
		if q.hasRegion && !(hp.End.X >= q.region.Min.X && hp.End.X <= q.region.Max.X &&
			hp.End.Y >= q.region.Min.Y && hp.End.Y <= q.region.Max.Y) {
			continue
		}
		if q.minHotness > 0 && hp.Hotness < q.minHotness {
			continue
		}
		sel = append(sel, hp)
	}
	sortResults(sel, q.order)
	if q.k > 0 && q.k < len(sel) {
		sel = sel[:q.k]
	}
	return sel
}

// sameResult compares two results exactly: nil-ness, order, ids,
// hotness and every coordinate by its bits, so a -0 turned into 0 fails.
func sameResult(a, b []HotPath) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	bits := math.Float64bits
	for i := range a {
		x, y := a[i], b[i]
		if x.ID != y.ID || x.Hotness != y.Hotness ||
			bits(x.Start.X) != bits(y.Start.X) || bits(x.Start.Y) != bits(y.Start.Y) ||
			bits(x.End.X) != bits(y.End.X) || bits(x.End.Y) != bits(y.End.Y) {
			return false
		}
	}
	return true
}

// checkQuery runs q on s and compares it with the reference answer over
// ref, a snapshot holding the same paths (often s itself). Matches must
// return the same paths as a set: sorted into the query's order, the
// reference again.
func checkQuery(t testing.TB, s, ref Snapshot, q Query) {
	t.Helper()
	want := referenceQuery(ref, q)
	if got := s.Query(q); !sameResult(got, want) {
		t.Fatalf("%+v:\n got  %v\n want %v", q, got, want)
	}
	set := s.Matches(q)
	sortResults(set, q.order)
	if !sameResult(set, want) {
		t.Fatalf("Matches(%+v), ordered:\n got  %v\n want %v", q, set, want)
	}
}

// splitAcross deals paths over two partitions the way a fleet holds a
// corridor both discovered: every other path whose hotness allows is held
// by both, its hotness split between them; the rest by one.
func splitAcross(paths []motion.HotPath) [2][]HotPath {
	var parts [2][]HotPath
	for i, mp := range paths {
		hp := publicPath(mp)
		if hp.Hotness >= 2 && i%2 == 0 {
			one := hp
			one.Hotness = 1
			parts[0] = append(parts[0], one)
			hp.Hotness--
		}
		parts[i%2] = append(parts[i%2], hp)
	}
	return parts
}

// summed sums the partitions' paths by id into a snapshot with no grid —
// the gateway's merged view.
func summed(parts [2][]HotPath, k int) Snapshot {
	slot := map[uint64]int{}
	var out []HotPath
	for _, part := range parts {
		for _, hp := range part {
			if i, ok := slot[hp.ID]; ok {
				out[i].Hotness += hp.Hotness
				continue
			}
			slot[hp.ID] = len(out)
			out = append(out, hp)
		}
	}
	return SnapshotOf(out, Rect{}, 0, 0, k)
}

// checkShorthands holds TopK, Score, HotPaths and the GeoJSON bytes to the
// reference.
func checkShorthands(t testing.TB, s Snapshot) {
	t.Helper()
	top := referenceQuery(s, Query{}.K(s.k))
	if got := s.TopK(); !sameResult(got, top) {
		t.Fatalf("TopK:\n got  %v\n want %v", got, top)
	}
	var sum float64
	for _, hp := range top {
		sum += hp.Score()
	}
	if want := sum / float64(max(len(top), 1)); s.Score() != want {
		t.Fatalf("Score %v, want %v", s.Score(), want)
	}
	all := referenceQuery(s, Query{})
	if got := s.HotPaths(); !sameResult(got, all) {
		t.Fatalf("HotPaths:\n got  %v\n want %v", got, all)
	}
	var got, want bytes.Buffer
	if err := s.WriteGeoJSON(&got); err != nil {
		t.Fatal(err)
	}
	if err := WriteGeoJSON(&want, all); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("WriteGeoJSON bytes differ from the fully sorted reference")
	}
}

// differentialQueries is every query shape the tests compare: K small,
// either side of n/2 (where a top-k stops selecting and sorts every
// path) and at the edges of n, MinHotness below and above the maximum,
// both orders, no region and regions that are inside, empty, out of
// bounds, a point, and the whole plane.
func differentialQueries(n, maxHotness int, inside Rect) []Query {
	regions := []Rect{
		inside,
		{Min: inside.Max, Max: inside.Min}, // inverted: empty
		{Min: Pt(1e6, 1e6), Max: Pt(2e6, 2e6)},
		{Min: Pt(-1e300, -1e300), Max: Pt(1e300, 1e300)},
		{Min: inside.Min, Max: inside.Min},
	}
	var qs []Query
	for _, k := range []int{0, 1, 2, 10, n/2 - 1, n / 2, n - 1, n, n + 1} {
		for _, min := range []int{0, 2, maxHotness + 1} {
			for _, order := range []SortOrder{ByHotness, ByScore} {
				q := Query{}.K(k).MinHotness(min).SortBy(order)
				qs = append(qs, q)
				for _, r := range regions {
					qs = append(qs, q.Region(r))
				}
			}
		}
	}
	return qs
}

// tieState is a hand-built path set where the tiebreaks decide: three
// hotness values, every path 10 long (so the id orders equals), and end
// vertices at -0 as well as +0.
func tieState() []motion.HotPath {
	var paths []motion.HotPath
	for i := 0; i < 40; i++ {
		row := i / 8
		x, y := float64(i%8)*10-40, float64(row)*10-20
		s, e := geom.Pt(x, y), geom.Pt(x+10, y)
		if row%2 == 1 {
			e = geom.Pt(x, y+10) // rows -10 and 10 go up: row -10 ends at y = 0
		}
		if e.X == 0 && row%4 == 0 {
			e.X = math.Copysign(0, -1)
		}
		if e.Y == 0 && i%2 == 0 {
			e.Y = math.Copysign(0, -1)
		}
		paths = append(paths, motion.HotPath{
			Path:    motion.Path{ID: motion.PathIDFor(s, e), S: s, E: e},
			Hotness: 1 + i%3,
		})
	}
	return paths
}

// unorderedSnapshot wraps a copy of paths as a coordinator would: in no
// particular order, over a 4×3 grid on [-b, b]².
func unorderedSnapshot(paths []motion.HotPath, b float64, k int) Snapshot {
	cp := append([]motion.HotPath(nil), paths...)
	bounds := geom.Rect{Lo: geom.Pt(-b, -b), Hi: geom.Pt(b, b)}
	return Snapshot{snap: coordinator.SnapshotOf(cp, bounds, 4, 3), k: k}
}

func TestSnapshotQueryMatchesSortedReference(t *testing.T) {
	type state struct {
		name   string
		fresh  func() Snapshot
		inside Rect
		ref    func() Snapshot // the same paths another way; nil: fresh
	}
	var states []state
	for _, seed := range []int64{1, 7} {
		sys, err := New(engineTestConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range IngestWorkload(48, 120, seed) {
			for _, o := range batch {
				if err := sys.Observe(o.ObjectID, o.X, o.Y, o.T); err != nil {
					t.Fatal(err)
				}
			}
			if err := sys.Tick(batch[0].T); err != nil {
				t.Fatal(err)
			}
		}
		states = append(states, state{fmt.Sprintf("ingest seed %d", seed), sys.Snapshot,
			Rect{Min: Pt(-300, -300), Max: Pt(400, 400)}, nil})
	}
	ties := tieState()
	tieSnapshot := func() Snapshot { return unorderedSnapshot(ties, 50, 7) }
	states = append(states, state{"ties and -0", tieSnapshot, Rect{Min: Pt(-25, -25), Max: Pt(0, 0)}, nil})
	// The gateway's shape: no grid, ids summed across partitions. The sums
	// restore the tie state's hotness, so its reference is the tie state's.
	states = append(states, state{"no grid, summed across partitions",
		func() Snapshot { return summed(splitAcross(ties), 7) }, Rect{Min: Pt(-25, -25), Max: Pt(0, 0)}, tieSnapshot})

	for _, st := range states {
		t.Run(st.name, func(t *testing.T) {
			shared := st.fresh()
			ref := shared
			if st.ref != nil {
				ref = st.ref()
			}
			n, maxHot := shared.Len(), 0
			if n < 20 {
				t.Fatalf("only %d paths", n)
			}
			for _, hp := range shared.snap.Unordered() {
				maxHot = max(maxHot, hp.Hotness)
			}
			qs := differentialQueries(n, maxHot, st.inside)
			// Each query first on a fresh snapshot, then all of them in
			// turn on one snapshot, whose memo grows as they run.
			for _, q := range qs {
				checkQuery(t, st.fresh(), ref, q)
				checkQuery(t, shared, ref, q)
			}
			checkShorthands(t, st.fresh())
			checkShorthands(t, shared)
		})
	}

	// Eight different first queries race on one fresh snapshot, whose
	// memo and grid index they fill concurrently (run under -race).
	t.Run("concurrent first use", func(t *testing.T) {
		snap := states[0].fresh()
		n := snap.Len()
		box := states[0].inside
		qs := []Query{
			Query{}.K(10),
			Query{}.K(n / 2),
			{},
			Query{}.MinHotness(2),
			Query{}.SortBy(ByScore).K(5),
			Query{}.Region(box),
			Query{}.Region(box).SortBy(ByScore).K(3),
			Query{}.K(n - 1).MinHotness(3),
		}
		got := make([][]HotPath, len(qs))
		var wg sync.WaitGroup
		for i, q := range qs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = snap.Query(q)
			}()
		}
		wg.Wait()
		for i, q := range qs {
			if want := referenceQuery(snap, q); !sameResult(got[i], want) {
				t.Errorf("%+v under concurrent first use:\n got  %v\n want %v", q, got[i], want)
			}
		}
	})
}

// FuzzSnapshotQuery decodes bytes into a path set on a small lattice
// (ties in hotness and length, -0 coordinates, end vertices outside the
// grid bounds) and a run of queries, answers them in turn on one snapshot
// — and on the gridless snapshot of the same paths summed across two
// partitions — and holds each to the fully sorted reference.
func FuzzSnapshotQuery(f *testing.F) {
	f.Add([]byte{12, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 0, 0, 0, 0, 3, 1, 1, 9})
	f.Add([]byte{30, 255, 128, 0, 7, 2, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 4, 2, 3, 0, 2, 8, 0, 6, 1})
	f.Add(bytes.Repeat([]byte{0x81, 10, 0x83, 3, 2}, 20))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		// coord maps a byte to -10..10; bit 7 turns a 0 into -0.
		coord := func(b int) float64 {
			v := float64(b%21 - 10)
			if v == 0 && b&0x80 != 0 {
				v = math.Copysign(0, -1)
			}
			return v
		}
		var paths []motion.HotPath
		seen := map[motion.PathID]bool{}
		for n := next() % 48; n > 0 && len(data) >= 5; n-- {
			s := geom.Pt(coord(next()), coord(next()))
			e := geom.Pt(coord(next()), coord(next()))
			id := motion.PathIDFor(s, e)
			if seen[id] {
				next()
				continue
			}
			seen[id] = true
			paths = append(paths, motion.HotPath{Path: motion.Path{ID: id, S: s, E: e}, Hotness: 1 + next()%5})
		}
		snap := unorderedSnapshot(paths, 8, 3)
		// The same paths as a gateway holds them: dealt over two
		// partitions, summed back by id, with no grid.
		merged := summed(splitAcross(paths), 3)
		n := len(paths)
		for len(data) >= 4 {
			q := Query{}.K(next()%(n+3) - 1).MinHotness(next() % 7)
			flags := next()
			if flags&1 != 0 {
				q = q.SortBy(ByScore)
			}
			lo := Pt(coord(next()), coord(flags>>1))
			switch (flags >> 4) % 5 {
			case 1:
				q = q.Region(Rect{Min: lo, Max: Pt(lo.X+4, lo.Y+6)})
			case 2:
				q = q.Region(Rect{Min: lo, Max: Pt(lo.X-1, lo.Y)}) // empty
			case 3:
				q = q.Region(Rect{Min: Pt(-1e300, -1e300), Max: Pt(1e300, 1e300)})
			case 4:
				q = q.Region(Rect{Min: lo, Max: lo})
			}
			checkQuery(t, snap, snap, q)
			checkQuery(t, merged, snap, q)
		}
		checkShorthands(t, snap)
		checkShorthands(t, merged)
	})
}
