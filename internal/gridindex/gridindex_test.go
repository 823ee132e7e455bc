package gridindex

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"hotpaths/internal/geom"
	"hotpaths/internal/motion"
)

func mustGrid(t *testing.T, bounds geom.Rect, cols, rows int) *Grid {
	t.Helper()
	g, err := New(bounds, cols, rows)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewValidation(t *testing.T) {
	good := geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(100, 100)}
	if _, err := New(good, 0, 5); err == nil {
		t.Error("zero cols must error")
	}
	if _, err := New(good, 5, 0); err == nil {
		t.Error("zero rows must error")
	}
	if _, err := New(geom.Rect{Lo: geom.Pt(1, 1), Hi: geom.Pt(0, 0)}, 2, 2); err == nil {
		t.Error("invalid bounds must error")
	}
	if _, err := New(geom.Rect{Lo: geom.Pt(1, 1), Hi: geom.Pt(1, 5)}, 2, 2); err == nil {
		t.Error("zero-width bounds must error")
	}
}

func TestInsertQueryRemove(t *testing.T) {
	g := mustGrid(t, geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(100, 100)}, 10, 10)
	e1 := Entry{ID: 1, End: geom.Pt(5, 5), Start: geom.Pt(0, 0)}
	e2 := Entry{ID: 2, End: geom.Pt(55, 55), Start: geom.Pt(50, 50)}
	g.Insert(e1)
	g.Insert(e2)
	if g.Len() != 2 {
		t.Fatalf("Len = %d", g.Len())
	}
	got := g.QueryAll(geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(10, 10)})
	if len(got) != 1 || got[0].ID != 1 {
		t.Errorf("query = %v", got)
	}
	if !g.Remove(1, geom.Pt(5, 5)) {
		t.Error("Remove should succeed")
	}
	if g.Remove(1, geom.Pt(5, 5)) {
		t.Error("second Remove should fail")
	}
	if g.Remove(99, geom.Pt(55, 55)) {
		t.Error("unknown id Remove should fail")
	}
	if g.Len() != 1 {
		t.Errorf("Len = %d after removal", g.Len())
	}
}

func TestDuplicateInsertDoesNotDoubleCount(t *testing.T) {
	g := mustGrid(t, geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(10, 10)}, 2, 2)
	e := Entry{ID: 1, End: geom.Pt(1, 1), Start: geom.Pt(0, 0)}
	g.Insert(e)
	g.Insert(e)
	if g.Len() != 1 {
		t.Errorf("Len = %d want 1", g.Len())
	}
}

func TestOutOfBoundsClamping(t *testing.T) {
	g := mustGrid(t, geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(100, 100)}, 4, 4)
	// Entries far outside bounds must still be stored and retrievable.
	e := Entry{ID: 9, End: geom.Pt(-50, 250), Start: geom.Pt(0, 0)}
	g.Insert(e)
	got := g.QueryAll(geom.Rect{Lo: geom.Pt(-100, 200), Hi: geom.Pt(0, 300)})
	if len(got) != 1 || got[0].ID != 9 {
		t.Errorf("clamped entry not found: %v", got)
	}
	if !g.Remove(9, geom.Pt(-50, 250)) {
		t.Error("clamped entry not removable")
	}
}

func TestQueryBoundaryInclusive(t *testing.T) {
	g := mustGrid(t, geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(100, 100)}, 10, 10)
	g.Insert(Entry{ID: 1, End: geom.Pt(10, 10), Start: geom.Pt(0, 0)})
	got := g.QueryAll(geom.Rect{Lo: geom.Pt(10, 10), Hi: geom.Pt(20, 20)})
	if len(got) != 1 {
		t.Error("inclusive lower boundary missed")
	}
	got = g.QueryAll(geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(10, 10)})
	if len(got) != 1 {
		t.Error("inclusive upper boundary missed")
	}
}

func TestQueryEarlyStop(t *testing.T) {
	g := mustGrid(t, geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(10, 10)}, 1, 1)
	for i := 0; i < 10; i++ {
		g.Insert(Entry{ID: motion.PathID(i), End: geom.Pt(5, 5), Start: geom.Pt(0, 0)})
	}
	n := 0
	g.Query(geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(10, 10)}, func(Entry) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("early stop visited %d", n)
	}
	if g.QueryAll(geom.Rect{Lo: geom.Pt(6, 6), Hi: geom.Pt(5, 5)}) != nil {
		t.Error("empty query rect must return nothing")
	}
}

// Property: grid query results always equal the brute-force scan, across
// random insert/remove workloads and random query rectangles.
func TestQueryMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	bounds := geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(1000, 1000)}
	g := mustGrid(t, bounds, 16, 16)
	live := make(map[motion.PathID]Entry)
	var nextID motion.PathID

	randPoint := func() geom.Point {
		// 10% of points fall outside bounds to exercise clamping.
		span := 1000.0
		if rng.Float64() < 0.1 {
			return geom.Pt(rng.Float64()*span*2-500, rng.Float64()*span*2-500)
		}
		return geom.Pt(rng.Float64()*span, rng.Float64()*span)
	}

	for step := 0; step < 3000; step++ {
		switch {
		case len(live) == 0 || rng.Float64() < 0.6:
			e := Entry{ID: nextID, End: randPoint(), Start: randPoint()}
			nextID++
			g.Insert(e)
			live[e.ID] = e
		default:
			// Remove a random live entry.
			for id, e := range live {
				if !g.Remove(id, e.End) {
					t.Fatalf("failed to remove live entry %d", id)
				}
				delete(live, id)
				break
			}
		}
		if step%100 != 0 {
			continue
		}
		lo := randPoint()
		q := geom.Rect{Lo: lo, Hi: lo.Add(geom.Pt(rng.Float64()*300, rng.Float64()*300))}
		var want []motion.PathID
		for id, e := range live {
			if q.Contains(e.End) {
				want = append(want, id)
			}
		}
		var got []motion.PathID
		for _, e := range g.QueryAll(q) {
			got = append(got, e.ID)
		}
		sortIDs(want)
		sortIDs(got)
		if !equalIDs(want, got) {
			t.Fatalf("step %d: query %v mismatch: got %v want %v", step, q, got, want)
		}
		if g.Len() != len(live) {
			t.Fatalf("Len %d != live %d", g.Len(), len(live))
		}
	}
}

func sortIDs(ids []motion.PathID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

func equalIDs(a, b []motion.PathID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Differential: the slice-backed grid against a plain map from id to
// entry, under random inserts (fresh ids, and re-inserts that replace an
// entry in place or move it to another cell), removes (of live entries, of
// live ids named with a wrong end vertex, of unknown ids) and queries.
// Query results must agree as sets, every remove must report the same, and
// Len must track the model.
func TestGridMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	g := mustGrid(t, geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(100, 100)}, 8, 8)
	model := map[motion.PathID]Entry{}
	point := func() geom.Point {
		if rng.Intn(10) == 0 { // outside the bounds, clamped into the rim
			return geom.Pt(rng.Float64()*300-100, rng.Float64()*300-100)
		}
		return geom.Pt(float64(rng.Intn(41))*2.5, float64(rng.Intn(41))*2.5) // shared cell borders
	}
	live := func() (motion.PathID, Entry) {
		for id, e := range model {
			return id, e
		}
		return 0, Entry{}
	}
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(10); {
		case op < 4 || len(model) == 0:
			e := Entry{ID: motion.PathID(rng.Intn(400)), End: point(), Start: point()}
			g.Insert(e)
			model[e.ID] = e
		case op < 7:
			id, e := live()
			end := e.End
			if rng.Intn(3) == 0 {
				end = point() // the model: removal succeeds iff the cell matches
			}
			want := g.cellAt(end) == g.cellAt(e.End)
			if got := g.Remove(id, end); got != want {
				t.Fatalf("step %d: Remove(%d, %v) of entry %v = %v, want %v", step, id, end, e, got, want)
			}
			if want {
				delete(model, id)
			}
		case op < 8:
			id := motion.PathID(1000 + rng.Intn(100))
			if g.Remove(id, point()) {
				t.Fatalf("step %d: Remove of unknown id %d succeeded", step, id)
			}
		default:
			q := geom.RectFromPoints(point(), point())
			var got, want []motion.PathID
			for _, e := range g.QueryAll(q) {
				if m, ok := model[e.ID]; !ok || m != e {
					t.Fatalf("step %d: query returned %v, the model holds %v", step, e, m)
				}
				got = append(got, e.ID)
			}
			for id, e := range model {
				if q.Contains(e.End) {
					want = append(want, id)
				}
			}
			sortIDs(got)
			sortIDs(want)
			if !equalIDs(got, want) {
				t.Fatalf("step %d: Query(%v) = %v, want %v", step, q, got, want)
			}
		}
		if g.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, model %d", step, g.Len(), len(model))
		}
	}
	n := 0
	for _, cell := range g.cells {
		for _, e := range cell {
			if model[e.ID] != e {
				t.Errorf("the grid holds %v, the model %v", e, model[e.ID])
			}
			n++
		}
	}
	if n != len(model) {
		t.Errorf("the grid holds %d entries, the model %d", n, len(model))
	}
}

// Coordinates too far out for an int must still clamp to the rim cell on
// their own side: converting 1e300/cellW to int is implementation-defined
// (on amd64 it is MinInt64, which clamped to column 0), so such an entry
// used to be stored in, and the query looked in, the wrong column.
func TestFarCoordinatesClampToTheirSide(t *testing.T) {
	g := mustGrid(t, geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(100, 100)}, 64, 64)
	g.Insert(Entry{ID: 1, End: geom.Pt(99, 50)})
	g.Insert(Entry{ID: 2, End: geom.Pt(1e300, 50)})
	g.Insert(Entry{ID: 3, End: geom.Pt(-1e300, 50)})
	got := g.QueryAll(geom.Rect{Lo: geom.Pt(90, 40), Hi: geom.Pt(1e300, 60)})
	var ids []motion.PathID
	for _, e := range got {
		ids = append(ids, e.ID)
	}
	sortIDs(ids)
	if !equalIDs(ids, []motion.PathID{1, 2}) {
		t.Errorf("QueryAll({90,40}-{1e300,60}) = %v, want ids [1 2]", ids)
	}
	if got := g.QueryAll(geom.Rect{Lo: geom.Pt(-1e300, 0), Hi: geom.Pt(1, 100)}); len(got) != 1 || got[0].ID != 3 {
		t.Errorf("QueryAll({-1e300,0}-{1,100}) = %v, want id 3", got)
	}
	for _, c := range []struct {
		f    float64
		want int
	}{{-1e300, 0}, {-0.5, 0}, {0, 0}, {0.99, 0}, {1, 1}, {63.9, 63}, {64, 63}, {1e300, 63}, {math.Inf(1), 63}, {math.Inf(-1), 0}, {math.NaN(), 0}} {
		if got := ClampCell(c.f, 64); got != c.want {
			t.Errorf("ClampCell(%v, 64) = %d, want %d", c.f, got, c.want)
		}
	}
}
