package coordinator

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"hotpaths/internal/geom"
	"hotpaths/internal/motion"
	"hotpaths/internal/raytrace"
	"hotpaths/internal/trajectory"
)

// Randomised batch property test: across many epochs of random reports,
// the coordinator must keep its core invariants —
//
//  1. every response endpoint lies inside the reporting FSA and carries the
//     reported te;
//  2. the index holds exactly the paths with positive hotness;
//  3. total live hotness equals crossings minus expirations;
//  4. after quiescence of W, everything expires.
func TestCoordinatorRandomBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	const (
		W   = 60
		eps = 10.0
	)
	c, err := New(Config{
		Bounds: geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(2000, 2000)},
		W:      W,
		Eps:    eps,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Per-object chaining state: the next report must start where the last
	// response ended (mirroring the filter contract).
	type chainState struct {
		s  geom.Point
		ts trajectory.Time
	}
	chains := map[int]chainState{}
	now := trajectory.Time(0)
	totalCrossings := 0

	for epoch := 0; epoch < 60; epoch++ {
		now += 10
		batchSize := 1 + rng.Intn(20)
		var reports []Report
		var fsas []geom.Rect
		for i := 0; i < batchSize; i++ {
			obj := rng.Intn(30)
			ch, ok := chains[obj]
			if !ok {
				ch = chainState{
					s:  geom.Pt(rng.Float64()*1800+100, rng.Float64()*1800+100),
					ts: now - trajectory.Time(1+rng.Intn(9)),
				}
			}
			// FSA somewhere within reach of the start, sized like a
			// realistic sliver-to-square range: at most 2ε wide, as
			// ProcessEpoch requires.
			ctr := ch.s.Add(geom.Pt(rng.Float64()*80-40, rng.Float64()*80-40))
			half := 0.5 + rng.Float64()*(eps-0.5)
			fsa := geom.RectAround(ctr, half)
			reports = append(reports, Report{
				ObjectID: obj,
				State:    raytrace.State{Start: ch.s, Ts: ch.ts, FSA: fsa, Te: now},
			})
			fsas = append(fsas, fsa)
		}
		resps, err := c.ProcessEpoch(reports)
		if err != nil {
			t.Fatal(err)
		}
		if len(resps) != len(reports) {
			t.Fatalf("got %d responses for %d reports", len(resps), len(reports))
		}
		for i, r := range resps {
			if !fsas[i].Contains(r.End.P) {
				t.Fatalf("epoch %d: endpoint %v outside FSA %v", epoch, r.End.P, fsas[i])
			}
			if r.End.T != now {
				t.Fatalf("epoch %d: endpoint timestamp %d want %d", epoch, r.End.T, now)
			}
			if r.Case < 1 || r.Case > 3 {
				t.Fatalf("bad case %d", r.Case)
			}
			totalCrossings++
			chains[reports[i].ObjectID] = chainState{s: r.End.P, ts: now}
		}
		c.Advance(now)

		// Invariant 2+3: index contents match hotness table.
		live := 0
		liveHot := 0
		for _, hp := range c.Snapshot().Unordered() {
			if hp.Hotness <= 0 {
				t.Fatal("stored path with non-positive hotness")
			}
			live++
			liveHot += hp.Hotness
		}
		if live != c.IndexSize() {
			t.Fatalf("snapshot has %d paths vs IndexSize %d", live, c.IndexSize())
		}
		if liveHot > totalCrossings {
			t.Fatalf("live hotness %d exceeds crossings %d", liveHot, totalCrossings)
		}
	}

	// Invariant 4: quiescence drains everything.
	c.Advance(now + W + 1)
	if c.IndexSize() != 0 {
		t.Errorf("index size = %d after full window of quiescence", c.IndexSize())
	}
	st := c.Stats()
	if st.PathsExpired != st.PathsCreated {
		t.Errorf("expired %d != created %d after drain", st.PathsExpired, st.PathsCreated)
	}
	if st.Crossings != totalCrossings {
		t.Errorf("crossings %d want %d", st.Crossings, totalCrossings)
	}
}

// A snapshot's top-k must agree with a brute-force scan of all its paths.
func TestTopKMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	c := mustCoord(t, testConfig())
	for i := 0; i < 200; i++ {
		s := geom.Pt(rng.Float64()*900, rng.Float64()*900)
		fsa := geom.RectAround(s.Add(geom.Pt(50, 0)), 5)
		if _, err := c.ProcessEpoch([]Report{report(i, s, fsa, trajectory.Time(i), trajectory.Time(i+5))}); err != nil {
			t.Fatal(err)
		}
	}
	snap := c.Snapshot()
	all := snap.Unordered()
	top := snap.Hottest(10, 0)
	if len(top) != 10 {
		t.Fatalf("topk = %d", len(top))
	}
	// No path outside the top-k may beat the last one inside.
	worst := top[len(top)-1]
	inTop := make(map[motion.PathID]bool)
	for _, hp := range top {
		inTop[hp.Path.ID] = true
	}
	for _, hp := range all {
		if inTop[hp.Path.ID] {
			continue
		}
		if hp.Hotness > worst.Hotness {
			t.Fatalf("path %d (hotness %d) should be in top-k over %d (hotness %d)",
				hp.Path.ID, hp.Hotness, worst.Path.ID, worst.Hotness)
		}
	}
}

// Snapshot.Region is a range scan over the region index; it must return
// exactly what the linear filter over the canonical order returns, for
// any rectangle: inside the bounds, straddling them, far outside them,
// degenerate, inverted (empty), and with corners no int can hold.
func TestSnapshotRegionMatchesLinearFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bounds := geom.Rect{Lo: geom.Pt(-500, 1000), Hi: geom.Pt(1500, 2000)}
	paths := make([]motion.HotPath, 3000)
	for i := range paths {
		// A tenth of the end vertices lie outside the bounds (the index
		// clamps them into boundary cells), a few exactly on them.
		e := geom.Pt(-800+rng.Float64()*2600, 800+rng.Float64()*1400)
		switch i % 97 {
		case 0:
			e = bounds.Lo
		case 1:
			e = bounds.Hi
		}
		s := geom.Pt(e.X-rng.Float64()*50, e.Y+rng.Float64()*50)
		paths[i] = motion.HotPath{Path: motion.Path{ID: motion.PathIDFor(s, e), S: s, E: e}, Hotness: 1 + rng.Intn(5)}
	}
	motion.SortRanked(paths, (*motion.HotPath).Rank)

	coord := func() float64 {
		switch rng.Intn(12) {
		case 0:
			return math.Inf(1 - 2*rng.Intn(2))
		case 1:
			return (rng.Float64() - 0.5) * 1e300
		}
		return -1200 + rng.Float64()*3600
	}
	// The same paths shuffled: a coordinator snapshot's copy is in no
	// particular order, so its Region orders the matches itself.
	shuffled := slices.Clone(paths)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for _, grid := range [][2]int{{64, 64}, {1, 1}, {7, 3}, {0, 0}} {
		for _, ordered := range []bool{true, false} {
			snap := SnapshotOf(paths, bounds, grid[0], grid[1])
			if !ordered {
				snap = SnapshotOf(shuffled, bounds, grid[0], grid[1])
			}
			for trial := 0; trial < 400; trial++ {
				r := geom.Rect{Lo: geom.Pt(coord(), coord()), Hi: geom.Pt(coord(), coord())}
				switch trial % 4 {
				case 0: // usually inverted in a dimension: empty
				case 1:
					r = geom.RectFromPoints(r.Lo, r.Hi)
				case 2: // a small viewport
					r.Hi = geom.Pt(r.Lo.X+rng.Float64()*120, r.Lo.Y+rng.Float64()*120)
				case 3: // a single point, sometimes an indexed one
					r.Lo = paths[rng.Intn(len(paths))].Path.E
					r.Hi = r.Lo
				}
				var want []motion.HotPath
				for _, hp := range paths {
					if r.Contains(hp.Path.E) {
						want = append(want, hp)
					}
				}
				got := snap.Region(r)
				if len(got) != len(want) {
					t.Fatalf("grid %v ordered %v: Region(%v) returned %d paths, the linear filter %d", grid, ordered, r, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("grid %v ordered %v: Region(%v)[%d] = %v, want %v", grid, ordered, r, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// A snapshot runs at most one full sort. A top-k selects without sorting
// everything; the first query that needs at least half the order sorts it
// all and keeps it, and no later query of any shape sorts again.
func TestSnapshotSortsAtMostOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	bounds := geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(1000, 1000)}
	paths := make([]motion.HotPath, 500)
	for i := range paths {
		s := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		e := geom.Pt(s.X+rng.Float64()*40, s.Y)
		paths[i] = motion.HotPath{Path: motion.Path{ID: motion.PathIDFor(s, e), S: s, E: e}, Hotness: 1 + rng.Intn(6)}
	}
	want := slices.Clone(paths)
	motion.SortRanked(want, (*motion.HotPath).Rank)
	snap := SnapshotOf(slices.Clone(paths), bounds, 8, 8)

	if got := snap.Hottest(3, 0); !slices.Equal(got, want[:3]) {
		t.Fatalf("Hottest(3) = %v, want %v", got, want[:3])
	}
	rankedAll := func() bool { return len(*snap.ranked.Load()) == len(paths) }
	if rankedAll() {
		t.Fatal("a top-3 sorted every path")
	}
	if got := snap.Hottest(250, 0); !slices.Equal(got, want[:250]) {
		t.Fatal("Hottest(250) is not the canonical order's prefix")
	}
	full := snap.ranked.Load()
	if !rankedAll() {
		t.Fatal("a top-250 of 500 sorted every path but did not keep the order")
	}
	if got := snap.Hottest(0, 1); !slices.Equal(got, want) {
		t.Fatal("Hottest(0, 1) is not the canonical order")
	}
	for _, k := range []int{0, 1, 10, 249, 250, 499, 500, 501} {
		for _, min := range []int{0, 3, 7} {
			snap.Hottest(k, min)
		}
		snap.Region(geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(float64(2*k), 1000)})
	}
	if snap.ranked.Load() != full {
		t.Fatal("a later query replaced the full order: a second sort")
	}
	if !slices.Equal(snap.Unordered(), paths) {
		t.Fatal("ordering on demand modified the snapshot's copy")
	}
}
