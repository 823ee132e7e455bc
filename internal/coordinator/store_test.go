package coordinator

import (
	"bytes"
	"cmp"
	"container/heap"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"hotpaths/internal/geom"
	"hotpaths/internal/hotness"
	"hotpaths/internal/motion"
	"hotpaths/internal/trajectory"
)

// mapStore is the reference path store, the paper's structures taken
// literally: a map of paths, a map of counts and an expiry queue on
// container/heap, which lays its heap out exactly as the window's typed
// heap does (hotness.TestTypedHeapMatchesContainerHeap).
type mapStore struct {
	w       trajectory.Time
	paths   map[motion.PathID]motion.Path
	counts  map[motion.PathID]int
	queue   modelQueue
	stats   Stats
	expired map[motion.PathID]bool // ids that have expired at least once
}

type modelQueue []hotness.Crossing

func (q modelQueue) Len() int           { return len(q) }
func (q modelQueue) Less(i, j int) bool { return q[i].Expiry < q[j].Expiry }
func (q modelQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *modelQueue) Push(x any)        { *q = append(*q, x.(hotness.Crossing)) }
func (q *modelQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// crossNew is selectVertex's store step: reuse the stored path s→e or
// insert it, then record a crossing.
func (m *mapStore) crossNew(s, e geom.Point, te trajectory.Time) motion.PathID {
	id := motion.PathIDFor(s, e)
	if _, ok := m.paths[id]; !ok {
		m.paths[id] = motion.Path{ID: id, S: s, E: e}
		m.stats.PathsCreated++
	}
	m.counts[id]++
	m.stats.Crossings++
	heap.Push(&m.queue, hotness.Crossing{Expiry: te + m.w, ID: id})
	return id
}

// advance returns the ids whose last crossing expired, in expiry order.
func (m *mapStore) advance(now trajectory.Time) []motion.PathID {
	var gone []motion.PathID
	for len(m.queue) > 0 && m.queue[0].Expiry <= now {
		id := heap.Pop(&m.queue).(hotness.Crossing).ID
		if m.counts[id]--; m.counts[id] > 0 {
			continue
		}
		delete(m.counts, id)
		delete(m.paths, id)
		m.expired[id] = true
		m.stats.PathsExpired++
		gone = append(gone, id)
	}
	return gone
}

func (m *mapStore) state() State {
	st := State{Stats: m.stats, Crossings: slices.Clone([]hotness.Crossing(m.queue))}
	for _, p := range m.paths {
		st.Paths = append(st.Paths, p)
	}
	slices.SortFunc(st.Paths, func(a, b motion.Path) int { return cmp.Compare(a.ID, b.ID) })
	return st
}

// shuffleTable permutes c's table slots, keeping every slot mapping
// consistent: a store in another slot order, with the grid untouched.
func shuffleTable(c *Coordinator, perm []int) {
	table := make([]motion.HotPath, len(c.table))
	for i, j := range perm {
		table[i] = c.table[j]
		c.slot[table[i].Path.ID] = int32(i)
	}
	c.table = table
}

// checkStore holds c to the model: hotness of every id in the pool, the
// index size, the snapshot as a set, the slot map against the table, and
// the checkpoint bytes.
func checkStore(t *testing.T, step int, c *Coordinator, m *mapStore, pool []motion.Path) {
	t.Helper()
	for _, p := range pool {
		if got, want := c.Hotness(p.ID), m.counts[p.ID]; got != want {
			t.Fatalf("step %d: Hotness(%d) = %d, model %d", step, p.ID, got, want)
		}
	}
	if c.IndexSize() != len(m.paths) {
		t.Fatalf("step %d: IndexSize %d, model %d", step, c.IndexSize(), len(m.paths))
	}
	if len(c.slot) != len(c.table) {
		t.Fatalf("step %d: %d slots for %d table rows", step, len(c.slot), len(c.table))
	}
	for i, hp := range c.table {
		if c.slot[hp.Path.ID] != int32(i) {
			t.Fatalf("step %d: path %d sits in slot %d, the map says %d", step, hp.Path.ID, i, c.slot[hp.Path.ID])
		}
	}
	got := slices.Clone(c.Snapshot().Unordered())
	slices.SortFunc(got, func(a, b motion.HotPath) int { return cmp.Compare(a.Path.ID, b.Path.ID) })
	want := m.state()
	if len(got) != len(want.Paths) {
		t.Fatalf("step %d: snapshot holds %d paths, model %d", step, len(got), len(want.Paths))
	}
	for i, hp := range got {
		if hp.Path != want.Paths[i] || hp.Hotness != m.counts[hp.Path.ID] {
			t.Fatalf("step %d: snapshot row %v, model %v with hotness %d", step, hp, want.Paths[i], m.counts[want.Paths[i].ID])
		}
	}
	if !bytes.Equal(encode(t, c.DumpState()), encode(t, want)) {
		t.Fatalf("step %d: DumpState bytes differ from the model's state", step)
	}
}

// Differential: the dense table (slice + id → slot map, swap-remove on
// expiry) against the map store it replaced, over random runs of crossings
// of new and stored paths and window advances, with checkpoint round trips
// — into the dumped order and into a shuffled one — in the middle.
// Geometries come from a small pool, so content-addressed ids come back
// after they expired.
func TestPathStoreMatchesMapModel(t *testing.T) {
	const W = 30
	cfg := testConfig()
	cfg.W = W
	rng := rand.New(rand.NewSource(32))
	pool := make([]motion.Path, 48)
	for i := range pool {
		s := geom.Pt(float64(rng.Intn(1000)), float64(rng.Intn(1000)))
		e := geom.Pt(float64(rng.Intn(1000)), float64(rng.Intn(1000)))
		pool[i] = motion.Path{ID: motion.PathIDFor(s, e), S: s, E: e}
	}
	c := mustCoord(t, cfg)
	m := &mapStore{w: W, paths: map[motion.PathID]motion.Path{}, counts: map[motion.PathID]int{}, expired: map[motion.PathID]bool{}}
	var (
		now      trajectory.Time
		removed  = map[string]int{} // slot a lone expiry removed: first, middle, last
		returned int                // insertions of an id that had expired
		restores int
	)
	for step := 0; step < 4000; step++ {
		switch op := rng.Intn(10); {
		case op < 6: // a crossing, of a stored path or a new one
			p := pool[rng.Intn(len(pool))]
			i, found := c.findPath(p.S, p.E)
			if _, live := m.paths[p.ID]; found != live {
				t.Fatalf("step %d: findPath found %v, model stores it: %v", step, found, live)
			}
			if !found {
				if m.expired[p.ID] {
					returned++
				}
				i = c.insertPath(p.S, p.E)
			}
			te := now + trajectory.Time(rng.Intn(8))
			c.cross(i, te)
			m.crossNew(p.S, p.E, te)
		case op < 9:
			now += trajectory.Time(rng.Intn(6))
			before := slices.Clone(c.table)
			gone := m.advance(now)
			c.Advance(now)
			if len(gone) == 1 {
				at := slices.IndexFunc(before, func(hp motion.HotPath) bool { return hp.Path.ID == gone[0] })
				switch at {
				case 0:
					removed["first"]++
				case len(before) - 1:
					removed["last"]++
				default:
					removed["middle"]++
				}
			}
		default: // checkpoint and restore
			st := c.DumpState()
			if rng.Intn(2) == 0 {
				rng.Shuffle(len(st.Paths), func(i, j int) { st.Paths[i], st.Paths[j] = st.Paths[j], st.Paths[i] })
			}
			c = mustCoord(t, cfg)
			if err := c.RestoreState(st); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			restores++
		}
		checkStore(t, step, c, m, pool)
	}
	for _, where := range []string{"first", "middle", "last"} {
		if removed[where] == 0 {
			t.Errorf("no expiry removed the %s slot (%v)", where, removed)
		}
	}
	if returned == 0 || restores == 0 {
		t.Errorf("%d ids came back after expiring and %d restores ran; want both > 0", returned, restores)
	}
	if m.stats.PathsExpired == 0 {
		t.Error("nothing expired")
	}
}

// A snapshot is one copy of the table: the slice and the Snapshot itself.
func TestSnapshotAllocations(t *testing.T) {
	c := mustCoord(t, testConfig())
	for i := 0; i < 300; i++ {
		s := geom.Pt(float64(i), float64(i))
		c.cross(c.insertPath(s, s.Add(geom.Pt(10, 0))), 5)
	}
	if allocs := testing.AllocsPerRun(100, func() { c.Snapshot() }); allocs > 2 {
		t.Errorf("Snapshot allocates %v times, want at most 2", allocs)
	}
}

// A restored path that no crossing references would be indexed and
// counted in IndexSize yet never show in a snapshot and never expire.
// RestoreState refuses it by id, and leaves the coordinator as it was.
func TestRestoreRejectsOrphanPath(t *testing.T) {
	c := mustCoord(t, testConfig())
	c.cross(c.insertPath(geom.Pt(1, 1), geom.Pt(20, 1)), 5)
	before := encode(t, c.DumpState())

	a := motion.Path{S: geom.Pt(50, 50), E: geom.Pt(80, 50)}
	b := motion.Path{S: geom.Pt(60, 60), E: geom.Pt(90, 60)}
	a.ID, b.ID = motion.PathIDFor(a.S, a.E), motion.PathIDFor(b.S, b.E)
	err := c.RestoreState(State{
		Paths:     []motion.Path{a, b},
		Crossings: []hotness.Crossing{{Expiry: 200, ID: a.ID}},
	})
	if err == nil {
		t.Fatal("a path without a crossing was restored")
	}
	//hotpathsvet:ignore errstring the test pins the operator-facing text that names the orphan path
	if !strings.Contains(err.Error(), strconv.FormatUint(uint64(b.ID), 10)) {
		t.Errorf("error %q does not name path %d", err, b.ID)
	}
	if !bytes.Equal(encode(t, c.DumpState()), before) {
		t.Error("a refused restore changed the coordinator")
	}
}

// The table holds one row per id. Inserting an id it already stores —
// SinglePath looks a path up before inserting it, so only a hash
// collision could — keeps the row and its hotness, as the grid keeps one
// entry.
func TestInsertStoredIDKeepsOneRow(t *testing.T) {
	c := mustCoord(t, testConfig())
	s, e := geom.Pt(10, 10), geom.Pt(40, 10)
	i := c.insertPath(s, e)
	c.cross(i, 5)
	if j := c.insertPath(s, e); j != i || c.IndexSize() != 1 || c.Hotness(motion.PathIDFor(s, e)) != 1 {
		t.Fatalf("second insert: slot %d (first %d), %d rows, hotness %d; want one row with hotness 1", j, i, c.IndexSize(), c.Hotness(motion.PathIDFor(s, e)))
	}
	c.Advance(5 + testConfig().W)
	if c.IndexSize() != 0 || c.grid.Len() != 0 {
		t.Errorf("after expiry: %d rows, %d grid entries", c.IndexSize(), c.grid.Len())
	}
}
