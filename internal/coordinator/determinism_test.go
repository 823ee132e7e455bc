package coordinator

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hotpaths/internal/geom"
	"hotpaths/internal/hotness"
	"hotpaths/internal/motion"
	"hotpaths/internal/raytrace"
	"hotpaths/internal/trajectory"
)

// encode renders v in Go syntax (%#v, which skips geom.Point's rounded
// String): every float prints in its shortest round-tripping form, -0 as
// "-0", so equal renderings mean equal down to the sign of zero, as
// checkpoints require.
func encode(t *testing.T, v any) []byte {
	t.Helper()
	return fmt.Appendf(nil, "%#v", v)
}

// restoredWithOrder builds a coordinator from st with its paths inserted
// into the grid in the given order, which is the order each grid cell
// then holds them in.
func restoredWithOrder(t *testing.T, cfg Config, st State, order []int) *Coordinator {
	t.Helper()
	shuffled := st
	shuffled.Paths = make([]motion.Path, len(order))
	for i, j := range order {
		shuffled.Paths[i] = st.Paths[j]
	}
	c := mustCoord(t, cfg)
	if err := c.RestoreState(shuffled); err != nil {
		t.Fatal(err)
	}
	return c
}

// Permutation: SinglePath must not depend on the order a grid cell holds
// its entries in, nor on the slot order of the path table. Coordinators
// restored from one state with every cell's entries shuffled, with the
// table shuffled on its own, or both — and the coordinator that was never
// restored — must answer a run of random epochs with the same responses
// and end in the same state, byte for byte. Starts and FSAs straddle the
// axes, where the ε-grid snap produces -0 vertices.
func TestProcessEpochIndependentOfCellOrder(t *testing.T) {
	cfg := Config{Bounds: geom.Rect{Lo: geom.Pt(-200, -200), Hi: geom.Pt(200, 200)}, Cols: 8, Rows: 8, W: 60, Eps: 10}
	rng := rand.New(rand.NewSource(26))
	starts := map[int]geom.Point{}
	now := trajectory.Time(0)
	batch := func() []Report {
		now += 10
		reports := make([]Report, 5+rng.Intn(25))
		for i := range reports {
			obj := rng.Intn(40)
			s, ok := starts[obj]
			if !ok || rng.Intn(2) == 0 {
				// A few shared starts on the ε-grid, so that reports meet
				// several candidate paths and several vertices at once.
				s = geom.Pt(float64(rng.Intn(5)-2)*10, float64(rng.Intn(5)-2)*10)
			}
			ctr := s.Add(geom.Pt(float64(rng.Intn(5)-2)*10+rng.Float64()*4, float64(rng.Intn(5)-2)*10+rng.Float64()*4))
			reports[i] = Report{ObjectID: obj, State: raytrace.State{
				Start: s, Ts: now - 5, FSA: geom.RectAround(ctr, 4+rng.Float64()*6), Te: now,
			}}
		}
		return reports
	}
	step := func(cs []*Coordinator, reports []Report) {
		t.Helper()
		var want []byte
		for k, c := range cs {
			resps, err := c.ProcessEpoch(reports)
			if err != nil {
				t.Fatal(err)
			}
			c.Advance(now)
			got := append(encode(t, resps), encode(t, c.DumpState())...)
			if k == 0 {
				want = got
				for _, r := range resps {
					starts[r.ObjectID] = r.End.P
				}
			} else if !bytes.Equal(got, want) {
				t.Fatalf("epoch at t=%d: coordinator %d (cells in another order) answered differently", now, k)
			}
		}
	}

	live := mustCoord(t, cfg)
	for epoch := 0; epoch < 30; epoch++ {
		step([]*Coordinator{live}, batch())
	}
	st := live.DumpState()
	if len(st.Paths) < 20 {
		t.Fatalf("only %d live paths to permute", len(st.Paths))
	}
	cs := []*Coordinator{live}
	for k := 0; k < 4; k++ {
		c := restoredWithOrder(t, cfg, st, rng.Perm(len(st.Paths)))
		if k%2 == 0 {
			shuffleTable(c, rng.Perm(len(st.Paths)))
		}
		cs = append(cs, c)
	}
	identity := make([]int, len(st.Paths))
	for i := range identity {
		identity[i] = i
	}
	c := restoredWithOrder(t, cfg, st, identity)
	shuffleTable(c, rng.Perm(len(st.Paths)))
	cs = append(cs, c)
	for epoch := 0; epoch < 30; epoch++ {
		step(cs, batch())
	}
	st = cs[0].DumpState()
	negZero := 0
	for _, p := range st.Paths {
		for _, v := range []float64{p.S.X, p.S.Y, p.E.X, p.E.Y} {
			if v == 0 && math.Signbit(v) {
				negZero++
			}
		}
	}
	if negZero == 0 {
		t.Errorf("no -0 coordinate among %d live paths: the test no longer covers signed zeros", len(st.Paths))
	}
}

// Sign of zero: end vertices (0,y) and (-0,y) are one vertex. A Case-2
// selection that adopts it must store +0 whichever of its paths the grid
// yields first — otherwise a recovered coordinator, whose cells hold
// entries in id order, could write "x":-0 where one that never crashed
// wrote "x":0.
func TestCase2VertexSignOfZeroIsCanonical(t *testing.T) {
	negZero := math.Copysign(0, -1)
	a := motion.Path{S: geom.Pt(50, 50), E: geom.Pt(0, 100)}
	b := motion.Path{S: geom.Pt(60, 60), E: geom.Pt(negZero, 100)}
	a.ID, b.ID = motion.PathIDFor(a.S, a.E), motion.PathIDFor(b.S, b.E)
	st := State{
		Paths:     []motion.Path{a, b},
		Crossings: []hotness.Crossing{{Expiry: 200, ID: a.ID}, {Expiry: 200, ID: b.ID}},
	}
	report := report(7, geom.Pt(300, 300), geom.RectAround(geom.Pt(0, 100), 3), 90, 100)

	var want []byte
	for _, order := range [][]int{{0, 1}, {1, 0}} {
		c := restoredWithOrder(t, testConfig(), st, order)
		resps, err := c.ProcessEpoch([]Report{report})
		if err != nil {
			t.Fatal(err)
		}
		r := resps[0]
		if r.Case != 2 || r.End.P.X != 0 || math.Signbit(r.End.P.X) {
			t.Fatalf("order %v: response %+v, want Case 2 at (+0, 100)", order, r)
		}
		got := append(encode(t, resps), encode(t, c.DumpState())...)
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Errorf("order %v: responses or state differ from order [0 1]", order)
		}
	}
}

// A warm Case-2/3 selection allocates nothing: its candidate vertices
// live in scratch on the coordinator, and the path it picks already
// exists, so nothing is inserted.
func TestSelectVertexAllocatesNothing(t *testing.T) {
	c := mustCoord(t, testConfig())
	rng := rand.New(rand.NewSource(5))
	var reports []Report
	for i := 0; i < 200; i++ {
		s := geom.Pt(100+rng.Float64()*200, 100+rng.Float64()*200)
		reports = append(reports, report(i, s, geom.RectAround(s.Add(geom.Pt(40, 0)), 10), 0, 10))
	}
	if _, err := c.ProcessEpoch(reports); err != nil { // fills the index, and Rall
		t.Fatal(err)
	}
	r := report(1000, geom.Pt(900, 900), geom.RectAround(geom.Pt(200, 200), 10), 0, 10)
	for i := 0; i < 2000; i++ { // warm the scratch and the window's queue
		c.selectVertex(r)
	}
	if allocs := testing.AllocsPerRun(200, func() { c.selectVertex(r) }); allocs != 0 {
		t.Errorf("warm selectVertex allocates %v times per call, want 0", allocs)
	}
}
