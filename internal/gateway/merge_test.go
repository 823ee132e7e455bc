package gateway

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"hotpaths"
	"hotpaths/internal/httpapi"
)

// readBodies sends each leg as a partition's binary answer and reads it
// back as a gather does; the bodies are closed when the test ends.
func readBodies(t testing.TB, legs [][]hotpaths.HotPath) []httpapi.PathsBody {
	t.Helper()
	bodies := make([]httpapi.PathsBody, len(legs))
	for i, leg := range legs {
		raw := httpapi.AppendPaths(nil, leg)
		b, err := httpapi.ReadPathsBody(bytes.NewReader(raw), int64(len(raw)))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(b.Close)
		bodies[i] = b
	}
	return bodies
}

// mergeLegs merges the bodies as a gather does, in order, and returns the
// union with each leg's refusal (nil where the leg was merged).
func mergeLegs(bodies []httpapi.PathsBody) (*union, []error) {
	n := 0
	for _, b := range bodies {
		n += b.Len()
	}
	u := newUnion(n)
	refused := make([]error, len(bodies))
	for i, b := range bodies {
		refused[i] = u.addBody(b)
	}
	return u, refused
}

// mergeBodies is the gateway's merge of legs that must all be accepted,
// as a snapshot with k as its TopK cap.
func mergeBodies(t testing.TB, legs [][]hotpaths.HotPath, k int) hotpaths.Snapshot {
	t.Helper()
	u, refused := mergeLegs(readBodies(t, legs))
	for i, err := range refused {
		if err != nil {
			t.Fatalf("leg %d refused: %v", i, err)
		}
	}
	return u.snapshot(k)
}

// modelMerge is the merge's reference, written the plain way: a Go map
// from id to slot, hotness summed in leg order, the first leg holding a
// path giving its geometry.
func modelMerge(legs [][]hotpaths.HotPath) []hotpaths.HotPath {
	slot := make(map[uint64]int)
	var out []hotpaths.HotPath
	for _, leg := range legs {
		for _, hp := range leg {
			if i, ok := slot[hp.ID]; ok {
				out[i].Hotness += hp.Hotness
				continue
			}
			slot[hp.ID] = len(out)
			out = append(out, hp)
		}
	}
	return out
}

// diffPaths reports how got differs from want as sets, every coordinate
// compared bit for bit; "" when they agree.
func diffPaths(got, want []hotpaths.HotPath) string {
	byID := func(a, b hotpaths.HotPath) int { return cmp.Compare(a.ID, b.ID) }
	got, want = slices.Clone(got), slices.Clone(want)
	slices.SortFunc(got, byID)
	slices.SortFunc(want, byID)
	if len(got) != len(want) {
		return fmt.Sprintf("%d paths, want %d", len(got), len(want))
	}
	bits := math.Float64bits
	for i, g := range got {
		w := want[i]
		if g.ID != w.ID || g.Hotness != w.Hotness ||
			bits(g.Start.X) != bits(w.Start.X) || bits(g.Start.Y) != bits(w.Start.Y) ||
			bits(g.End.X) != bits(w.End.X) || bits(g.End.Y) != bits(w.End.Y) {
			return fmt.Sprintf("path %+v, want %+v", g, w)
		}
	}
	return ""
}

// checkTable holds the union's table to the paths it indexes: exactly
// one occupied slot per path, each where a probe for its id stops, and
// no probe longer than maxProbe slots.
func checkTable(t *testing.T, u *union, maxProbe int) {
	t.Helper()
	occupied := 0
	for _, s := range u.slots {
		if s != 0 {
			occupied++
		}
	}
	if occupied != len(u.paths) {
		t.Errorf("%d slots occupied for %d paths", occupied, len(u.paths))
	}
	mask := len(u.slots) - 1
	for i, hp := range u.paths {
		pos := u.find(hp.ID)
		if s := u.slots[pos]; int(s) != i+1 {
			t.Fatalf("id %d at index %d, indexed as %d", hp.ID, i+1, s)
		}
		if probe := (pos - int(hp.ID*mixer>>u.shift)) & mask; probe > maxProbe {
			t.Fatalf("id %d probes %d slots, more than %d", hp.ID, probe, maxProbe)
		}
	}
}

// at is a path whose geometry records where it came from.
func at(id uint64, hotness int, from float64) hotpaths.HotPath {
	return hotpaths.HotPath{ID: id, Hotness: hotness, Start: hotpaths.Pt(from, -from), End: hotpaths.Pt(from+1, float64(id%97))}
}

// twoLegs is two partitions' answers of n paths each, in random order,
// a share of them (shared of every 100) held by both.
func twoLegs(n, shared int) [][]hotpaths.HotPath {
	rng := rand.New(rand.NewPCG(uint64(n), uint64(shared)))
	legs := [][]hotpaths.HotPath{make([]hotpaths.HotPath, n), make([]hotpaths.HotPath, n)}
	for i := range n {
		legs[0][i] = at(rng.Uint64(), 1+rng.IntN(9), float64(i))
		legs[1][i] = at(rng.Uint64(), 1+rng.IntN(9), float64(n+i))
		if i%100 < shared {
			legs[1][i].ID = legs[0][i].ID
		}
	}
	rng.Shuffle(n, func(a, b int) { legs[1][a], legs[1][b] = legs[1][b], legs[1][a] })
	return legs
}

// TestMergeMatchesMapModel holds the flat-table merge to modelMerge:
// random ids, ids that differ only above their low 40 bits (a table
// indexed by the low bits piles them into one chain, which checkTable's
// probe bound catches), ids held by all of four legs, and a path several
// partitions hold with different geometry, which the lowest of them
// supplies. The multiplier is pinned for the test, so the probe bound
// does not depend on the process's draw.
func TestMergeMatchesMapModel(t *testing.T) {
	defer func(m uint64) { mixer = m }(mixer)
	mixer = 0x9e3779b97f4a7c15

	rng := rand.New(rand.NewPCG(7, 11))
	random := make([][]hotpaths.HotPath, 3)
	for i := range random {
		for j := range 300 {
			random[i] = append(random[i], at(rng.Uint64(), 1+rng.IntN(5), float64(j)))
		}
	}
	random[2] = append(random[2], random[0][:60]...)
	random[1] = append(random[1], random[0][100:130]...)

	var lowBits [][]hotpaths.HotPath
	for i := range 2 {
		var leg []hotpaths.HotPath
		for j := range 1500 {
			leg = append(leg, at(0x12_3456_789a|uint64(j+i*1000)<<40, 1+j%4, float64(i)))
		}
		lowBits = append(lowBits, leg)
	}

	four := make([][]hotpaths.HotPath, 4)
	for i := range four {
		for id := range uint64(50) {
			four[i] = append(four[i], at(id*0x9e3779b97f4a7c15, 1+int(id)%3+i, float64(i)))
		}
		four[i] = append(four[i], at(uint64(1000+i), 2, 0))
	}

	firstHolder := [][]hotpaths.HotPath{
		{at(7, 1, 0), at(9, 1, 0)},
		{at(8, 2, 1), at(7, 3, 1)},
		{at(7, 5, 2), at(8, 1, 2)},
	}

	for _, tc := range []struct {
		name string
		legs [][]hotpaths.HotPath
	}{
		{"random ids", random},
		{"ids sharing their low 40 bits", lowBits},
		{"ids held by all of four legs", four},
		{"first holder's geometry", firstHolder},
	} {
		t.Run(tc.name, func(t *testing.T) {
			u, refused := mergeLegs(readBodies(t, tc.legs))
			for i, err := range refused {
				if err != nil {
					t.Fatalf("leg %d refused: %v", i, err)
				}
			}
			if diff := diffPaths(u.paths, modelMerge(tc.legs)); diff != "" {
				t.Error(diff)
			}
			checkTable(t, u, 32)
		})
	}

	// The model itself, on the geometry case: id 7 comes from leg 0 and
	// id 8, which leg 0 lacks, from leg 1.
	want := []hotpaths.HotPath{at(7, 9, 0), at(9, 1, 0), at(8, 3, 1)}
	if diff := diffPaths(modelMerge(firstHolder), want); diff != "" {
		t.Errorf("modelMerge: %s", diff)
	}
}

// TestMergeRefusesLeg: a leg holding a path the merge cannot sum — a
// negative hotness, or one whose sum overflows int — or one the body
// decoder refuses is left out whole, even when some of its paths had
// merged already; the union is then the merge of the other legs.
func TestMergeRefusesLeg(t *testing.T) {
	defer func(m uint64) { mixer = m }(mixer)
	mixer = 0x9e3779b97f4a7c15
	// Random ids collide, so the paths a refused leg added share probe
	// chains that undo must take apart newest first. (Consecutive ids
	// would not: multiply-shift spreads them evenly over the table.)
	rng := rand.New(rand.NewPCG(3, 5))
	var many []hotpaths.HotPath
	for range 200 {
		many = append(many, at(rng.Uint64(), 1, 3))
	}
	for _, tc := range []struct {
		name    string
		legs    [][]hotpaths.HotPath
		refused []int
	}{
		{"negative hotness", [][]hotpaths.HotPath{
			{at(1, 3, 0), at(2, 1, 0)},
			{at(2, 4, 1), at(5, 1, 1), at(6, -1, 1)},
			{at(2, 1, 2), at(5, 2, 2)},
		}, []int{1}},
		{"summed hotness overflows int", [][]hotpaths.HotPath{
			{at(1, math.MaxInt, 0)},
			{at(3, 2, 1), at(1, 1, 1)},
			{at(3, 1, 2)},
		}, []int{1}},
		{"overflow inside one leg", [][]hotpaths.HotPath{
			{at(4, 1, 0)},
			{at(4, 1, 1), at(1, math.MaxInt, 1), at(1, 1, 1)},
		}, []int{1}},
		{"a sum reaching MaxInt", [][]hotpaths.HotPath{
			{at(1, math.MaxInt-1, 0)},
			{at(1, 1, 1)},
		}, nil},
		{"zero hotness", [][]hotpaths.HotPath{
			{at(1, 0, 0)},
			{at(1, 0, 1), at(2, 0, 1)},
		}, nil},
		{"a non-finite coordinate", [][]hotpaths.HotPath{
			{at(1, 1, 0)},
			{at(1, 1, 1), at(2, 1, math.Inf(1))},
			{at(2, 1, 2)},
		}, []int{1}},
		{"a refused leg's new paths are gone", [][]hotpaths.HotPath{
			many[:50],
			append(slices.Clone(many), at(1, -2, 1)),
			many[100:],
		}, []int{1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			u, refused := mergeLegs(readBodies(t, tc.legs))
			var kept [][]hotpaths.HotPath
			for i, err := range refused {
				if want := slices.Contains(tc.refused, i); (err != nil) != want {
					t.Errorf("leg %d: refusal %v, want refused %v", i, err, want)
				}
				if err == nil {
					kept = append(kept, tc.legs[i])
				}
			}
			if diff := diffPaths(u.paths, modelMerge(kept)); diff != "" {
				t.Error(diff)
			}
			checkTable(t, u, len(u.slots))
		})
	}
}

// TestRefusedLegAnswersPartial: a partition whose answer the merge
// refuses fails its leg like an unreachable one — the read answers 206
// naming it, from the partitions that merged, never a wrapped hotness.
func TestRefusedLegAnswersPartial(t *testing.T) {
	for name, legs := range map[string][2][]hotpaths.PathJSON{
		"overflow": {{hp(7, math.MaxInt)}, {hp(7, 1), hp(8, 2)}},
		"negative": {{hp(7, 3)}, {hp(8, 2), hp(9, -1)}},
	} {
		fleet := newFakeFleet(t, 2)
		fleet[0].paths, fleet[1].paths = legs[0], legs[1]
		rec := doReq(t, newTestGateway(t, fleet, -1).Handler(), http.MethodGet, "/topk", nil)
		if rec.Code != http.StatusPartialContent || rec.Header().Get(hotpaths.PartialHeader) != "1" {
			t.Errorf("%s: %d, partial %q, want 206 naming partition 1", name, rec.Code, rec.Header().Get(hotpaths.PartialHeader))
		}
		want := hotpaths.SnapshotOf(httpapi.HotPaths(legs[0]), hotpaths.Rect{}, 0, 0, 10).TopK()
		own := httptest.NewRecorder()
		httpapi.WritePaths(own, httptest.NewRequest(http.MethodGet, "/topk", nil), http.StatusOK, 0, 0, want, false)
		if rec.Body.String() != own.Body.String() {
			t.Errorf("%s: answered\n%s\nwant partition 0's own\n%s", name, rec.Body, own.Body)
		}
	}
}

// TestMergeAllocationsIndependentOfSize: the merge allocates the same
// number of times for 2×100 paths as for 2×10,000 — its table and path
// slice are sized once, up front. The count holds garbage collection
// off: each cycle wakes the runtime's cleanup goroutine for the unique
// package's maps, whose allocations AllocsPerRun would charge to the
// merge that happened to trigger the cycle — the larger one, under -race.
func TestMergeAllocationsIndependentOfSize(t *testing.T) {
	allocs := func(n int) float64 {
		bodies := readBodies(t, twoLegs(n, 5))
		runtime.GC()
		runtime.Gosched()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		return testing.AllocsPerRun(20, func() {
			u, _ := mergeLegs(bodies)
			u.snapshot(10)
		})
	}
	if small, large := allocs(100), allocs(10000); small != large {
		t.Errorf("the merge allocates %v times for 2×100 paths and %v for 2×10,000", small, large)
	}
}

// BenchmarkGatewayMerge measures a cold /topk's work in the gateway once
// its legs are in: two partitions' binary answers of 2,000 paths, 5% of
// ids held by both, decoded into the union and asked for a top 10.
func BenchmarkGatewayMerge(b *testing.B) {
	bodies := readBodies(b, twoLegs(2000, 5))
	top := hotpaths.Query{}.K(10)
	b.ReportAllocs()
	for b.Loop() {
		u, _ := mergeLegs(bodies)
		if got := u.snapshot(10).Query(top); len(got) != 10 {
			b.Fatalf("top 10 holds %d paths", len(got))
		}
	}
}
