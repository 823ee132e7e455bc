package raytrace

import (
	"errors"
	"reflect"
	"slices"
	"sort"
	"testing"

	"hotpaths/internal/geom"
	"hotpaths/internal/trajectory"
)

// noiseTol widens the plain ε square by the noise levels, so a filter's
// behaviour depends on the sigmas it was built with.
func noiseTol(sigmaX, sigmaY float64) ToleranceFunc {
	return func(p trajectory.TimePoint) geom.Rect {
		return geom.Rect{
			Lo: geom.Pt(p.P.X-2-sigmaX, p.P.Y-2-sigmaY),
			Hi: geom.Pt(p.P.X+2+sigmaX, p.P.Y+2+sigmaY),
		}
	}
}

func sortedDump(b *Bank) []FilterEntry {
	d := slices.Collect(b.Dump())
	sort.Slice(d, func(i, j int) bool { return d[i].ObjectID < d[j].ObjectID })
	return d
}

func TestBankFirstSightingSeeds(t *testing.T) {
	b := NewBank(noiseTol)
	// However far apart, first sightings only seed.
	for id, p := range []geom.Point{geom.Pt(0, 0), geom.Pt(1e6, -1e6)} {
		st, report, err := b.Observe(id, trajectory.TP(p, 7), 0.5, 0.25)
		if err != nil || report || st != (State{}) {
			t.Fatalf("first sighting of %d: state %v, report %v, err %v", id, st, report, err)
		}
	}
	d := sortedDump(&b)
	if len(d) != 2 || d[0].Filter.Waiting || d[1].Filter.Waiting || d[1].SigmaX != 0.5 || d[1].SigmaY != 0.25 || d[1].Filter.Start != geom.Pt(1e6, -1e6) || d[1].Filter.Ts != 7 {
		t.Errorf("dump after two first sightings: %+v", d)
	}
}

func TestBankObjectError(t *testing.T) {
	b := NewBank(noiseTol)
	for _, p := range []trajectory.TimePoint{tp(0, 0, 5), tp(1, 0, 6)} {
		if _, _, err := b.Observe(1, p, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err := b.Observe(1, tp(2, 0, 6), 0, 0)
	var oe *ObjectError
	if !errors.As(err, &oe) || oe.ObjectID != 1 || oe.Err == nil {
		t.Fatalf("repeated timestamp: error %v, want an *ObjectError for object 1", err)
	}
	// The text reaches clients: hotpathsd echoes a tick's error in its body.
	if got, want := err.Error(), "object 1: raytrace: non-increasing timestamp 6 (last 6)"; got != want {
		t.Errorf("error text %q, want %q", got, want)
	}
	// The refused measurement changed nothing: object 1 goes on, and
	// other objects never noticed.
	if _, _, err := b.Observe(1, tp(2, 0, 7), 0, 0); err != nil {
		t.Errorf("object 1 after its refused measurement: %v", err)
	}
	for _, p := range []trajectory.TimePoint{tp(0, 9, 5), tp(1, 9, 6)} {
		if _, _, err := b.Observe(2, p, 0, 0); err != nil {
			t.Errorf("object 2: %v", err)
		}
	}
	//hotpathsvet:ignore errstring the test pins the text deployments wrap into their epoch errors
	if _, _, err := b.Respond(3, tp(0, 0, 8)); err == nil || err.Error() != "respond to object 3: no filter" {
		t.Errorf("responding to an unknown object: %v", err)
	}
}

// step feeds one measurement and answers a report at once with the FSA
// centroid, the way an epoch would, returning what each call produced.
func step(t *testing.T, b *Bank, id int, p trajectory.TimePoint, sigmaX, sigmaY float64) []State {
	t.Helper()
	st, report, err := b.Observe(id, p, sigmaX, sigmaY)
	if err != nil {
		t.Fatal(err)
	}
	out := []State{st}
	for report {
		if st, report, err = b.Respond(id, trajectory.TP(st.FSA.Centroid(), st.Te)); err != nil {
			t.Fatal(err)
		}
		out = append(out, st)
	}
	return out
}

// zig is object id's zig-zag at timestamp t: a turn every 4 timestamps,
// sharp enough for the plain tolerance to report at each turn.
func zig(id int, t trajectory.Time) trajectory.TimePoint {
	y := float64(id)
	if (t/4)%2 == 1 {
		y += 9
	}
	return tp(float64(t)*5, y, t)
}

// A bank restored from a dump continues exactly as the original: the
// noisy object's tolerance is rebuilt from its dumped sigmas, so a
// restore that dropped them would report at different timestamps.
func TestBankDumpRestoreContinues(t *testing.T) {
	sigma := map[int][2]float64{1: {0.8, 0.5}, 2: {0, 0}}
	orig := NewBank(noiseTol)
	var reports int
	feed := func(b *Bank, from, to trajectory.Time) [][]State {
		var out [][]State
		for now := from; now <= to; now++ {
			for _, id := range []int{1, 2} {
				s := step(t, b, id, zig(id, now), sigma[id][0], sigma[id][1])
				reports += len(s) - 1
				out = append(out, s)
			}
		}
		return out
	}
	feed(&orig, 1, 18)
	// Leave object 2 waiting across the dump, with a buffered point.
	st, report, err := orig.Observe(2, tp(200, 40, 19), 0, 0)
	if err != nil || !report {
		t.Fatalf("the jump did not report: %v, %v", report, err)
	}
	if _, _, err := orig.Observe(2, tp(205, 40, 20), 0, 0); err != nil {
		t.Fatal(err)
	}

	restored := NewBank(noiseTol)
	for fe := range orig.Dump() {
		if err := restored.Restore(fe); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(sortedDump(&orig), sortedDump(&restored)) {
		t.Fatal("a restored bank dumps differently from the original")
	}
	for _, b := range []*Bank{&orig, &restored} {
		if !b.Awaits(2, st) || b.Awaits(2, State{}) || b.Awaits(1, st) {
			t.Fatal("only object 2 awaits the answer to its report")
		}
		if _, _, err := b.Respond(2, trajectory.TP(st.FSA.Centroid(), st.Te)); err != nil {
			t.Fatal(err)
		}
	}
	reports = 0
	want := feed(&orig, 21, 60)
	if reports == 0 {
		t.Fatal("the tail raised no report")
	}
	if got := feed(&restored, 21, 60); !reflect.DeepEqual(got, want) {
		t.Error("the restored bank diverged from the original on the same tail")
	}
	if !reflect.DeepEqual(sortedDump(&orig), sortedDump(&restored)) {
		t.Error("after the tail, the restored bank dumps differently from the original")
	}
}

func TestBankRestoreRefusesDuplicate(t *testing.T) {
	b := NewBank(noiseTol)
	if _, _, err := b.Observe(4, tp(0, 0, 1), 0, 0); err != nil {
		t.Fatal(err)
	}
	fe := slices.Collect(b.Dump())[0]
	//hotpathsvet:ignore errstring the test pins the text a refused checkpoint restore reports
	if err := b.Restore(fe); err == nil || err.Error() != "restored filter for object 4 is duplicated" {
		t.Errorf("restoring a held object: %v", err)
	}
	fresh := NewBank(noiseTol)
	if err := fresh.Restore(fe); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(fe); err == nil {
		t.Error("restoring the same entry twice was accepted")
	}
}
