package raytrace

import (
	"errors"
	"reflect"
	"slices"
	"sort"
	"testing"

	"hotpaths/internal/geom"
	"hotpaths/internal/trajectory"
	"hotpaths/internal/uncertainty"
)

// noisyBank is a bank under a real (ε,δ) = (2, 0.05): an exact object
// gets the square of half-side 2, and a noisy one a narrower rectangle
// solved from the sigmas it was first seen with, so a filter's behaviour
// depends on them.
func noisyBank() Bank { return NewBank(2, 0.05) }

func sortedDump(b *Bank) []FilterEntry {
	d := slices.Collect(b.Dump())
	sort.Slice(d, func(i, j int) bool { return d[i].ObjectID < d[j].ObjectID })
	return d
}

func TestBankFirstSightingSeeds(t *testing.T) {
	b := noisyBank()
	// However far apart, first sightings only seed.
	for id, p := range []geom.Point{geom.Pt(0, 0), geom.Pt(1e6, -1e6)} {
		st, report, err := b.Observe(id, trajectory.TP(p, 7), 0.5, 0.25)
		if err != nil || report || st != (State{}) {
			t.Fatalf("first sighting of %d: state %v, report %v, err %v", id, st, report, err)
		}
	}
	d := sortedDump(&b)
	if b.Len() != 2 || len(d) != 2 || d[0].Filter.Waiting || d[1].Filter.Waiting || d[1].SigmaX != 0.5 || d[1].SigmaY != 0.25 || d[1].Filter.Start != geom.Pt(1e6, -1e6) || d[1].Filter.Ts != 7 {
		t.Errorf("dump after two first sightings: %+v", d)
	}
}

func TestBankObjectError(t *testing.T) {
	b := noisyBank()
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
// noisy object's tolerance is solved again from its dumped sigmas, and a
// restore that dropped them diverges.
func TestBankDumpRestoreContinues(t *testing.T) {
	sigma := map[int][2]float64{1: {0.8, 0.5}, 2: {0, 0}}
	orig := noisyBank()
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

	restored, exact := noisyBank(), noisyBank()
	for fe := range orig.Dump() {
		if err := restored.Restore(fe); err != nil {
			t.Fatal(err)
		}
		fe.SigmaX, fe.SigmaY = 0, 0
		if err := exact.Restore(fe); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(sortedDump(&orig), sortedDump(&restored)) {
		t.Fatal("a restored bank dumps differently from the original")
	}
	for _, b := range []*Bank{&orig, &restored, &exact} {
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
	sigma[1] = [2]float64{} // only first sightings read them
	if got := feed(&exact, 21, 60); reflect.DeepEqual(got, want) {
		t.Error("a bank restored without the noisy object's sigmas did not diverge")
	}
	if !reflect.DeepEqual(sortedDump(&orig), sortedDump(&restored)) {
		t.Error("after the tail, the restored bank dumps differently from the original")
	}
}

func TestBankRestoreRefusesDuplicate(t *testing.T) {
	b := noisyBank()
	if _, _, err := b.Observe(4, tp(0, 0, 1), 0, 0); err != nil {
		t.Fatal(err)
	}
	fe := slices.Collect(b.Dump())[0]
	//hotpathsvet:ignore errstring the test pins the text a refused checkpoint restore reports
	if err := b.Restore(fe); err == nil || err.Error() != "restored filter for object 4 is duplicated" {
		t.Errorf("restoring a held object: %v", err)
	}
	fresh := noisyBank()
	if err := fresh.Restore(fe); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(fe); err == nil {
		t.Error("restoring the same entry twice was accepted")
	}
}

// A bank's filters pass their waiting buffers on: once as many filters
// have waited at once, and buffered as much, as they will again, a wait
// — the report's parked point, the points buffered behind it and the
// replay that answers it — allocates nothing.
func TestBankWaitsReuseBuffers(t *testing.T) {
	b := noisyBank()
	var now trajectory.Time
	var pending [3]State
	var waiting [3]bool
	// Each step measures three zig-zagging objects and answers a report
	// two steps after it was raised, as an epoch would.
	step := func() {
		now++
		for id := range pending {
			x := float64(id*1000) + 60*float64((now+trajectory.Time(id))%3)
			st, report, err := b.Observe(id, tp(x, 0, now), 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if report {
				pending[id], waiting[id] = st, true
			}
			if waiting[id] && now >= pending[id].Te+2 {
				st, report, err = b.Respond(id, trajectory.TP(pending[id].FSA.Centroid(), pending[id].Te))
				if err != nil {
					t.Fatal(err)
				}
				pending[id], waiting[id] = st, report
			}
		}
	}
	for range 30 {
		step()
	}
	reports := b.entries[0].f.s.Stats.StatesSent
	if allocs := testing.AllocsPerRun(30, step); allocs != 0 {
		t.Errorf("%v allocs per step of waiting filters, want 0", allocs)
	}
	if b.entries[0].f.s.Stats.StatesSent-reports < 10 {
		t.Fatalf("only %d reports while counting: the filters hardly waited", b.entries[0].f.s.Stats.StatesSent-reports)
	}
}

// FuzzBankCovers holds a bank to the paper's covering property (Section 4)
// on random walks of 1–4 objects, each first seen exact, with a solvable
// (ε,δ) noise level or with one that has no solution (the ε/10 fallback).
// Every report, and every follow-up, is answered with a point of its FSA
// — the centroid, a corner or an interior point — at once or some steps
// later. Each object's answered paths must chain into a covering set, and
// every measurement must lie within the object's tolerance of each path
// covering its timestamp: the rectangle uncertainty.ToleranceRectOrMin
// solves for its first σ (for an exact object, the ε square). Later
// measurements carry other sigmas, which must not matter.
func FuzzBankCovers(f *testing.F) {
	const eps, delta = 5.0, 0.05
	sigmas := [4][2]float64{{0, 0}, {1, 0.5}, {2.5, 40}, {1, 40}}
	for i, kinds := range []uint8{0, 0b01010101, 0b10101010, 0b11100100} {
		walk := make([]byte, 3*60*(i+1))
		for j := range walk {
			walk[j] = byte(j*37 + i*11)
		}
		f.Add(uint8(i), kinds, walk)
	}
	f.Fuzz(func(t *testing.T, objects, kinds uint8, walk []byte) {
		n := 1 + int(objects%4)
		b := NewBank(eps, delta)
		type object struct {
			pos      geom.Point
			now      trajectory.Time
			sigma    [2]float64
			measured []trajectory.TimePoint
			paths    []trajectory.MotionPath
			pending  *State
		}
		objs := make([]object, n)
		for id := range objs {
			objs[id] = object{pos: geom.Pt(float64(id)*100, 0), sigma: sigmas[kinds>>(2*id)&3]}
		}
		// answer responds to id's pending report with the point of its FSA
		// that choice, fx and fy pick, and keeps a follow-up pending.
		answer := func(id int, choice, fx, fy byte) {
			o := &objs[id]
			st := *o.pending
			fsa := st.FSA
			e := fsa.Centroid()
			switch choice % 6 {
			case 1:
				e = fsa.Lo
			case 2:
				e = fsa.Hi
			case 3:
				e = geom.Pt(fsa.Lo.X, fsa.Hi.Y)
			case 4:
				e = geom.Pt(fsa.Hi.X, fsa.Lo.Y)
			case 5:
				// Rounding may carry Lo + f·(Hi−Lo) past Hi: clamp.
				at := func(lo, hi float64, f byte) float64 { return min(hi, max(lo, lo+float64(f)/255*(hi-lo))) }
				e = geom.Pt(at(fsa.Lo.X, fsa.Hi.X, fx), at(fsa.Lo.Y, fsa.Hi.Y, fy))
			}
			o.paths = append(o.paths, trajectory.MotionPath{S: st.Start, E: e, Ts: st.Ts, Te: st.Te})
			next, report, err := b.Respond(id, trajectory.TP(e, st.Te))
			if err != nil {
				t.Fatalf("object %d: answer %v to %v: %v", id, e, st, err)
			}
			o.pending = nil
			if report {
				o.pending = &next
			}
		}
		for ; len(walk) >= 3; walk = walk[3:] {
			c, bx, by := walk[0], walk[1], walk[2]
			id := int(c) % n
			o := &objs[id]
			o.now += 1 + trajectory.Time(c>>2&3)
			o.pos = o.pos.Add(geom.Pt(float64(int(bx)-128)/32, float64(int(by)-128)/32))
			p := trajectory.TP(o.pos, o.now)
			sx, sy := o.sigma[0], o.sigma[1]
			if len(o.measured) > 0 {
				sx, sy = float64(bx%4), float64(by%4)
			}
			st, report, err := b.Observe(id, p, sx, sy)
			if err != nil {
				t.Fatalf("object %d at %v: %v", id, p, err)
			}
			o.measured = append(o.measured, p)
			if report {
				if o.pending != nil {
					t.Fatalf("object %d reported %v while awaiting the answer to %v", id, st, *o.pending)
				}
				o.pending = &st
			}
			if o.pending != nil && c&0x10 != 0 {
				answer(id, c>>5, bx, by)
			}
		}
		for id := range objs {
			for objs[id].pending != nil {
				answer(id, 0, 0, 0)
			}
		}

		for id, o := range objs {
			if len(o.paths) == 0 {
				continue
			}
			first := o.measured[0]
			if o.paths[0].Ts != first.T || !o.paths[0].S.Eq(first.P) {
				t.Fatalf("object %d: first path %v does not start at its first measurement %v", id, o.paths[0], first)
			}
			end := o.paths[len(o.paths)-1].Te
			if !trajectory.CoveringSet(o.paths, first.T, end) {
				t.Fatalf("object %d: paths do not chain: %v", id, o.paths)
			}
			for _, m := range o.measured {
				tol := uncertainty.ToleranceRectOrMin(uncertainty.Measurement{Mean: m.P, SigmaX: o.sigma[0], SigmaY: o.sigma[1]}, eps, delta, eps/10)
				for _, mp := range o.paths {
					if m.T < mp.Ts || m.T > mp.Te {
						continue
					}
					if at := mp.LocationAt(m.T); !tol.Expand(1e-9).Contains(at) {
						t.Fatalf("object %d (σ %v): path %v passes %v at t=%d, outside the tolerance %v of measurement %v", id, o.sigma, mp, at, m.T, tol, m.P)
					}
				}
			}
		}
	})
}
