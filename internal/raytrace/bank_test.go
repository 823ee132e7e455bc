package raytrace

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"testing"
	"unsafe"

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
	reports := b.find(0).f.s.Stats.StatesSent
	if allocs := testing.AllocsPerRun(30, step); allocs != 0 {
		t.Errorf("%v allocs per step of waiting filters, want 0", allocs)
	}
	if b.find(0).f.s.Stats.StatesSent-reports < 10 {
		t.Fatalf("only %d reports while counting: the filters hardly waited", b.find(0).f.s.Stats.StatesSent-reports)
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

// checkIndex holds a bank's index to its invariant: every filter's id
// finds its own slot, an id is in the dense index exactly when
// 0 <= id < len(dense), and the dense index spans at most
// denseBound(Len()) slots.
func checkIndex(t *testing.T, b *Bank) {
	t.Helper()
	if n := len(b.dense); n > denseBound(b.Len()) {
		t.Fatalf("dense index spans %d slots for %d filters, bound %d", n, b.Len(), denseBound(b.Len()))
	}
	refs := 0
	for id, ref := range b.dense {
		if ref != 0 {
			refs++
			if got := b.ids[ref-1]; got != id {
				t.Fatalf("dense[%d] is slot %d, which holds object %d", id, ref-1, got)
			}
		}
	}
	for id, ref := range b.far {
		refs++
		if 0 <= id && id < len(b.dense) {
			t.Fatalf("object %d is in the map, inside the dense range [0, %d)", id, len(b.dense))
		}
		if got := b.ids[ref-1]; got != id {
			t.Fatalf("far[%d] is slot %d, which holds object %d", id, ref-1, got)
		}
	}
	if refs != b.Len() {
		t.Fatalf("the index holds %d ids for %d filters", refs, b.Len())
	}
	for slot, id := range b.ids {
		if b.find(id) != b.at(slot) {
			t.Fatalf("object %d does not find its slot %d", id, slot)
		}
	}
}

// An id first seen beyond the dense bound lives in the map until growth
// covers it, and then in the dense index: its filter goes on rather than
// being seeded a second time.
func TestBankIndexInvariant(t *testing.T) {
	b := noisyBank()
	far := []int{5000, -3, math.MinInt, math.MaxInt, 1 << 40}
	for _, id := range far {
		step(t, &b, id, tp(0, 0, 1), 0, 0)
		checkIndex(t, &b)
	}
	if len(b.far) != len(far) {
		t.Fatalf("%d of %d ids beyond the bound are in the map", len(b.far), len(far))
	}
	for id := range 6000 {
		if id != 5000 {
			step(t, &b, id, tp(0, 0, 1), 0, 0)
		}
		if id%997 == 0 {
			checkIndex(t, &b)
		}
	}
	checkIndex(t, &b)
	if _, ok := b.far[5000]; ok || len(b.dense) <= 5000 {
		t.Fatalf("object 5000 stayed in the map after the dense index grew to %d", len(b.dense))
	}
	if st := step(t, &b, 5000, tp(1, 0, 2), 0, 0); b.Len() != 6000-1+len(far) || len(st) != 1 {
		t.Fatalf("object 5000 was seeded again: %d filters", b.Len())
	}
	if b.find(5000).f.s.LastT != 2 {
		t.Fatal("object 5000's filter did not step")
	}
}

// However sparse the ids, the dense index takes no more slots than the
// bound: a filter is 192 bytes and a slot 4, so the index never outgrows
// the filters it finds by more than a fixed 16 KiB. Ids that each sit
// just inside the bound as it stands cannot make it grow on every
// sighting either: each growth at least doubles it.
func TestBankIndexBound(t *testing.T) {
	if got := unsafe.Sizeof(bankEntry{}) / unsafe.Sizeof(int32(0)); got < 48 {
		t.Errorf("a filter is %d slots wide, and denseBound assumes 48", got)
	}
	b := noisyBank()
	growths := 0
	for i := range 2000 {
		id := denseBound(b.Len()+1) - 1
		if i%2 == 1 {
			id = i * 1_000_003 // beyond it
		}
		n := len(b.dense)
		step(t, &b, id, tp(0, 0, 1), 0, 0)
		if len(b.dense) != n {
			growths++
		}
		if n := len(b.dense); n > denseBound(b.Len()) {
			t.Fatalf("after %d filters the dense index spans %d slots, bound %d", b.Len(), n, denseBound(b.Len()))
		}
	}
	checkIndex(t, &b)
	if len(b.far) < 1000 {
		t.Errorf("%d ids went to the map, want at least the 1000 beyond the bound", len(b.far))
	}
	if growths > 12 {
		t.Errorf("the dense index grew %d times, to %d slots", growths, len(b.dense))
	}
}

// FuzzBankMatchesFilters holds a bank to one plain Filter per object id,
// each seeded the way the bank seeds its own: every Observe and Respond
// answers alike, and Len and the sorted Dump agree. The ids come from
// each regime of the index: small dense ids, negatives, math.MinInt and
// math.MaxInt, ids first seen beyond the dense bound that later growth
// covers (a burst seeds 24 fresh ids spread over the range), and ids no
// growth reaches. The dump is then restored into a fresh bank in shuffled
// order, and the original and the restored bank must answer the same
// further steps identically.
func FuzzBankMatchesFilters(f *testing.F) {
	for i, n := range []int{40, 200, 600} {
		script := make([]byte, 3*n)
		for j := range script {
			script[j] = byte(j*53 + i*29 + j/7)
		}
		f.Add(script)
	}
	// Object 5000 first seen beyond the bound, bursts until the index
	// covers it, and object 5000 again.
	covered := []byte{0x26, 14, 128}
	for range 12 {
		covered = append(covered, 0x03, 0, 0)
	}
	f.Add(append(covered, 0x26, 14, 90, 0x26, 14, 250))
	f.Fuzz(func(t *testing.T, script []byte) {
		const eps, delta = 2.0, 0.05
		sigmas := [4][2]float64{{0, 0}, {0.5, 0.25}, {1, 40}, {3, 3}}
		picks := []int{0, 1, 2, 3, 7, 15, -1, -2, -4096, math.MinInt, math.MinInt + 1, math.MaxInt, math.MaxInt - 1, 4200, 5000, 7000, 11000, 1 << 40}
		var (
			seen   []int // ids in first-sighting order
			now    = map[int]trajectory.Time{}
			pos    = map[int]geom.Point{}
			filler int
		)
		// pick draws an object id from the script's byte c.
		pick := func(c, x byte) int {
			if c&0x08 != 0 && len(seen) > 0 {
				return seen[int(x)%len(seen)]
			}
			return picks[int(x)%len(picks)]
		}
		type call struct {
			respond        bool
			id             int
			p              trajectory.TimePoint
			sigmaX, sigmaY float64
		}
		// next turns three bytes into calls; waiting reads the state a
		// waiting filter reported, from the side whose answers are the
		// reference.
		next := func(c, x, y byte, waiting func(int) (State, bool)) []call {
			switch {
			case c&0x07 == 0x03: // a burst of first sightings
				out := make([]call, 24)
				for i := range out {
					filler++
					id := 16 + 61*filler
					now[id], pos[id] = 1, geom.Pt(float64(id), 0)
					seen = append(seen, id)
					s := sigmas[i%4]
					out[i] = call{id: id, p: trajectory.TP(pos[id], 1), sigmaX: s[0], sigmaY: s[1]}
				}
				return out
			case c&0x07 == 0x05: // an answer, or a stray one
				id := pick(c, x)
				st, ok := waiting(id)
				e := st.FSA.Centroid()
				switch y % 4 {
				case 1:
					e = st.FSA.Lo
				case 2:
					e = st.FSA.Hi
				case 3:
					e = e.Add(geom.Pt(100, 0)) // outside the FSA
				}
				if !ok && y%2 == 0 {
					return []call{{respond: true, id: id, p: trajectory.TP(pos[id], now[id])}}
				}
				return []call{{respond: true, id: id, p: trajectory.TP(e, st.Te)}}
			}
			id := pick(c, x)
			if _, ok := now[id]; !ok {
				seen = append(seen, id)
			}
			// Mostly forward, sometimes repeated or backwards.
			now[id] += trajectory.Time(int(c>>4&3) - 1)
			pos[id] = pos[id].Add(geom.Pt(float64(int(x)-128)/16, float64(int(y)-128)/16))
			s := sigmas[y%4]
			return []call{{id: id, p: trajectory.TP(pos[id], now[id]), sigmaX: s[0], sigmaY: s[1]}}
		}
		type answer struct {
			st     State
			report bool
			err    error
		}

		b := NewBank(eps, delta)
		model := map[int]*bankEntry{}
		modelDo := func(k call) answer {
			e, ok := model[k.id]
			if k.respond {
				if !ok {
					return answer{err: errors.New("no filter")}
				}
				st, report, err := e.f.Respond(k.p)
				return answer{st, report, err}
			}
			if !ok {
				e = &bankEntry{f: Filter{half: uncertainty.HalfWidths(eps, delta, k.sigmaX, k.sigmaY)}, sigmaX: k.sigmaX, sigmaY: k.sigmaY}
				e.f.reset(k.p)
				model[k.id] = e
				return answer{}
			}
			st, report, err := e.f.Process(k.p)
			if !report {
				st = State{}
			}
			return answer{st, report, err}
		}
		bankDo := func(b *Bank, k call) answer {
			if k.respond {
				st, report, err := b.Respond(k.id, k.p)
				return answer{st, report, err}
			}
			st, report, err := b.Observe(k.id, k.p, k.sigmaX, k.sigmaY)
			var oe *ObjectError
			if errors.As(err, &oe) {
				if oe.ObjectID != k.id {
					t.Fatalf("object %d's refusal names object %d", k.id, oe.ObjectID)
				}
				err = oe.Err
			}
			return answer{st, report, err}
		}
		same := func(got, want answer) bool {
			if (got.err == nil) != (want.err == nil) {
				return false
			}
			return got.st == want.st && got.report == want.report
		}
		modelWaiting := func(id int) (State, bool) {
			if e, ok := model[id]; ok && e.f.s.Waiting {
				return e.f.State(), true
			}
			return State{}, false
		}
		for i := 0; i+3 <= len(script); i += 3 {
			for _, k := range next(script[i], script[i+1], script[i+2], modelWaiting) {
				got, want := bankDo(&b, k), modelDo(k)
				if !same(got, want) {
					t.Fatalf("%+v: the bank answered %+v, its object's filter %+v", k, got, want)
				}
				if k.respond || want.err == nil {
					continue
				}
				if !reflect.DeepEqual(got.err, want.err) {
					t.Fatalf("%+v: the bank refused with %v, its object's filter with %v", k, got.err, want.err)
				}
			}
			if b.Len() != len(model) {
				t.Fatalf("the bank holds %d filters for %d objects", b.Len(), len(model))
			}
		}
		checkIndex(t, &b)
		var want []FilterEntry
		for id, e := range model {
			want = append(want, FilterEntry{ObjectID: id, SigmaX: e.sigmaX, SigmaY: e.sigmaY, Filter: e.f.Dump()})
		}
		sort.Slice(want, func(i, j int) bool { return want[i].ObjectID < want[j].ObjectID })
		dump := sortedDump(&b)
		if !reflect.DeepEqual(dump, want) {
			t.Fatalf("the bank dumps %d entries unlike its objects' %d filters", len(dump), len(want))
		}

		restored := NewBank(eps, delta)
		h := uint64(len(script))
		for _, c := range script {
			h = h*31 + uint64(c)
		}
		rand.New(rand.NewPCG(h, 1)).Shuffle(len(dump), func(i, j int) { dump[i], dump[j] = dump[j], dump[i] })
		for _, fe := range dump {
			if err := restored.Restore(fe); err != nil {
				t.Fatal(err)
			}
		}
		checkIndex(t, &restored)
		origWaiting := func(id int) (State, bool) {
			if e := b.find(id); e != nil && e.f.s.Waiting {
				return e.f.State(), true
			}
			return State{}, false
		}
		for i := 0; i+3 <= len(script); i += 3 {
			for _, k := range next(script[i]^0x40, script[i+2], script[i+1], origWaiting) {
				want, got := bankDo(&b, k), bankDo(&restored, k)
				if !same(got, want) || !reflect.DeepEqual(got.err, want.err) {
					t.Fatalf("%+v: the restored bank answered %+v, the original %+v", k, got, want)
				}
			}
		}
		if !reflect.DeepEqual(sortedDump(&restored), sortedDump(&b)) {
			t.Fatal("after the same steps, the restored bank dumps differently from the original")
		}
		checkIndex(t, &b)
		checkIndex(t, &restored)
	})
}

// BenchmarkBankObserve times one bank at the paper's scale (20,000
// objects) and at BenchmarkSystemIngest's (500): every object is seeded at
// timestamp 0, then a tenth of them, those whose id is the timestamp mod
// 10, measure at each timestamp, and each report is answered at once with
// its FSA's centroid. Each object zig-zags, turning every fourth
// measurement. The objects measure in ascending id order, as
// workload.Simulator.Tick emits them, or in one shuffled order; both are
// built before the timer starts, and the bank first sees its objects in
// the same order.
func BenchmarkBankObserve(b *testing.B) {
	for _, n := range []int{500, 20_000} {
		for _, shuffled := range []bool{false, true} {
			name := fmt.Sprintf("objects=%d/ascending", n)
			if shuffled {
				name = fmt.Sprintf("objects=%d/shuffled", n)
			}
			b.Run(name, func(b *testing.B) {
				order := make([]int, n)
				for i := range order {
					order[i] = i
				}
				if shuffled {
					rand.New(rand.NewPCG(1, uint64(n))).Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
				}
				var tenths [10][]int
				for _, id := range order {
					tenths[id%10] = append(tenths[id%10], id)
				}
				at := func(id int, t trajectory.Time) trajectory.TimePoint {
					k := float64(t / 10)
					y := float64(id)
					if (t/40)%2 == 1 {
						y += 9
					}
					return tp(5*k, y, t)
				}
				bank := noisyBank()
				for _, id := range order {
					if _, _, err := bank.Observe(id, at(id, 0), 0, 0); err != nil {
						b.Fatal(err)
					}
				}
				obs := 0
				b.ResetTimer()
				for i := range b.N {
					t := trajectory.Time(i + 1)
					for _, id := range tenths[t%10] {
						st, report, err := bank.Observe(id, at(id, t), 0, 0)
						for err == nil && report {
							st, report, err = bank.Respond(id, trajectory.TP(st.FSA.Centroid(), st.Te))
						}
						if err != nil {
							b.Fatal(err)
						}
					}
					obs += len(tenths[t%10])
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(obs), "ns/obs")
			})
		}
	}
}
