// Package raytrace implements the client-side RayTrace filter of the paper
// (Section 4, Algorithm 1).
//
// RayTrace is a one-pass greedy algorithm with O(1) time and space per
// timepoint. It maintains a Spatial Safe Area (SSA): a pyramid in xyt space
// with apex at the current start timepoint ⟨s,ts⟩ that widens linearly to
// the Final Safe Area (FSA) rectangle at time te. The SSA's defining
// property is that for ANY endpoint e inside the FSA, the motion path s→e
// crossed during [ts,te] stays within the tolerance of every measurement
// processed so far.
//
// When a new timepoint's tolerance rectangle no longer intersects the SSA's
// linear projection, the filter emits its state to the coordinator and
// enters waiting mode, buffering subsequent measurements. The coordinator's
// response — an endpoint chosen inside the FSA — seeds the next SSA, which
// guarantees the produced motion paths chain into a covering motion path
// set.
//
// Outside this package's tests, filters live only in a Bank, one per
// object id: a hotpaths.System owns one bank and each Engine shard owns
// one, so the client half is written once.
//
// Why checking only measurement timestamps suffices: between consecutive
// measurements both the (interpolated) object trajectory and the candidate
// motion path are linear in t, so each coordinate difference is linear and
// its absolute value convex; the maximum over an interval is attained at
// the interval's endpoints. Closeness at measurement timestamps therefore
// implies closeness at every intermediate timestamp.
package raytrace

import (
	"fmt"
	"slices"

	"hotpaths/internal/geom"
	"hotpaths/internal/trajectory"
)

// State is the message a filter sends to the coordinator when its SSA can
// no longer grow: ⟨l(ts), ts, l(te), u(te), te⟩ in the paper's notation.
type State struct {
	Start geom.Point      // s = l(ts), the SSA apex
	Ts    trajectory.Time // start timestamp
	FSA   geom.Rect       // final safe area (l(te), u(te))
	Te    trajectory.Time // end timestamp
}

// StateBytes is the wire size of a state message used for communication
// accounting: six float64 coordinates plus two int64 timestamps.
const StateBytes = 6*8 + 2*8

// ResponseBytes is the wire size of a coordinator response: one endpoint
// (two float64) plus one int64 timestamp.
const ResponseBytes = 2*8 + 8

func (s State) String() string {
	return fmt.Sprintf("state{s=%v ts=%d fsa=%v te=%d}", s.Start, s.Ts, s.FSA, s.Te)
}

// Stats aggregates a filter's lifetime counters for communication and
// processing accounting.
type Stats struct {
	Processed  int // timepoints consumed by the SSA logic
	StatesSent int // state messages emitted to the coordinator
	Responses  int // coordinator responses received
	Buffered   int // timepoints that went through the waiting-mode buffer
	MaxBuffer  int // high-water mark of the buffer length
}

// Filter is the per-object RayTrace instance. It is not safe for concurrent
// use; each moving object owns exactly one filter.
type Filter struct {
	half   geom.Point  // the tolerance rectangle's half-widths
	primed bool        // true once the initial timepoint is set
	s      FilterState // the SSA, the waiting buffer and the counters
	bufs   *bufPool    // where the waiting buffer comes from and goes back to
}

// A bufPool keeps the emptied waiting buffers of a bank's filters for the
// next filter that starts waiting, so a wait allocates only when more
// filters wait at once, or buffer more, than ever before. Only waiting
// filters hold a buffer. A nil pool keeps nothing.
type bufPool struct {
	free [][]trajectory.TimePoint
}

func (p *bufPool) get() []trajectory.TimePoint {
	if p == nil || len(p.free) == 0 {
		return nil
	}
	b := p.free[len(p.free)-1]
	p.free[len(p.free)-1] = nil
	p.free = p.free[:len(p.free)-1]
	return b
}

func (p *bufPool) put(b []trajectory.TimePoint) {
	if p != nil && cap(b) > 0 {
		p.free = append(p.free, b[:0])
	}
}

// New returns a filter with the given initial timepoint and the fixed-ε
// tolerance model: the square Q of side 2·eps around each measurement.
func New(initial trajectory.TimePoint, eps float64) *Filter {
	f := &Filter{half: geom.Pt(eps, eps)}
	f.reset(initial)
	return f
}

// reset re-seeds the SSA at the given timepoint.
func (f *Filter) reset(tp trajectory.TimePoint) {
	f.s.Start = tp.P
	f.s.Ts = tp.T
	f.s.Te = tp.T
	f.s.FSA = geom.Rect{Lo: tp.P, Hi: tp.P}
	f.s.LastT = tp.T
	f.primed = true
}

// State returns the filter's current SSA as a state message.
func (f *Filter) State() State {
	return State{Start: f.s.Start, Ts: f.s.Ts, FSA: f.s.FSA, Te: f.s.Te}
}

// Process consumes one measurement. When the SSA can no longer accommodate
// it, the filter's state is returned with report=true and the filter enters
// waiting mode (the violating point stays buffered for reprocessing after
// the coordinator responds). Timestamps must be strictly increasing.
func (f *Filter) Process(tp trajectory.TimePoint) (st State, report bool, err error) {
	if !f.primed {
		return State{}, false, fmt.Errorf("raytrace: filter used before initialization")
	}
	// A replay that reports again leaves LastT at the point it parked,
	// ahead of later buffered ones.
	last := f.s.LastT
	if n := len(f.s.Buf); n > 0 {
		last = max(last, f.s.Buf[n-1].T)
	}
	if tp.T <= last {
		return State{}, false, fmt.Errorf("raytrace: non-increasing timestamp %d (last %d)", tp.T, last)
	}
	f.s.LastT = tp.T
	if f.s.Waiting {
		f.s.Buf = append(f.s.Buf, tp)
		f.buffered()
		return State{}, false, nil
	}
	st, report, err = f.step(tp)
	if report {
		// Park the violating point at the front of the buffer, which is
		// empty unless a restored state says otherwise.
		if f.s.Buf == nil {
			f.s.Buf = f.bufs.get()
		}
		f.s.Buf = slices.Insert(f.s.Buf, 0, tp)
		f.buffered()
	}
	return st, report, err
}

// buffered counts a point just added to the waiting buffer.
func (f *Filter) buffered() {
	f.s.Stats.Buffered++
	f.s.Stats.MaxBuffer = max(f.s.Stats.MaxBuffer, len(f.s.Buf))
}

// step advances the SSA with one timepoint (the body of Algorithm 1's inner
// loop). On a violation it reports and enters waiting mode; the caller
// parks the point at the front of the waiting buffer, since it may have
// been taken off that buffer during a replay and must keep its place
// before any younger buffered points.
func (f *Filter) step(tp trajectory.TimePoint) (State, bool, error) {
	f.s.Stats.Processed++
	q := geom.Rect{Lo: tp.P.Sub(f.half), Hi: tp.P.Add(f.half)}
	if q.Empty() {
		return State{}, false, fmt.Errorf("raytrace: empty tolerance rect for %v", tp)
	}
	if f.s.Te == f.s.Ts {
		// First timepoint after the apex: the FSA is the tolerance rect.
		f.s.Te = tp.T
		f.s.FSA = q
		return State{}, false, nil
	}
	// Project the SSA pyramid onto tp.T (extrapolation for tp.T > te).
	lambda := float64(tp.T-f.s.Ts) / float64(f.s.Te-f.s.Ts)
	proj := f.s.FSA.Lerp(f.s.Start, lambda)
	inter := proj.Intersect(q)
	if !inter.Empty() {
		f.s.Te = tp.T
		f.s.FSA = inter
		return State{}, false, nil
	}
	// Violation: report state and wait for the coordinator.
	f.s.Waiting = true
	f.s.Stats.StatesSent++
	return f.State(), true, nil
}

// Respond delivers the coordinator's chosen endpoint ⟨e,te⟩, which becomes
// the apex of the next SSA. Buffered measurements are then replayed; if one
// of them violates the fresh SSA, the new state is reported immediately
// (report=true) and the filter stays in waiting mode with the remainder of
// the buffer intact.
//
// The response endpoint must lie inside the FSA that was reported and carry
// the reported te; this is what guarantees a covering motion path set.
func (f *Filter) Respond(e trajectory.TimePoint) (st State, report bool, err error) {
	if !f.s.Waiting {
		return State{}, false, fmt.Errorf("raytrace: Respond while not waiting")
	}
	if e.T != f.s.Te {
		return State{}, false, fmt.Errorf("raytrace: response timestamp %d does not match reported te %d", e.T, f.s.Te)
	}
	if !f.s.FSA.Contains(e.P) {
		return State{}, false, fmt.Errorf("raytrace: response endpoint %v outside FSA %v", e.P, f.s.FSA)
	}
	f.s.Stats.Responses++
	f.s.Waiting = false
	f.reset(e)
	f.s.LastT = e.T
	// Replay the buffer. What stays buffered moves to the front of its
	// backing array; an emptied one goes back to the pool.
	buf := f.s.Buf
	for i, tp := range buf {
		f.s.LastT = tp.T
		st, report, err = f.step(tp)
		if err != nil {
			f.s.Buf = buf[:copy(buf, buf[i+1:])]
			return State{}, false, err
		}
		if report {
			// tp is parked again, ahead of the points after it.
			f.s.Buf = buf[:copy(buf, buf[i:])]
			f.buffered()
			return st, true, nil
		}
	}
	f.bufs.put(buf)
	f.s.Buf = nil
	return State{}, false, nil
}

// FilterState is the complete mutable state of a Filter, exported for
// checkpointing. Restoring it (with the same tolerance) yields a
// filter whose future behaviour is bit-identical to the dumped one.
type FilterState struct {
	Start   geom.Point
	Ts      trajectory.Time
	FSA     geom.Rect
	Te      trajectory.Time
	Waiting bool
	LastT   trajectory.Time
	Buf     []trajectory.TimePoint
	Stats   Stats
}

// Dump captures the filter's state for checkpointing.
func (f *Filter) Dump() FilterState {
	st := f.s
	st.Buf = append([]trajectory.TimePoint(nil), f.s.Buf...)
	return st
}

// restore rebuilds a filter from a dumped state and its tolerance's
// half-widths. Only primed filters are ever dumped, so the restored filter
// is primed.
func restore(st FilterState, half geom.Point, bufs *bufPool) Filter {
	st.Buf = append([]trajectory.TimePoint(nil), st.Buf...)
	return Filter{half: half, primed: true, s: st, bufs: bufs}
}
