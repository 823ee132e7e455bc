// Package coordinator implements the server side of the framework: the
// MotionPath store and the SinglePath discovery strategy of the paper
// (Section 5, Algorithm 2).
//
// The store is the paper's three structures (Section 5.1–5.2): a grid over
// end vertices (internal/gridindex), a table keyed by path id and an
// expiry event queue (internal/hotness). The table is dense: one slice
// holds every live path with its hotness, and an id → slot map stands in
// for the paper's hash table. A path that expires leaves by swap-remove,
// the last slot moving into its place, as a grid cell drops its entries.
// A snapshot is therefore one copy of that slice.
//
// Per epoch, the coordinator receives the batch of RayTrace state messages
// from reporting objects and, for each object i with start vertex sⁱ and
// final safe area FSAⁱ, finds the endpoint of its next motion path:
//
//	Case 1 — an existing path sⁱ→p with p ∈ FSAⁱ exists: pick the hottest
//	         one (hotness boosted by the other objects that share it this
//	         epoch) and record a crossing.
//	Case 2 — no such path, but end vertices of other paths fall in FSAⁱ:
//	         pick the hottest vertex. A vertex's hotness is the sum of the
//	         hotness of the paths converging on it, plus the number of
//	         concurrently-reporting FSAs containing it (the count of the
//	         smallest Rall overlap region around it).
//	Case 3 — nothing in the index: pick the deepest point of the FSA
//	         overlap arrangement within FSAⁱ (the centroid of the hottest
//	         Rm region). This vertex is also offered as an extra candidate
//	         in Case 2, so objects converge on shared vertices.
//
// New paths are inserted under their content-addressed id (see
// motion.PathIDFor); every selection records a crossing with the report's
// [ts,te] interval, scheduled to expire from the sliding window at te+W.
package coordinator

import (
	"fmt"
	"math"

	"hotpaths/internal/geom"
	"hotpaths/internal/gridindex"
	"hotpaths/internal/hotness"
	"hotpaths/internal/motion"
	"hotpaths/internal/overlap"
	"hotpaths/internal/raytrace"
	"hotpaths/internal/trajectory"
)

// Config parameterises a coordinator.
type Config struct {
	Bounds geom.Rect       // monitored space, used to size the grid index
	Cols   int             // grid columns (default 64)
	Rows   int             // grid rows (default 64)
	W      trajectory.Time // sliding window length (required, positive)
	Eps    float64         // tolerance; sizes the overlap buckets (required, positive)
}

// Report is a RayTrace state message tagged with its sender.
type Report struct {
	ObjectID int
	State    raytrace.State
}

// Response is the coordinator's answer to one report: the endpoint that
// seeds the object's next SSA, plus the id of the path the object crossed.
type Response struct {
	ObjectID int
	End      trajectory.TimePoint
	PathID   motion.PathID
	// Case records which SinglePath case produced the endpoint (1, 2, 3);
	// exposed for evaluation and ablation.
	Case int
}

// Stats aggregates coordinator-side counters.
type Stats struct {
	Epochs               int
	Reports              int
	Case1, Case2W, Case3 int // selections per case (Case2W = case 2 with existing vertex)
	PathsCreated         int
	PathsExpired         int
	Crossings            int
}

// Coordinator holds the MotionPath index and runs SinglePath.
type Coordinator struct {
	cfg  Config
	grid *gridindex.Grid
	hot  *hotness.Window
	// table holds every live path with its hotness, in no particular
	// order; slot maps each one's id to its index there. A slot stays put
	// from one Advance to the next: ProcessEpoch only appends.
	table []motion.HotPath
	slot  map[motion.PathID]int32
	stats Stats

	// Per-epoch scratch, kept between epochs so that an epoch allocates
	// little beyond its responses and the paths it creates: the Rall
	// overlap structure, each report's candidate paths, how many reports
	// share each candidate, and one Case-2/3 selection's candidate
	// vertices.
	rall     *overlap.Set
	cps      [][]candidatePath
	pathUses map[motion.PathID]int
	verts    []candidateVertex
}

// New validates cfg and builds a coordinator.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Cols == 0 {
		cfg.Cols = 64
	}
	if cfg.Rows == 0 {
		cfg.Rows = 64
	}
	if cfg.Eps <= 0 {
		return nil, fmt.Errorf("coordinator: Eps must be positive, got %v", cfg.Eps)
	}
	grid, err := gridindex.New(cfg.Bounds, cfg.Cols, cfg.Rows)
	if err != nil {
		return nil, fmt.Errorf("coordinator: %w", err)
	}
	hot, err := hotness.New(cfg.W)
	if err != nil {
		return nil, fmt.Errorf("coordinator: %w", err)
	}
	rall, err := overlap.NewSet(2 * cfg.Eps)
	if err != nil {
		return nil, fmt.Errorf("coordinator: %w", err)
	}
	return &Coordinator{
		cfg:      cfg,
		grid:     grid,
		hot:      hot,
		slot:     make(map[motion.PathID]int32),
		rall:     rall,
		pathUses: make(map[motion.PathID]int),
	}, nil
}

// IndexSize returns the number of stored motion paths (hotness > 0).
func (c *Coordinator) IndexSize() int { return len(c.table) }

// Stats returns a copy of the coordinator's counters.
func (c *Coordinator) Stats() Stats { return c.stats }

// Hotness returns the current hotness of id (0 if it is not stored).
func (c *Coordinator) Hotness(id motion.PathID) int {
	if i, ok := c.slot[id]; ok {
		return c.table[i].Hotness
	}
	return 0
}

// Advance slides the hotness window to now, evicting expired crossings and
// deleting paths whose hotness reaches zero (from both the table and the
// grid index, as in the paper).
func (c *Coordinator) Advance(now trajectory.Time) {
	c.hot.Advance(now, func(id motion.PathID) {
		i := c.slot[id]
		hp := &c.table[i]
		hp.Hotness--
		if hp.Hotness > 0 {
			return
		}
		c.grid.Remove(id, hp.Path.E)
		last := int32(len(c.table) - 1)
		if i != last {
			c.table[i] = c.table[last]
			c.slot[c.table[i].Path.ID] = i
		}
		c.table = c.table[:last]
		delete(c.slot, id)
		c.stats.PathsExpired++
	})
}

// cross records a crossing of the path in slot i with exit timestamp te.
func (c *Coordinator) cross(i int32, te trajectory.Time) {
	c.table[i].Hotness++
	c.hot.Cross(c.table[i].Path.ID, te)
	c.stats.Crossings++
}

// candidatePath is an available motion path with its tentatively boosted
// hotness (Algorithm 2's AP/CP sets).
type candidatePath struct {
	id   motion.PathID
	slot int32
	end  geom.Point
	h    int
}

// fsaFits reports whether an FSA could come from a real filter. Every
// FSA is an intersection of tolerance rectangles m ± w whose half-width w
// is at most ε (the fixed square, the (ε,δ) rectangle, whose offset stays
// below ε, and its ε/10 fallback), so each side spans at most 2ε. The
// slack is two ulps of each end, more than rounding can add to
// (m+w) − (m−w). A wider FSA comes only from a hostile checkpoint, and
// the overlap structure would walk every bucket it covers.
func fsaFits(r geom.Rect, eps float64) bool {
	fits := func(lo, hi float64) bool {
		if math.IsInf(lo, 0) || math.IsInf(hi, 0) {
			return false
		}
		return hi-lo <= 2*eps+2*(ulp(lo)+ulp(hi))
	}
	return fits(r.Lo.X, r.Hi.X) && fits(r.Lo.Y, r.Hi.Y)
}

// ulp is the gap from |x| to the next larger float64.
func ulp(x float64) float64 {
	x = math.Abs(x)
	return math.Nextafter(x, math.Inf(1)) - x
}

// CheckReport refuses a report ProcessEpoch would refuse: an empty FSA,
// a non-finite one or one wider than 2ε, or a non-positive interval.
// Only a hostile checkpoint holds one: a restore checks its pending
// reports here, so the next epoch cannot fail after its tick moved the
// clock.
func (c *Coordinator) CheckReport(r Report) error {
	switch {
	case r.State.FSA.Empty():
		return fmt.Errorf("coordinator: object %d reported empty FSA", r.ObjectID)
	case !fsaFits(r.State.FSA, c.cfg.Eps):
		return fmt.Errorf("coordinator: object %d reported FSA %v, non-finite or wider than 2ε = %v",
			r.ObjectID, r.State.FSA, 2*c.cfg.Eps)
	case r.State.Te <= r.State.Ts:
		return fmt.Errorf("coordinator: object %d reported non-positive interval [%d,%d]",
			r.ObjectID, r.State.Ts, r.State.Te)
	}
	return nil
}

// ProcessEpoch runs the SinglePath strategy over one epoch's batch of
// reports and returns one response per report, in input order.
func (c *Coordinator) ProcessEpoch(reports []Report) ([]Response, error) {
	// Phase 0: candidate motion paths per object, and the Rall overlap
	// structure over all reporting FSAs. Only scratch is written until the
	// whole batch has validated, so a rejected batch leaves the path
	// store, the window and the counters unchanged.
	c.rall.Reset()
	if len(c.cps) < len(reports) {
		c.cps = append(c.cps, make([][]candidatePath, len(reports)-len(c.cps))...)
	}
	cps := c.cps[:len(reports)]
	// pathUses counts how many objects see each path among their
	// candidates, implementing Algorithm 2 lines 13–15 (cross-object
	// hotness accentuation) without materialising set intersections.
	clear(c.pathUses)
	for i, r := range reports {
		if err := c.CheckReport(r); err != nil {
			return nil, err
		}
		cps[i] = c.candidatePaths(cps[i][:0], r.State.Start, r.State.FSA)
		for _, cp := range cps[i] {
			c.pathUses[cp.id]++
		}
		c.rall.Add(r.State.FSA)
	}
	for i := range cps {
		for j := range cps[i] {
			// Boost by the number of OTHER objects sharing this candidate.
			cps[i][j].h += c.pathUses[cps[i][j].id] - 1
		}
	}

	// Selection phase. The responses are the caller's to keep.
	c.stats.Epochs++
	c.stats.Reports += len(reports)
	out := make([]Response, len(reports))
	for i, r := range reports {
		if len(cps[i]) > 0 {
			out[i] = c.selectPath(r, cps[i])
			continue
		}
		out[i] = c.selectVertex(r)
	}
	return out, nil
}

// candidatePaths appends to dst the available motion paths starting at s
// and ending inside fsa, with hotness pre-incremented by one (the
// reporting object's own potential crossing), per Algorithm 2's
// GetCandidatePaths.
func (c *Coordinator) candidatePaths(dst []candidatePath, s geom.Point, fsa geom.Rect) []candidatePath {
	c.grid.Query(fsa, func(e gridindex.Entry) bool {
		if e.Start.Eq(s) {
			i := c.slot[e.ID]
			dst = append(dst, candidatePath{id: e.ID, slot: i, end: e.End, h: c.table[i].Hotness + 1})
		}
		return true
	})
	return dst
}

// selectPath handles Case 1: choose the hottest candidate path and record
// the crossing. Ties prefer the longer path (the paper's score metric
// rewards length), then the smaller id for determinism.
func (c *Coordinator) selectPath(r Report, cands []candidatePath) Response {
	best := cands[0]
	bestLen := r.State.Start.Dist(best.end)
	for _, cp := range cands[1:] {
		l := r.State.Start.Dist(cp.end)
		if cp.h > best.h || (cp.h == best.h && (l > bestLen || (l == bestLen && cp.id < best.id))) {
			best, bestLen = cp, l
		}
	}
	c.cross(best.slot, r.State.Te)
	c.stats.Case1++
	return Response{
		ObjectID: r.ObjectID,
		End:      trajectory.TP(best.end, r.State.Te),
		PathID:   best.id,
		Case:     1,
	}
}

// candidateVertex is an available end vertex with its adjusted hotness.
type candidateVertex struct {
	p     geom.Point
	h     int
	fresh bool // true for the Case-3 overlap-generated vertex
}

// selectVertex handles Cases 2 and 3: gather candidate vertices, adjust
// their hotness by the overlap stabbing counts, add the deepest-overlap
// vertex, pick the hottest, and insert the new path sⁱ→p.
func (c *Coordinator) selectVertex(r Report) Response {
	fsa := r.State.FSA
	// Available vertices: distinct end vertices of paths ending in the FSA,
	// hotness = Σ hotness of converging paths (GetCandidateVertices). An
	// FSA holds a handful, so a slice with linear dedup beats a map.
	cands := c.verts[:0]
	c.grid.Query(fsa, func(e gridindex.Entry) bool {
		h := c.table[c.slot[e.ID]].Hotness
		for k := range cands {
			if cands[k].p == e.End {
				cands[k].h += h
				cands[k].p = plusZero(cands[k].p, e.End)
				return true
			}
		}
		cands = append(cands, candidateVertex{p: e.End, h: h})
		return true
	})
	for k := range cands {
		// Adjust by the count of the smallest overlap region containing p
		// (= the number of reporting FSAs stabbing p).
		cands[k].h += c.rall.StabCount(cands[k].p)
	}
	hadVertices := len(cands) > 0

	// Case-3 vertex: the deepest point of the FSA arrangement within this
	// FSA, canonicalised so objects reporting around the same road spot
	// pick the SAME vertex. The paper leaves the vertex choice within the
	// hottest overlap region Rm free ("e.g., by taking the centroid"); we
	// take the centroid of the ARRANGEMENT CELL around the deepest point —
	// the intersection of every reporting FSA containing it. The cell does
	// not depend on whose FSA the query came from, so every object whose
	// deepest point lands in that cell derives a bit-identical vertex (and
	// the cell lies inside each of those FSAs, keeping the response a valid
	// SSA seed). An ε-grid point inside the cell is preferred, aligning
	// vertices across epochs too. Subsequent paths then chain through
	// shared vertices, letting Case 1 accumulate hotness instead of
	// spawning near-duplicate paths.
	vm, hm := c.rall.DeepestWithin(fsa)
	if cell, n := c.rall.Cell(vm); n > 0 {
		vm = snapInto(cell.Centroid(), cell, c.cfg.Eps)
		if hm < n {
			hm = n
		}
	}
	cands = append(cands, candidateVertex{p: vm, h: hm, fresh: true})
	c.verts = cands

	// Choose the hottest; ties prefer existing vertices (they merge flows),
	// then the farther vertex from sⁱ (longer paths score higher).
	best := cands[0]
	for _, cv := range cands[1:] {
		if better(cv, best, r.State.Start) {
			best = cv
		}
	}

	// Reuse an identical path inserted earlier in this very epoch: phase-0
	// candidate sets cannot see intra-batch inserts, and storing duplicate
	// s→p paths would split their hotness.
	i, exists := c.findPath(r.State.Start, best.p)
	if !exists {
		i = c.insertPath(r.State.Start, best.p)
	}
	c.cross(i, r.State.Te)
	if hadVertices && !best.fresh {
		c.stats.Case2W++
	} else {
		c.stats.Case3++
	}
	return Response{
		ObjectID: r.ObjectID,
		End:      trajectory.TP(best.p, r.State.Te),
		PathID:   c.table[i].Path.ID,
		Case:     caseNumber(hadVertices, best.fresh),
	}
}

// plusZero returns p, whose coordinates equal q's, with each zero
// coordinate made +0 where q's is +0. End vertices (0,y) and (-0,y) are one
// vertex (coordinates compare with ==, and the ε-grid snap produces -0),
// so the vertex a Case-2 selection stores must not depend on which of its
// paths the index yields first: it carries +0 if any of them does.
func plusZero(p, q geom.Point) geom.Point {
	if math.Signbit(p.X) && !math.Signbit(q.X) {
		p.X = q.X
	}
	if math.Signbit(p.Y) && !math.Signbit(q.Y) {
		p.Y = q.Y
	}
	return p
}

func caseNumber(hadVertices, fresh bool) int {
	if hadVertices && !fresh {
		return 2
	}
	return 3
}

// better reports whether a should be preferred over b as an endpoint for an
// object starting at s.
func better(a, b candidateVertex, s geom.Point) bool {
	if a.h != b.h {
		return a.h > b.h
	}
	if a.fresh != b.fresh {
		return !a.fresh // prefer existing vertices on ties
	}
	da, db := s.Dist(a.p), s.Dist(b.p)
	if da != db {
		return da > db
	}
	// Final deterministic tiebreak on coordinates.
	if a.p.X != b.p.X {
		return a.p.X < b.p.X
	}
	return a.p.Y < b.p.Y
}

// snapInto rounds p to the nearest point of the ε-grid; if that canonical
// point falls outside r (which caps the snap displacement at ε/√2·…, well
// within tolerance), the original point is kept so the response stays a
// valid SSA seed.
func snapInto(p geom.Point, r geom.Rect, eps float64) geom.Point {
	snapped := geom.Pt(
		math.Round(p.X/eps)*eps,
		math.Round(p.Y/eps)*eps,
	)
	if r.Contains(snapped) {
		return snapped
	}
	return p
}

// findPath looks up an existing path with exactly the given endpoints and
// returns its slot.
func (c *Coordinator) findPath(s, e geom.Point) (int32, bool) {
	var id motion.PathID
	found := false
	c.grid.Query(geom.Rect{Lo: e, Hi: e}, func(entry gridindex.Entry) bool {
		if entry.End.Eq(e) && entry.Start.Eq(s) {
			id, found = entry.ID, true
			return false
		}
		return true
	})
	if !found {
		return 0, false
	}
	return c.slot[id], true
}

// insertPath stores a new motion path under its content-addressed id,
// indexes its end vertex and returns its slot. The id depends only on the
// geometry, so a path that expires and is re-discovered — or is discovered
// independently by another partition of a split deployment — comes back
// under the same id. An id already stored, which only a hash collision
// could produce, keeps its slot and hotness and takes the new geometry, as
// the grid replaces its entry.
func (c *Coordinator) insertPath(s, e geom.Point) int32 {
	id := motion.PathIDFor(s, e)
	p := motion.Path{ID: id, S: s, E: e}
	i, ok := c.slot[id]
	if ok {
		c.table[i].Path = p
	} else {
		i = int32(len(c.table))
		c.slot[id] = i
		c.table = append(c.table, motion.HotPath{Path: p})
	}
	c.grid.Insert(gridindex.Entry{ID: id, End: e, Start: s})
	c.stats.PathsCreated++
	return i
}
