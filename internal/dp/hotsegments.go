package dp

import (
	"fmt"
	"math"
	"sort"

	"hotpaths/internal/geom"
	"hotpaths/internal/hotness"
	"hotpaths/internal/motion"
	"hotpaths/internal/trajectory"
)

// HotSegments is the paper's DP benchmark store (Section 6). Candidate
// segments produced by per-object OpeningWindow simplifiers are offered via
// Offer. If an existing segment lies completely within the candidate's
// ε-expanded MBB, the existing segment's hotness is incremented; otherwise
// the candidate is stored with hotness 1. Time is ignored for matching, but
// hotness still expires from the sliding window W.
type HotSegments struct {
	eps      float64
	cellSize float64
	hot      *hotness.Window
	counts   map[motion.PathID]int // hotness of each live segment
	segs     map[motion.PathID]geom.Segment
	buckets  map[[2]int][]motion.PathID // midpoint cell -> ids
	nextID   motion.PathID
}

// NewHotSegments builds a store with the given tolerance and window.
func NewHotSegments(eps float64, w trajectory.Time) (*HotSegments, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("dp: eps must be positive, got %v", eps)
	}
	hot, err := hotness.New(w)
	if err != nil {
		return nil, fmt.Errorf("dp: %w", err)
	}
	return &HotSegments{
		eps:      eps,
		cellSize: 4 * eps,
		hot:      hot,
		counts:   make(map[motion.PathID]int),
		segs:     make(map[motion.PathID]geom.Segment),
		buckets:  make(map[[2]int][]motion.PathID),
	}, nil
}

func (h *HotSegments) midCell(s geom.Segment) [2]int {
	m := s.A.Lerp(s.B, 0.5)
	return [2]int{int(math.Floor(m.X / h.cellSize)), int(math.Floor(m.Y / h.cellSize))}
}

// Offer submits a candidate segment observed at exit time te. It returns
// the id of the segment whose hotness was incremented (existing or new) and
// whether the candidate was merged into an existing segment.
func (h *HotSegments) Offer(seg geom.Segment, te trajectory.Time) (motion.PathID, bool) {
	mbb := seg.MBB().Expand(h.eps)
	// One range query over the grid: candidate cells are those the MBB
	// covers; a contained segment's midpoint necessarily lies in the MBB.
	c0 := int(math.Floor(mbb.Lo.X / h.cellSize))
	r0 := int(math.Floor(mbb.Lo.Y / h.cellSize))
	c1 := int(math.Floor(mbb.Hi.X / h.cellSize))
	r1 := int(math.Floor(mbb.Hi.Y / h.cellSize))
	bestID, found := motion.PathID(0), false
	bestLen := -1.0
	for row := r0; row <= r1; row++ {
		for col := c0; col <= c1; col++ {
			for _, id := range h.buckets[[2]int{col, row}] {
				s, live := h.segs[id]
				if !live {
					continue
				}
				if mbb.Contains(s.A) && mbb.Contains(s.B) {
					// Prefer the longest contained segment for determinism.
					if l := s.Length(); l > bestLen || (l == bestLen && (!found || id < bestID)) {
						bestID, bestLen, found = id, l, true
					}
				}
			}
		}
	}
	if found {
		h.cross(bestID, te)
		return bestID, true
	}
	id := h.nextID
	h.nextID++
	h.segs[id] = seg
	cell := h.midCell(seg)
	h.buckets[cell] = append(h.buckets[cell], id)
	h.cross(id, te)
	return id, false
}

func (h *HotSegments) cross(id motion.PathID, te trajectory.Time) {
	h.counts[id]++
	h.hot.Cross(id, te)
}

// Advance slides the window, evicting segments whose hotness reaches zero.
func (h *HotSegments) Advance(now trajectory.Time) {
	h.hot.Advance(now, func(id motion.PathID) {
		if c := h.counts[id] - 1; c > 0 {
			h.counts[id] = c
			return
		}
		delete(h.counts, id)
		seg := h.segs[id]
		cell := h.midCell(seg)
		ids := h.buckets[cell]
		for i, x := range ids {
			if x == id {
				ids[i] = ids[len(ids)-1]
				h.buckets[cell] = ids[:len(ids)-1]
				break
			}
		}
		if len(h.buckets[cell]) == 0 {
			delete(h.buckets, cell)
		}
		delete(h.segs, id)
	})
}

// IndexSize returns the number of live segments.
func (h *HotSegments) IndexSize() int { return len(h.segs) }

// Hotness returns the current hotness of a stored segment.
func (h *HotSegments) Hotness(id motion.PathID) int { return h.counts[id] }

// TopK returns the k hottest segments as HotPaths (sorted by hotness, then
// length, then id). k ≤ 0 returns all.
func (h *HotSegments) TopK(k int) []motion.HotPath {
	out := make([]motion.HotPath, 0, len(h.segs))
	for id, s := range h.segs {
		out = append(out, motion.HotPath{
			Path:    motion.Path{ID: id, S: s.A, E: s.B},
			Hotness: h.counts[id],
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Hotness != out[j].Hotness {
			return out[i].Hotness > out[j].Hotness
		}
		li, lj := out[i].Path.Length(), out[j].Path.Length()
		if li != lj {
			return li > lj
		}
		return out[i].Path.ID < out[j].Path.ID
	})
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out
}

// Score returns the average hotness×length over the top-k segments.
func (h *HotSegments) Score(k int) float64 { return motion.TopKScore(h.TopK(k)) }
