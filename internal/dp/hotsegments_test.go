package dp

import (
	"testing"

	"hotpaths/internal/geom"
)

func TestNewHotSegmentsValidation(t *testing.T) {
	if _, err := NewHotSegments(0, 100); err == nil {
		t.Error("eps=0 must error")
	}
	if _, err := NewHotSegments(1, 0); err == nil {
		t.Error("W=0 must error")
	}
}

func TestOfferInsertAndMerge(t *testing.T) {
	h, err := NewHotSegments(2, 100)
	if err != nil {
		t.Fatal(err)
	}
	s1 := geom.Seg(geom.Pt(0, 0), geom.Pt(100, 0))
	id1, merged := h.Offer(s1, 10)
	if merged {
		t.Error("first offer cannot merge")
	}
	if h.IndexSize() != 1 || h.Hotness(id1) != 1 {
		t.Errorf("size=%d hot=%d", h.IndexSize(), h.Hotness(id1))
	}
	// A slightly longer, slightly offset segment whose expanded MBB
	// contains s1 entirely: must merge.
	s2 := geom.Seg(geom.Pt(-1, 1), geom.Pt(101, 1))
	id2, merged := h.Offer(s2, 20)
	if !merged || id2 != id1 {
		t.Errorf("expected merge into %d, got %d merged=%v", id1, id2, merged)
	}
	if h.IndexSize() != 1 || h.Hotness(id1) != 2 {
		t.Errorf("after merge: size=%d hot=%d", h.IndexSize(), h.Hotness(id1))
	}
	// A far-away segment must insert fresh.
	s3 := geom.Seg(geom.Pt(500, 500), geom.Pt(600, 500))
	id3, merged := h.Offer(s3, 30)
	if merged || id3 == id1 {
		t.Error("distant segment must not merge")
	}
	if h.IndexSize() != 2 {
		t.Errorf("size = %d", h.IndexSize())
	}
}

func TestOfferPartialOverlapDoesNotMerge(t *testing.T) {
	h, _ := NewHotSegments(2, 100)
	h.Offer(geom.Seg(geom.Pt(0, 0), geom.Pt(100, 0)), 10)
	// Overlapping but extending beyond the candidate's expanded MBB.
	_, merged := h.Offer(geom.Seg(geom.Pt(50, 0), geom.Pt(90, 0)), 20)
	if merged {
		t.Error("candidate MBB [48-92] cannot contain the 0-100 segment")
	}
	if h.IndexSize() != 2 {
		t.Errorf("size = %d", h.IndexSize())
	}
}

func TestAdvanceEviction(t *testing.T) {
	h, _ := NewHotSegments(2, 100)
	id, _ := h.Offer(geom.Seg(geom.Pt(0, 0), geom.Pt(100, 0)), 10)
	h.Offer(geom.Seg(geom.Pt(-1, 1), geom.Pt(101, 1)), 50) // merges, expiry 150
	h.Advance(110)
	if h.Hotness(id) != 1 {
		t.Errorf("hotness = %d after first expiry", h.Hotness(id))
	}
	if h.IndexSize() != 1 {
		t.Error("segment must survive while hot")
	}
	h.Advance(150)
	if h.IndexSize() != 0 {
		t.Error("segment must be evicted at zero hotness")
	}
	// After eviction, the same geometry inserts fresh.
	id2, merged := h.Offer(geom.Seg(geom.Pt(0, 0), geom.Pt(100, 0)), 200)
	if merged || id2 == id {
		t.Error("evicted segment must not be merged into")
	}
}

func TestTopKAndScore(t *testing.T) {
	h, _ := NewHotSegments(2, 1000)
	a := geom.Seg(geom.Pt(0, 0), geom.Pt(100, 0))
	b := geom.Seg(geom.Pt(0, 500), geom.Pt(10, 500))
	h.Offer(a, 1)
	h.Offer(a, 2) // merge: hotness 2
	h.Offer(b, 3)
	top := h.TopK(10)
	if len(top) != 2 {
		t.Fatalf("topk len = %d", len(top))
	}
	if top[0].Hotness != 2 || top[0].Path.Length() != 100 {
		t.Errorf("top[0] = %+v", top[0])
	}
	if got := h.Score(1); got != 200 {
		t.Errorf("Score(1) = %v", got)
	}
	if got := h.Score(10); got != 105 {
		t.Errorf("Score(10) = %v", got)
	}
	if len(h.TopK(1)) != 1 {
		t.Error("TopK truncation")
	}
}

func TestMergePrefersLongestContained(t *testing.T) {
	h, _ := NewHotSegments(5, 1000)
	short := geom.Seg(geom.Pt(10, 0), geom.Pt(30, 0))
	long := geom.Seg(geom.Pt(0, 0), geom.Pt(90, 0))
	idShort, _ := h.Offer(short, 1)
	idLong, _ := h.Offer(geom.Seg(geom.Pt(0, 2), geom.Pt(90, 2)), 2)
	_ = long
	// Candidate containing both: must merge into the longer one.
	got, merged := h.Offer(geom.Seg(geom.Pt(-2, 1), geom.Pt(95, 1)), 3)
	if !merged {
		t.Fatal("expected merge")
	}
	if got != idLong {
		t.Errorf("merged into %d want longest %d (short=%d)", got, idLong, idShort)
	}
}
