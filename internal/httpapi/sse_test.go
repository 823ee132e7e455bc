package httpapi_test

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"

	"hotpaths"
	"hotpaths/internal/httpapi"
)

// Encoder and decoder live together, so hold them to each other: a
// stream of deltas written by WriteDelta must parse back equal, through
// every shape the hub emits — the reset baseline, a slow-consumer reset
// with missed epochs, an increment with all three parts, and an increment
// where nothing left (nil Left goes out as [] and comes back nil).
func TestSSEDeltaRoundTrip(t *testing.T) {
	a := hotpaths.HotPath{ID: 7, Start: hotpaths.Pt(0.1, -2), End: hotpaths.Pt(30, 4.5), Hotness: 3}
	b := hotpaths.HotPath{ID: 9, Start: hotpaths.Pt(1, 1), End: hotpaths.Pt(2, 2), Hotness: 1}
	deltas := []hotpaths.Delta{
		{Clock: 10, Epoch: 1, Reset: true, Entered: []hotpaths.HotPath{a, b}},
		{Clock: 20, Epoch: 2, Entered: []hotpaths.HotPath{b}, Changed: []hotpaths.HotPath{a}, Left: []uint64{4, 5}},
		{Clock: 30, Epoch: 3, Changed: []hotpaths.HotPath{a}},
		{Clock: 70, Epoch: 7, Reset: true, Missed: 3},
	}
	var buf bytes.Buffer
	for _, d := range deltas {
		if err := httpapi.WriteDelta(&buf, d); err != nil {
			t.Fatal(err)
		}
	}
	wire := buf.String()
	if !strings.HasPrefix(wire, "id: 1\nevent: delta\ndata: {") {
		t.Errorf("framing: %q", wire[:40])
	}
	if strings.Contains(wire, "null") {
		t.Errorf("empty slices must encode as [], got %s", wire)
	}
	if strings.Contains(wire, `"rank":1`) {
		t.Errorf("delta paths must carry rank 0, got %s", wire)
	}

	// A foreign event type and a comment line in between must be skipped.
	rd := httpapi.NewDeltaReader(io.MultiReader(
		strings.NewReader(": keep-alive\n\nevent: ping\ndata: {}\n\n"), &buf))
	for i, want := range deltas {
		got, err := rd.Next()
		if err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("delta %d round trip:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if _, err := rd.Next(); err != io.EOF {
		t.Errorf("end of stream: %v, want io.EOF", err)
	}
}
