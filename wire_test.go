package hotpaths_test

import (
	"encoding/json"
	"testing"

	"hotpaths"
)

// observeBody encodes one batch the way every shipped client does: the
// encoding/json form of {observations, tick}.
func observeBody(tb testing.TB, batch []hotpaths.Observation, tick int64) []byte {
	tb.Helper()
	req := struct {
		Observations []hotpaths.ObservationJSON `json:"observations"`
		Tick         int64                      `json:"tick,omitempty"`
	}{Tick: tick}
	for _, o := range batch {
		// Offsets put the coordinates in the range of a projected city
		// map, as the benchmark's are: 16–17 significant digits each.
		req.Observations = append(req.Observations, hotpaths.ObservationJSON{
			Object: o.ObjectID, X: o.X + 470000, Y: o.Y + 4200000, T: o.T,
		})
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// A warm scan of a benchmark-sized body allocates nothing: not per body,
// not per observation, not per number.
func TestScanObserveAllocatesNothing(t *testing.T) {
	batch := hotpaths.IngestWorkload(2000, 1, 5)[0]
	body := observeBody(t, batch, 1)
	got := make([]hotpaths.Observation, 0, len(batch))
	scan := func() {
		got = got[:0]
		tick, ok := hotpaths.ScanObserve(body, func(o hotpaths.ObservationJSON, raw []byte) {
			got = append(got, o.Observation())
		})
		if !ok || tick != 1 {
			t.Fatalf("scan: tick %d ok %v", tick, ok)
		}
	}
	if n := testing.AllocsPerRun(20, scan); n != 0 {
		t.Errorf("scanning a %d-observation body allocates %v times, want 0", len(batch), n)
	}
	if len(got) != len(batch) {
		t.Fatalf("scanned %d observations, want %d", len(got), len(batch))
	}
	for i, o := range got {
		want := batch[i]
		want.X, want.Y = want.X+470000, want.Y+4200000
		if o != want {
			t.Fatalf("observation %d = %+v, want %+v", i, o, want)
		}
	}
}
