package gateway

import (
	"bytes"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"

	"hotpaths"
	"hotpaths/internal/httpapi"
)

// regionLattice is where fuzzed path vertices and box edges lie: both
// zeros, the edges and the middle of regionGrid's bounds, and two points
// outside them, so a box edge often passes through a path's end vertex.
var regionLattice = [8]float64{math.Copysign(0, -1), 0, 2.5, 5, 7.5, 10, -3, 13}

// regionGrid is the grid a fuzzed partition answers region queries
// from, as a daemon's snapshot does: 4×4 cells over [0,10]².
var regionGrid = hotpaths.Rect{Max: hotpaths.Pt(10, 10)}

// regionPath is lattice path n (0..63): its geometry follows from its
// id, so every partition holding a path agrees on where it lies.
func regionPath(n byte, hotness int) hotpaths.HotPath {
	at := func(i byte) float64 { return regionLattice[i&7] }
	return hotpaths.HotPath{
		ID:      uint64(n)*0x9e3779b97f4a7c15 + 1,
		Hotness: hotness,
		Start:   hotpaths.Pt(at(n+3), at(n>>3+5)),
		End:     hotpaths.Pt(at(n), at(n>>3)),
	}
}

// regionFleet decodes fuzz bytes into 4 partitions' path sets: each byte
// pair is one holding, the first byte naming the partition (top two
// bits) and the lattice path, the second its hotness there (1..7). A
// partition holds a path once; a repeated holding adds to its hotness.
func regionFleet(b []byte) [][]hotpaths.HotPath {
	sets := make([][]hotpaths.HotPath, 4)
	for ; len(b) >= 2; b = b[2:] {
		part, n, h := b[0]>>6, b[0]&63, 1+int(b[1]%7)
		held := false
		for i := range sets[part] {
			if sets[part][i].ID == regionPath(n, 0).ID {
				sets[part][i].Hotness += h
				held = true
			}
		}
		if !held {
			sets[part] = append(sets[part], regionPath(n, h))
		}
	}
	return sets
}

// regionURL builds a client read: box holds four 3-bit lattice indexes
// (min x, min y, max x, max y; swapped where max < min), flags pick the
// endpoint (bit 0: /topk), the order (bit 1: score), k's spelling (bit
// 2: limit) and whether k is sent (bit 3).
func regionURL(box uint32, k, minHotness, flags uint8) string {
	edge := func(shift uint) float64 { return regionLattice[box>>shift&7] }
	x0, y0, x1, y1 := edge(0), edge(3), edge(6), edge(9)
	if x1 < x0 {
		x0, x1 = x1, x0
	}
	if y1 < y0 {
		y0, y1 = y1, y0
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	vals := url.Values{"bbox": {f(x0) + "," + f(y0) + "," + f(x1) + "," + f(y1)}}
	if minHotness%8 > 0 {
		vals.Set("min_hotness", strconv.Itoa(int(minHotness%8)))
	}
	if flags&2 != 0 {
		vals.Set("sort", "score")
	}
	if flags&8 != 0 {
		name := "k"
		if flags&4 != 0 {
			name = "limit"
		}
		vals.Set(name, strconv.Itoa(int(k%6)))
	}
	endpoint := "/paths"
	if flags&1 != 0 {
		endpoint = "/topk"
	}
	return endpoint + "?" + vals.Encode()
}

// FuzzRegionGather holds a region read's pushdown to the full gather.
// Each partition answers the leg the read pushes down as a daemon's
// binary /paths does — a gridded snapshot's Matches, in an order the
// fuzz input shuffles, sent as the binary body — and the gateway's merge
// of those answers, taken in a shuffled partition order too and queried
// with the client's parameters, must equal modelMerge of every
// partition's full set queried alike, byte for byte as JSON and as
// GeoJSON.
func FuzzRegionGather(f *testing.F) {
	box := func(x0, y0, x1, y1 uint32) uint32 { return x0 | y0<<3 | x1<<6 | y1<<9 }
	everywhere := box(6, 6, 7, 7)
	// Path 9 is held at hotness 1 by partitions 0 and 1: only the sum
	// clears min_hotness 2.
	f.Add([]byte{9, 0, 1<<6 | 9, 0, 10, 2}, everywhere, uint8(0), uint8(2), uint8(0), uint64(0))
	// Partition 0 ranks path 10 above path 9, which the fleet ranks
	// first: a per-partition top 1 loses it.
	f.Add([]byte{10, 1, 9, 0, 1<<6 | 9, 1}, everywhere, uint8(1), uint8(0), uint8(8), uint64(1))
	// End vertices on both zeros, inside the box [-0,0]².
	f.Add([]byte{0, 0, 1, 1, 8, 2, 1<<6 | 9, 3, 2<<6 | 9, 1}, box(0, 0, 1, 1), uint8(3), uint8(0), uint8(1|2|4|8), uint64(2))
	// Box edges on the grid's bounds and beyond them.
	f.Add([]byte{6, 0, 7, 1, 1<<6 | 7, 2, 3<<6 | 54, 4, 63, 5}, box(1, 5, 7, 6), uint8(2), uint8(1), uint8(2|8), uint64(3))
	f.Fuzz(func(t *testing.T, paths []byte, box uint32, k, minHotness, flags uint8, order uint64) {
		const defaultK = 3
		client := httptest.NewRequest(http.MethodGet, regionURL(box, k, minHotness, flags), nil)
		qK := 0
		if flags&1 != 0 {
			qK = defaultK
		}
		q, err := httpapi.ParseQuery(client, qK)
		if err != nil {
			t.Fatalf("%s: %v", client.URL, err)
		}
		leg, err := httpapi.ParseQuery(httptest.NewRequest(http.MethodGet, "/paths?"+pushdown(client.URL.Query()), nil), 0)
		if err != nil {
			t.Fatalf("leg of %s: %v", client.URL, err)
		}
		sets := regionFleet(paths)
		shuffle := rand.New(rand.NewPCG(order, 0)).Shuffle
		answers := make([][]hotpaths.HotPath, len(sets))
		for i, set := range sets {
			answers[i] = hotpaths.SnapshotOf(set, regionGrid, 4, 4, defaultK).Matches(leg)
			shuffle(len(answers[i]), func(a, b int) { answers[i][a], answers[i][b] = answers[i][b], answers[i][a] })
		}
		shuffle(len(answers), func(a, b int) { answers[a], answers[b] = answers[b], answers[a] })
		region := mergeBodies(t, answers, defaultK)
		full := hotpaths.SnapshotOf(modelMerge(sets), hotpaths.Rect{}, 0, 0, defaultK)
		for _, geo := range []bool{false, true} {
			write := func(snap hotpaths.Snapshot) []byte {
				rec := httptest.NewRecorder()
				httpapi.WritePaths(rec, client, http.StatusOK, 0, 0, snap.Query(q), geo)
				return rec.Body.Bytes()
			}
			if got, want := write(region), write(full); !bytes.Equal(got, want) {
				t.Fatalf("%s (geo %v): the region gather answers\n%s\nthe full gather\n%s", client.URL, geo, got, want)
			}
		}
	})
}
