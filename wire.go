package hotpaths

import (
	"io"

	"hotpaths/internal/geojson"
	"hotpaths/internal/geom"
	"hotpaths/internal/motion"
)

// EpochHeader is the HTTP response header hotpathsd's read endpoints set
// to the epoch sequence number of the snapshot that answered the request.
// A scatter-gather reader uses it to verify that every partition of a
// fleet answered at the same epoch before merging their results.
const EpochHeader = "X-Hotpaths-Epoch"

// ClockHeader is the companion of EpochHeader carrying the snapshot's
// clock (the timestamp of the last Tick it reflects).
const ClockHeader = "X-Hotpaths-Clock"

// PartialHeader is set by a gateway when a scatter-gather response is
// missing one or more partitions (HTTP 206): a comma-separated list of
// the partition ids whose results are absent.
const PartialHeader = "X-Hotpaths-Partial"

// PointJSON is the wire form of a Point.
type PointJSON struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// PathJSON is the canonical wire form of a HotPath: the path's identity
// and geometry plus its 1-based rank in the result it was taken from and
// the derived length and score, so clients need no follow-up computation.
// It is the element type of hotpathsd's /topk and /paths responses.
type PathJSON struct {
	ID      uint64    `json:"id"`
	Rank    int       `json:"rank"`
	Hotness int       `json:"hotness"`
	Length  float64   `json:"length"`
	Score   float64   `json:"score"`
	Start   PointJSON `json:"start"`
	End     PointJSON `json:"end"`
}

// PathsJSON converts a query result to its wire form, assigning ranks in
// the order given (pass a TopK or Query result so rank 1 is the best
// match). It returns a non-nil slice so an empty result encodes as [].
func PathsJSON(paths []HotPath) []PathJSON {
	out := make([]PathJSON, len(paths))
	for i, hp := range paths {
		out[i] = PathJSON{
			ID:      hp.ID,
			Rank:    i + 1,
			Hotness: hp.Hotness,
			Length:  hp.Length(),
			Score:   hp.Score(),
			Start:   PointJSON{hp.Start.X, hp.Start.Y},
			End:     PointJSON{hp.End.X, hp.End.Y},
		}
	}
	return out
}

// HotPath converts the wire form back to a HotPath, dropping the derived
// rank/length/score fields (they are recomputed from geometry and hotness
// wherever they are needed). Float64 coordinates survive the JSON round
// trip bit-exactly — Go emits the shortest representation that parses
// back to the same value — so a merged, re-encoded result is
// byte-identical to one computed locally from the same paths.
func (p PathJSON) HotPath() HotPath {
	return HotPath{
		ID:      p.ID,
		Start:   Pt(p.Start.X, p.Start.Y),
		End:     Pt(p.End.X, p.End.Y),
		Hotness: p.Hotness,
	}
}

// ObservationJSON is the wire form of one measurement, the element of
// hotpathsd's POST /observe body. It lives in the library so routers and
// clients share one encoding with the daemon.
type ObservationJSON struct {
	Object int     `json:"object"`
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
	T      int64   `json:"t"`
	SigmaX float64 `json:"sigma_x,omitempty"`
	SigmaY float64 `json:"sigma_y,omitempty"`
}

// Observation converts the wire form to the ingestion type.
func (o ObservationJSON) Observation() Observation {
	return Observation{
		ObjectID: o.Object,
		X:        o.X, Y: o.Y, T: o.T,
		SigmaX: o.SigmaX, SigmaY: o.SigmaY,
	}
}

// WriteGeoJSON writes paths as a GeoJSON FeatureCollection in the order
// given: one LineString feature per path with id/rank/hotness/length/score
// properties, rank following the input order. The encoding is the single
// internal/geojson schema, so the daemon, the snapshot dump and the render
// tools all emit the same wire format.
func WriteGeoJSON(w io.Writer, paths []HotPath) error {
	mp := make([]motion.HotPath, len(paths))
	for i, hp := range paths {
		mp[i] = motion.HotPath{
			Path: motion.Path{
				ID: motion.PathID(hp.ID),
				S:  geom.Pt(hp.Start.X, hp.Start.Y),
				E:  geom.Pt(hp.End.X, hp.End.Y),
			},
			Hotness: hp.Hotness,
		}
	}
	return geojson.Write(w, geojson.FromHotPaths(mp))
}
