package hotpaths

import (
	"bytes"
	"io"
	"math"
	"strconv"

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

// ---- the canonical body, without reflection -------------------------------
//
// ScanObserve recognises the JSON body that carries the system's volume —
// a POST /observe batch — in the form every shipped encoder emits, and
// decodes it in one pass with no allocation. It is strict on purpose:
// keys are the exact lower-case names without escapes (in any order, each
// at most once), values are plain JSON numbers (integers without fraction
// or exponent), nothing is null and nothing but whitespace follows the
// value. Whatever else encoding/json would also accept — other key
// spellings, duplicate keys, unknown fields, "t":1e3 — it does not judge:
// it reports false, and the caller hands the same bytes to encoding/json,
// which stays the definition of the accepted language and the author of
// every error.

// ScanObserve walks a canonical POST /observe body,
//
//	{"observations":[{"object":7,"x":1.5,"y":2,"t":9,"sigma_x":0.5,"sigma_y":0.5},…],"tick":9}
//
// calling each once per observation, in order, with the decoded value and
// its JSON text (a slice of body). Every key is optional, as it is to
// encoding/json. It returns the tick (0 when absent). When ok is false
// the body is outside the strict subset — each may already have been
// called for a prefix of it — and must be decoded by encoding/json.
func ScanObserve(body []byte, each func(o ObservationJSON, raw []byte)) (tick int64, ok bool) {
	s := wireScanner{b: body}
	var seen fieldSet
	ok = s.object(func(key []byte) bool {
		switch string(key) {
		case "observations":
			return seen.first(0) && s.array(func() bool {
				s.skip()
				start := s.i
				o, ok := s.observation()
				if ok {
					each(o, s.b[start:s.i])
				}
				return ok
			})
		case "tick":
			var ok bool
			tick, ok = s.int()
			return ok && seen.first(1)
		}
		return false
	})
	return tick, ok && s.end()
}

func (s *wireScanner) observation() (o ObservationJSON, ok bool) {
	var seen fieldSet
	ok = s.object(func(key []byte) (ok bool) {
		switch string(key) {
		case "object":
			o.Object, ok = s.goInt()
			return ok && seen.first(0)
		case "x":
			o.X, ok = s.float()
			return ok && seen.first(1)
		case "y":
			o.Y, ok = s.float()
			return ok && seen.first(2)
		case "t":
			o.T, ok = s.int()
			return ok && seen.first(3)
		case "sigma_x":
			o.SigmaX, ok = s.float()
			return ok && seen.first(4)
		case "sigma_y":
			o.SigmaY, ok = s.float()
			return ok && seen.first(5)
		}
		return false
	})
	return o, ok
}

// fieldSet records which keys of one object have been seen, so a
// duplicate — which encoding/json resolves by its own merge rules — is
// refused.
type fieldSet uint8

func (f *fieldSet) first(bit uint) bool {
	dup := *f&(1<<bit) != 0
	*f |= 1 << bit
	return !dup
}

// maxNumberLen bounds the number literals the scanner converts. A float64
// prints in at most 24 bytes; strconv takes the literal as a string, and
// the conversion of up to 32 bytes needs no allocation.
const maxNumberLen = 32

// wireScanner is a cursor over a JSON text. Its methods skip leading
// whitespace and report false on input outside the strict subset, leaving
// the cursor anywhere.
type wireScanner struct {
	b []byte
	i int
}

func (s *wireScanner) skip() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

// eat consumes c if it is the next token.
func (s *wireScanner) eat(c byte) bool {
	s.skip()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// end reports that nothing but whitespace is left.
func (s *wireScanner) end() bool {
	s.skip()
	return s.i == len(s.b)
}

// object walks one JSON object: field is called with each key, the cursor
// on the key's value, and consumes that value.
func (s *wireScanner) object(field func(key []byte) bool) bool {
	if !s.eat('{') {
		return false
	}
	if s.eat('}') {
		return true
	}
	for {
		if !s.eat('"') {
			return false
		}
		n := bytes.IndexByte(s.b[s.i:], '"')
		if n < 0 {
			return false
		}
		// An escaped quote ends the key early, at a backslash, and no
		// field name has one.
		key := s.b[s.i : s.i+n]
		s.i += n + 1
		if !s.eat(':') || !field(key) {
			return false
		}
		if !s.eat(',') {
			return s.eat('}')
		}
	}
}

// array walks one JSON array: elem consumes each element.
func (s *wireScanner) array(elem func() bool) bool {
	if !s.eat('[') {
		return false
	}
	if s.eat(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !s.eat(',') {
			return s.eat(']')
		}
	}
}

// digits consumes a run of decimal digits and returns how many.
func (s *wireScanner) digits() int {
	start := s.i
	for s.i < len(s.b) && s.b[s.i]-'0' <= 9 {
		s.i++
	}
	return s.i - start
}

// natural reads, at the cursor, JSON's int production without its sign:
// digits with no leading zero, in range for uint64. A fraction or an
// exponent behind it is left for the caller's next eat to trip over.
func (s *wireScanner) natural() (v uint64, ok bool) {
	start := s.i
	if n := s.digits(); n == 0 || (n > 1 && s.b[start] == '0') {
		return 0, false
	}
	for _, c := range s.b[start:s.i] {
		d := uint64(c - '0')
		if v > (math.MaxUint64-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	return v, true
}

func (s *wireScanner) int() (int64, bool) {
	neg := s.eat('-')
	v, ok := s.natural()
	switch {
	case !ok:
		return 0, false
	case neg && v <= 1<<63:
		return -int64(v), true // 1<<63 converts to MinInt64, its own negation
	case !neg && v <= math.MaxInt64:
		return int64(v), true
	}
	return 0, false
}

// goInt reads an integer in range for the platform's int.
func (s *wireScanner) goInt() (int, bool) {
	v, ok := s.int()
	return int(v), ok && int64(int(v)) == v
}

// float reads a JSON number as encoding/json does into a float64 field:
// grammar first — strconv alone would also take hex, underscores and
// "inf" — then strconv.ParseFloat, whose range error is a refusal.
func (s *wireScanner) float() (float64, bool) {
	s.skip()
	start := s.i
	if s.i < len(s.b) && s.b[s.i] == '-' {
		s.i++
	}
	if n := s.digits(); n == 0 || (n > 1 && s.b[s.i-n] == '0') {
		return 0, false
	}
	if s.i < len(s.b) && s.b[s.i] == '.' {
		s.i++
		if s.digits() == 0 {
			return 0, false
		}
	}
	if s.i < len(s.b) && s.b[s.i]|0x20 == 'e' {
		s.i++
		if s.i < len(s.b) && (s.b[s.i] == '+' || s.b[s.i] == '-') {
			s.i++
		}
		if s.digits() == 0 {
			return 0, false
		}
	}
	if s.i-start > maxNumberLen {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(s.b[start:s.i]), 64)
	return v, err == nil
}
