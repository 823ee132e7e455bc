package hotpaths

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"hotpaths/internal/coordinator"
	"hotpaths/internal/engine"
	"hotpaths/internal/hotness"
	"hotpaths/internal/motion"
	"hotpaths/internal/raytrace"
	"hotpaths/internal/trajectory"
)

// Checkpoint codec: the serialized form of an Engine's complete state,
// written by the durability layer at epoch boundaries so recovery replays
// at most one window of WAL records instead of the full history, and
// fetched by followers over HTTP as their bootstrap.
//
// The payload is framed as
//
//	"HPCK"  magic
//	uint32  LE version
//	uint32  LE CRC-32C of the body
//	body
//
// The body is a flat sequence of fields with no names or types. An int
// (and a timestamp) is a zigzag varint, a count a uvarint, a float its
// 8 IEEE-754 bits little-endian (so -0 and every NaN survive), a path id
// 8 bytes little-endian (ids are uniform hashes) and a bool one byte, 0
// or 1. A point is x then y, a rect lo then hi. In order:
//
//	rules                        uvarint (see rules)
//	config                       Eps, Delta float; W, Epoch, K int;
//	                             Bounds rect; GridCols, GridRows int
//	clock, observations, reports, responses   int
//	pending   count × (object int, report state)
//	filters   count × (object int, sigmaX, sigmaY float,
//	                   report state, waiting bool, lastT int,
//	                   buffer count × (point, t int),
//	                   processed, sent, responses, buffered, maxBuffer int)
//	paths     count × (id, start point, end point)
//	stats     epochs, reports, case1, case2W, case3,
//	          created, expired, crossings int
//	crossings count × (expiry int, id)
//
// where a report state is start point, ts int, fsa rect, te int. Filters
// are in object-id order, paths in id order and crossings in the hotness
// window's heap order. The decoder accepts exactly what the encoder
// writes: a non-minimal varint, a bool byte other than 0 or 1, a count
// the remaining bytes cannot hold and a trailing byte are each refused,
// so encode(decode(b)) == b for every accepted b.
//
// The body embeds the resolved Config the state was produced under;
// decoding verifies it bit for bit against the recovering instance's
// Config, since restoring state into a differently-parameterised pipeline
// would break the determinism that recovery relies on.
//
// Version 1 and 2 bodies were gob (version 1 brought a -0 coordinate
// back as +0). Older versions are refused by number — recovery falls back
// to the journal and says so if that cannot reach.
const checkpointVersion = 3

// rules identifies what a given input stream produces: a change to the
// pipeline's behaviour bumps it, and a checkpoint written under other
// rules is refused, since replaying the journal past it would silently
// diverge from the state its writer held.
const rules = 0

var checkpointMagic = []byte("HPCK")

var checkpointCRC = crc32.MakeTable(crc32.Castagnoli)

// A checkpointVersionError refuses a checkpoint written in a format this
// build does not read; typed so a failed recovery can be seen to name it.
type checkpointVersionError struct{ version uint32 }

func (e *checkpointVersionError) Error() string {
	return fmt.Sprintf("hotpaths: checkpoint version %d not supported", e.version)
}

// A checkpointRulesError refuses a checkpoint written under rules this
// build does not run; it names both.
type checkpointRulesError struct{ got, want uint64 }

func (e *checkpointRulesError) Error() string {
	return fmt.Sprintf("hotpaths: checkpoint written under rules %d, this build runs rules %d", e.got, e.want)
}

// Minimum encoded sizes of the repeated records, which bound each count
// by the bytes left before anything is allocated for it.
const (
	minStateBytes    = 16 + 1 + 32 + 1 // start, ts, fsa, te
	minPendingBytes  = 1 + minStateBytes
	minFilterBytes   = 1 + 16 + minStateBytes + 1 + 1 + 1 + 5
	minBufPointBytes = 16 + 1
	minPathBytes     = 8 + 32
	minCrossingBytes = 1 + 8
)

// encodeCheckpoint serializes a state dump taken under cfg into one
// buffer sized up front: the header, then the body, whose checksum is
// filled in last.
func encodeCheckpoint(cfg Config, st engine.State) []byte {
	b := make([]byte, 0, checkpointSizeHint(st))
	b = append(b, checkpointMagic...)
	b = binary.LittleEndian.AppendUint32(b, checkpointVersion)
	b = append(b, 0, 0, 0, 0) // the body's CRC, once there is a body
	hdr := len(b)
	b = binary.AppendUvarint(b, rules)
	b = appendConfig(b, cfg)
	b = appendInt(b, int64(st.Clock))
	b = appendInt(b, st.Observations)
	b = appendInt(b, st.Reports)
	b = appendInt(b, int64(st.Responses))
	b = binary.AppendUvarint(b, uint64(len(st.Pending)))
	for _, p := range st.Pending {
		b = appendInt(b, int64(p.ObjectID))
		b = appendState(b, p.State)
	}
	b = binary.AppendUvarint(b, uint64(len(st.Filters)))
	for _, fe := range st.Filters {
		b = appendInt(b, int64(fe.ObjectID))
		b = appendFloat(b, fe.SigmaX)
		b = appendFloat(b, fe.SigmaY)
		f := &fe.Filter
		b = appendState(b, raytrace.State{Start: f.Start, Ts: f.Ts, FSA: f.FSA, Te: f.Te})
		b = appendBool(b, f.Waiting)
		b = appendInt(b, int64(f.LastT))
		b = binary.AppendUvarint(b, uint64(len(f.Buf)))
		for _, tp := range f.Buf {
			b = appendFloat(b, tp.P.X)
			b = appendFloat(b, tp.P.Y)
			b = appendInt(b, int64(tp.T))
		}
		for _, v := range [...]int{f.Stats.Processed, f.Stats.StatesSent, f.Stats.Responses, f.Stats.Buffered, f.Stats.MaxBuffer} {
			b = appendInt(b, int64(v))
		}
	}
	c := &st.Coord
	b = binary.AppendUvarint(b, uint64(len(c.Paths)))
	for _, p := range c.Paths {
		b = binary.LittleEndian.AppendUint64(b, uint64(p.ID))
		b = appendFloat(b, p.S.X)
		b = appendFloat(b, p.S.Y)
		b = appendFloat(b, p.E.X)
		b = appendFloat(b, p.E.Y)
	}
	s := c.Stats
	for _, v := range [...]int{s.Epochs, s.Reports, s.Case1, s.Case2W, s.Case3, s.PathsCreated, s.PathsExpired, s.Crossings} {
		b = appendInt(b, int64(v))
	}
	b = binary.AppendUvarint(b, uint64(len(c.Crossings)))
	for _, cr := range c.Crossings {
		b = appendInt(b, int64(cr.Expiry))
		b = binary.LittleEndian.AppendUint64(b, uint64(cr.ID))
	}
	binary.LittleEndian.PutUint32(b[hdr-4:], crc32.Checksum(b[hdr:], checkpointCRC))
	return b
}

// checkpointSizeHint is about the encoded size of st: the typical widths
// of its varints, so a checkpoint is built in one allocation, rarely two.
func checkpointSizeHint(st engine.State) int {
	n := 128 + len(st.Pending)*(4+minStateBytes+6)
	for i := range st.Filters {
		n += 4 + 16 + minStateBytes + 6 + 1 + 3 + 1 + 8 + len(st.Filters[i].Filter.Buf)*(16+3)
	}
	return n + len(st.Coord.Paths)*minPathBytes + len(st.Coord.Crossings)*(3+8)
}

func appendInt(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

func appendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendState(b []byte, s raytrace.State) []byte {
	b = appendFloat(b, s.Start.X)
	b = appendFloat(b, s.Start.Y)
	b = appendInt(b, int64(s.Ts))
	b = appendFloat(b, s.FSA.Lo.X)
	b = appendFloat(b, s.FSA.Lo.Y)
	b = appendFloat(b, s.FSA.Hi.X)
	b = appendFloat(b, s.FSA.Hi.Y)
	return appendInt(b, int64(s.Te))
}

// appendConfig writes every Config field, in declaration order.
func appendConfig(b []byte, cfg Config) []byte {
	b = appendFloat(b, cfg.Eps)
	b = appendFloat(b, cfg.Delta)
	b = appendInt(b, cfg.W)
	b = appendInt(b, cfg.Epoch)
	b = appendInt(b, int64(cfg.K))
	for _, v := range [...]float64{cfg.Bounds.Min.X, cfg.Bounds.Min.Y, cfg.Bounds.Max.X, cfg.Bounds.Max.Y} {
		b = appendFloat(b, v)
	}
	b = appendInt(b, int64(cfg.GridCols))
	return appendInt(b, int64(cfg.GridRows))
}

// decodeCheckpoint validates and deserializes a checkpoint payload,
// rejecting it when it was written in another format, under other rules
// or under a different configuration.
func decodeCheckpoint(b []byte, want Config) (engine.State, error) {
	hdr := len(checkpointMagic) + 8
	if len(b) < hdr || !bytes.Equal(b[:len(checkpointMagic)], checkpointMagic) {
		return engine.State{}, fmt.Errorf("hotpaths: not a checkpoint file")
	}
	if v := binary.LittleEndian.Uint32(b[len(checkpointMagic):]); v != checkpointVersion {
		return engine.State{}, &checkpointVersionError{version: v}
	}
	body := b[hdr:]
	if got, wantCRC := crc32.Checksum(body, checkpointCRC), binary.LittleEndian.Uint32(b[len(checkpointMagic)+4:]); got != wantCRC {
		return engine.State{}, fmt.Errorf("hotpaths: checkpoint checksum mismatch")
	}
	r := ckptReader{b: body, size: len(body)}
	if v := r.uvarint(); r.err == nil && v != rules {
		return engine.State{}, &checkpointRulesError{got: v, want: rules}
	}
	cfgAt := r.offset()
	cfg := r.config()
	if r.err != nil {
		return engine.State{}, r.err
	}
	if !bytes.Equal(body[cfgAt:r.offset()], appendConfig(nil, want)) {
		return engine.State{}, fmt.Errorf("hotpaths: checkpoint was written under config %+v, recovering with %+v", cfg, want)
	}
	st := r.state()
	if r.err == nil && len(r.b) > 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return engine.State{}, r.err
	}
	return st, nil
}

// A ckptReader consumes a checkpoint body. The first malformed field
// sets err and empties b, so every later read fails at once and each
// count reads as zero.
type ckptReader struct {
	b    []byte
	size int
	err  error
}

func (r *ckptReader) offset() int { return r.size - len(r.b) }

func (r *ckptReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("hotpaths: decode checkpoint: %s at body byte %d", fmt.Sprintf(format, args...), r.offset())
	}
	r.b = nil
}

// uvarint reads a uvarint, refusing an overlong one and one with a
// redundant zero high byte.
func (r *ckptReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	switch {
	case n == 0:
		r.fail("truncated body")
	case n < 0:
		r.fail("varint overflows 64 bits")
	case n > 1 && r.b[n-1] == 0:
		r.fail("non-minimal varint")
	default:
		r.b = r.b[n:]
		return v
	}
	return 0
}

// int64 reads a zigzag varint, as binary.AppendVarint writes it.
func (r *ckptReader) int64() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (r *ckptReader) int() int {
	v := r.int64()
	if int64(int(v)) != v {
		r.fail("integer %d out of range", v)
		return 0
	}
	return int(v)
}

func (r *ckptReader) time() trajectory.Time { return trajectory.Time(r.int64()) }

func (r *ckptReader) uint64() uint64 {
	if len(r.b) < 8 {
		r.fail("truncated body")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *ckptReader) float() float64 { return math.Float64frombits(r.uint64()) }

func (r *ckptReader) bool() bool {
	if len(r.b) == 0 {
		r.fail("truncated body")
		return false
	}
	v := r.b[0]
	if v > 1 {
		r.fail("bool byte %d", v)
		return false
	}
	r.b = r.b[1:]
	return v == 1
}

// count reads a record count, refusing one that the remaining bytes
// cannot hold at least bytes a record.
func (r *ckptReader) count(least int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/least) {
		r.fail("count %d exceeds the %d bytes left", n, len(r.b))
		return 0
	}
	return int(n)
}

func (r *ckptReader) config() Config {
	var c Config
	c.Eps = r.float()
	c.Delta = r.float()
	c.W = r.int64()
	c.Epoch = r.int64()
	c.K = r.int()
	c.Bounds.Min.X, c.Bounds.Min.Y = r.float(), r.float()
	c.Bounds.Max.X, c.Bounds.Max.Y = r.float(), r.float()
	c.GridCols = r.int()
	c.GridRows = r.int()
	return c
}

func (r *ckptReader) reportState() raytrace.State {
	var s raytrace.State
	s.Start.X, s.Start.Y = r.float(), r.float()
	s.Ts = r.time()
	s.FSA.Lo.X, s.FSA.Lo.Y = r.float(), r.float()
	s.FSA.Hi.X, s.FSA.Hi.Y = r.float(), r.float()
	s.Te = r.time()
	return s
}

func (r *ckptReader) state() engine.State {
	var st engine.State
	st.Clock = r.time()
	st.Observations = r.int64()
	st.Reports = r.int64()
	st.Responses = r.int()
	if n := r.count(minPendingBytes); n > 0 {
		st.Pending = make([]coordinator.Report, n)
		for i := range st.Pending {
			st.Pending[i] = coordinator.Report{ObjectID: r.int(), State: r.reportState()}
		}
	}
	if n := r.count(minFilterBytes); n > 0 {
		st.Filters = make([]raytrace.FilterEntry, n)
		for i := range st.Filters {
			r.filter(&st.Filters[i])
		}
	}
	c := &st.Coord
	if n := r.count(minPathBytes); n > 0 {
		c.Paths = make([]motion.Path, n)
		for i := range c.Paths {
			p := &c.Paths[i]
			p.ID = motion.PathID(r.uint64())
			p.S.X, p.S.Y = r.float(), r.float()
			p.E.X, p.E.Y = r.float(), r.float()
		}
	}
	s := &c.Stats
	for _, v := range [...]*int{&s.Epochs, &s.Reports, &s.Case1, &s.Case2W, &s.Case3, &s.PathsCreated, &s.PathsExpired, &s.Crossings} {
		*v = r.int()
	}
	if n := r.count(minCrossingBytes); n > 0 {
		c.Crossings = make([]hotness.Crossing, n)
		for i := range c.Crossings {
			c.Crossings[i] = hotness.Crossing{Expiry: r.time(), ID: motion.PathID(r.uint64())}
		}
	}
	return st
}

func (r *ckptReader) filter(fe *raytrace.FilterEntry) {
	fe.ObjectID = r.int()
	fe.SigmaX = r.float()
	fe.SigmaY = r.float()
	f := &fe.Filter
	s := r.reportState()
	f.Start, f.Ts, f.FSA, f.Te = s.Start, s.Ts, s.FSA, s.Te
	f.Waiting = r.bool()
	f.LastT = r.time()
	if n := r.count(minBufPointBytes); n > 0 {
		f.Buf = make([]trajectory.TimePoint, n)
		for i := range f.Buf {
			tp := &f.Buf[i]
			tp.P.X, tp.P.Y = r.float(), r.float()
			tp.T = r.time()
		}
	}
	for _, v := range [...]*int{&f.Stats.Processed, &f.Stats.StatesSent, &f.Stats.Responses, &f.Stats.Buffered, &f.Stats.MaxBuffer} {
		*v = r.int()
	}
}
