// Package httpapi is the HTTP wire contract shared by hotpathsd and the
// hotpathsgw gateway: the URL query grammar, the request bodies and their
// size cap, the JSON and error envelope, the SSE delta framing, the
// epoch/clock headers, the /healthz envelope, the per-route
// instrument-and-trace wrapper, the admin surface and the process shell
// around both listeners. A gateway is only a drop-in for a daemon while
// the two speak this contract byte-identically, so each binary calls this
// package instead of keeping its own copy; the README's "HTTP API"
// section is the contract's reference for clients.
//
// It is a kit, not a framework: handlers keep their own control flow (the
// gateway's 206 + X-Hotpaths-Partial, per-partition error maps and
// scatter-gather have no daemon counterpart) and call in for the parts
// that must not differ.
//
// Two bodies carry the system's volume. A POST /observe batch
// (DecodeObserve — the one place either binary reads one) is read whole
// into a pooled buffer; in exactly the form encoding/json writes, it is
// read by the allocation-free scanner in scan.go in one straight line of
// fixed-word compares that takes digits eight at a time, and any other
// body is decoded from the same bytes by encoding/json, which thereby
// stays the definition of what is accepted and the author of every error
// text. A partition's /paths answer on its way into a
// gateway merge is no JSON at all: the gateway asks for the fixed-width
// PathsType body (WritePaths, ReadPathsBody), which carries every
// coordinate as its IEEE-754 bits, so neither side formats or parses a
// number, and the answer as a set, in no particular order, so the
// partition sorts nothing for a reader that sums and re-orders it.
// The JSON path answers clients read — /topk, /paths and each /watch
// delta — are streamed by the append encoder in encode.go, which writes
// encoding/json's bytes without reflection or a whole-body buffer, and
// its floats by the shortest-digits kernel in ftoa.go, which takes its
// powers of ten from the scanner's table and strconv only as its tests'
// reference.
// DecodeBody remains for POST /tick's few bytes.
package httpapi

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"sync"

	"hotpaths"
	"hotpaths/internal/metrics"
	"hotpaths/internal/tracing"
)

// ObserveRequest is the POST /observe (and /observe_batch) body. Tick,
// when positive, advances the clock after the batch is ingested — the
// convenient form for a single-writer feed that ticks as it streams;
// multi-writer deployments should leave it zero and drive POST /tick from
// one place.
type ObserveRequest struct {
	Observations []hotpaths.ObservationJSON `json:"observations"`
	Tick         int64                      `json:"tick,omitempty"`
}

// TickRequest is the POST /tick body.
type TickRequest struct {
	Now int64 `json:"now"`
}

// MaxRequestBytes caps request bodies so one oversized batch cannot
// exhaust the process's memory.
const MaxRequestBytes = 8 << 20

// DecodeBody decodes the size-limited JSON body of a small request (POST
// /tick), reporting 413 for oversized payloads and 400 for malformed
// ones. It returns false after writing the error response. Observe
// batches go through DecodeObserve instead.
func DecodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, MaxRequestBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		decodeError(w, err)
		return false
	}
	return true
}

// decodeError answers a request whose body could not be read or decoded.
func decodeError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		Error(w, http.StatusRequestEntityTooLarge, err)
	} else {
		Error(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
	}
}

// ObserveSink receives the observations of one POST /observe body.
type ObserveSink interface {
	// Reset discards everything added so far. DecodeObserve calls it
	// before each pass over a body — a body the scanner gives up on
	// half-way is delivered again, from its first observation, by
	// encoding/json.
	Reset()
	// Add delivers the next observation, in body order. raw is its JSON
	// text exactly as the client sent it, valid only during the call; it
	// is nil when encoding/json decoded the body, which keeps no text.
	Add(o hotpaths.ObservationJSON, raw []byte)
}

// bodies holds the buffers DecodeObserve and ReadPathsBody read into and
// binary path bodies are written from. A buffer is held by one request
// for the length of its decode or write — a gateway read holds one per
// partition until its merge — so what is retained is a few bodies per
// request in flight; the pool drops idle buffers — an outsized body's
// among them — at the next GC.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readBody reads all of src into a pooled buffer, sized up front when the
// length is known. The caller hands the buffer back to bodies when done,
// on error too.
func readBody(src io.Reader, length int64) (*bytes.Buffer, error) {
	buf := bodies.Get().(*bytes.Buffer)
	buf.Reset()
	if length > 0 && length <= MaxRequestBytes {
		buf.Grow(int(length) + bytes.MinRead) // ReadFrom wants MinRead spare to see EOF
	}
	_, err := buf.ReadFrom(src)
	return buf, err
}

// DecodeObserve is how both binaries read a POST /observe (or
// /observe_batch) body: all of it, up to MaxRequestBytes, into a pooled
// buffer, and from there into sink. It returns the body's tick and the
// number of observations delivered, or false after writing the error
// response: 413 for a body over the cap — whatever it holds; the body is
// read before it is looked at — and 400 for a malformed one.
//
// The canonical body — byte for byte what encoding/json writes for an
// ObserveRequest, with at most one trailing newline (see the README's
// "HTTP API") — is decoded by scanObserve in one straight line, with no
// reflection and no allocation: each number is checked against JSON's
// grammar and converted in the same pass over its digits, and every float
// comes out bit for bit as strconv.ParseFloat reads it — literals the
// scanner cannot convert exactly are handed to strconv. Every other
// spelling (other key orders, whitespace, missing keys) is decoded from
// the same bytes by encoding/json into an ObserveRequest, exactly as
// before the scanner existed: encoding/json defines what is accepted and
// words every 400. fallbacks counts those bodies. The decode is a
// wire.decode span on the request's trace.
func DecodeObserve(w http.ResponseWriter, r *http.Request, sink ObserveSink, fallbacks *metrics.Counter) (tick int64, records int, ok bool) {
	buf, err := readBody(http.MaxBytesReader(w, r.Body, MaxRequestBytes), r.ContentLength)
	defer bodies.Put(buf)
	if err != nil {
		decodeError(w, err)
		return 0, 0, false
	}
	err = tracing.Do(r.Context(), "wire.decode", func(_ context.Context, span *tracing.Span) error {
		span.SetAttr("bytes", buf.Len())
		sink.Reset()
		tick, ok = scanObserve(buf.Bytes(), func(o hotpaths.ObservationJSON, raw []byte) {
			sink.Add(o, raw)
			records++
		})
		if !ok {
			fallbacks.Inc()
			span.SetAttr("fallback", true)
			var req ObserveRequest
			if err := json.NewDecoder(buf).Decode(&req); err != nil {
				return err
			}
			sink.Reset()
			for _, o := range req.Observations {
				sink.Add(o, nil)
			}
			tick, records = req.Tick, len(req.Observations)
		}
		span.SetAttr("records", records)
		return nil
	})
	if err != nil {
		decodeError(w, err)
		return 0, 0, false
	}
	return tick, records, true
}

// PathsType is the media type of the binary path body: what /topk and
// /paths answer instead of JSON when a request's Accept is exactly this
// type (WantsPaths), as a gateway's is when it gathers its partitions.
// The body carries the answer's paths as a set, in no particular order —
// its reader sums and re-orders them anyway, so a daemon answers it from
// Snapshot.Matches and sorts nothing; a path's rank is not its position.
// It is PathSize bytes per path, with no header or framing; epoch and
// clock stay in EpochHeader and ClockHeader. Each path is, little-endian:
// id uint64, hotness int64, then start.x, start.y, end.x, end.y as
// IEEE-754 bits — so every coordinate arrives bit for bit, -0 included,
// and nothing is formatted or parsed as decimal text.
const PathsType = "application/x-hotpaths-paths"

// PathSize is the size of one path in a PathsType body.
const PathSize = 48

// WantsPaths reports whether r asks for the binary path body: its Accept
// is exactly PathsType. /paths.geojson ignores it.
func WantsPaths(r *http.Request) bool { return r.Header.Get("Accept") == PathsType }

// AppendPaths appends paths to dst as a PathsType body.
func AppendPaths(dst []byte, paths []hotpaths.HotPath) []byte {
	le := binary.LittleEndian
	for _, hp := range paths {
		dst = le.AppendUint64(dst, hp.ID)
		dst = le.AppendUint64(dst, uint64(hp.Hotness))
		for _, v := range [4]float64{hp.Start.X, hp.Start.Y, hp.End.X, hp.End.Y} {
			dst = le.AppendUint64(dst, math.Float64bits(v))
		}
	}
	return dst
}

// PathsBody is a PathsType body read whole into a pooled buffer, decoded
// one path at a time, in place: a gateway keeps its partitions' bodies
// until they agree on one instant and then merges them straight from
// here. Close hands the buffer back.
type PathsBody struct{ buf *bytes.Buffer }

// ReadPathsBody reads a PathsType body whole — length is its
// Content-Length, or -1 — and rejects one that is not a whole number of
// paths.
func ReadPathsBody(src io.Reader, length int64) (PathsBody, error) {
	buf, err := readBody(src, length)
	if err == nil && buf.Len()%PathSize != 0 {
		err = fmt.Errorf("paths body of %d bytes is not a whole number of %d-byte paths", buf.Len(), PathSize)
	}
	if err != nil {
		bodies.Put(buf)
		return PathsBody{}, err
	}
	return PathsBody{buf}, nil
}

// Len returns the number of paths in the body.
func (b PathsBody) Len() int {
	if b.buf == nil {
		return 0
	}
	return b.buf.Len() / PathSize
}

// Path decodes path i of the body. It rejects a hotness out of range for
// int and a coordinate that is NaN or infinite — no snapshot holds one.
func (b PathsBody) Path(i int) (hotpaths.HotPath, error) {
	p := b.buf.Bytes()[i*PathSize : (i+1)*PathSize]
	le := binary.LittleEndian
	var c [4]float64
	for j := range c {
		c[j] = math.Float64frombits(le.Uint64(p[16+8*j:]))
		if math.IsNaN(c[j]) || math.IsInf(c[j], 0) {
			return hotpaths.HotPath{}, fmt.Errorf("path %d: coordinate %v is not finite", i, c[j])
		}
	}
	hotness := int64(le.Uint64(p[8:]))
	if int64(int(hotness)) != hotness {
		return hotpaths.HotPath{}, fmt.Errorf("path %d: hotness %d out of range", i, hotness)
	}
	return hotpaths.HotPath{
		ID:      le.Uint64(p),
		Start:   hotpaths.Pt(c[0], c[1]),
		End:     hotpaths.Pt(c[2], c[3]),
		Hotness: int(hotness),
	}, nil
}

// Close hands the body's buffer back to the pool; the body must not be
// read after. Closing the zero PathsBody does nothing.
func (b PathsBody) Close() {
	if b.buf != nil {
		bodies.Put(b.buf)
	}
}

// WriteJSON writes v as the JSON response body under status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		slog.Warn("write response failed", "error", err)
	}
}

// Error writes the error envelope every failed request answers with:
// {"error": "..."}.
func Error(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, map[string]any{"error": err.Error()})
}

// WritePaths answers a /topk, /paths or (geo) /paths.geojson read under
// status, stamped with the epoch and clock it was answered at so a
// scatter-gather reader can verify that every partition answered at the
// same epoch before merging. A request that WantsPaths gets the binary
// body instead of JSON (GeoJSON ignores Accept), paths in the order given.
//
// The JSON answer is the encoding/json text of hotpaths.PathsJSON(paths),
// streamed in chunks (see encode.go); every number is checked before the
// status line, so a path encoding/json would refuse answers 500 with the
// error envelope rather than a 200 with a truncated body. The GeoJSON
// FeatureCollection is buffered before the first byte is written — it is
// bounded by the live index size — for the same reason.
func WritePaths(w http.ResponseWriter, r *http.Request, status int, epoch, clock int64, paths []hotpaths.HotPath, geo bool) {
	w.Header().Set(hotpaths.EpochHeader, strconv.FormatInt(epoch, 10))
	w.Header().Set(hotpaths.ClockHeader, strconv.FormatInt(clock, 10))
	if !geo && !WantsPaths(r) {
		if err := checkFinite(paths); err != nil {
			Error(w, http.StatusInternalServerError, fmt.Errorf("encode paths: %w", err))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		c := newChunkWriter(w)
		c.paths(paths, false)
		c.buf = append(c.buf, '\n')
		if err := c.close(); err != nil {
			slog.Warn("write paths failed", append([]any{"error", err}, tracing.LogAttrs(r.Context())...)...)
		}
		return
	}
	buf := bodies.Get().(*bytes.Buffer)
	defer bodies.Put(buf)
	buf.Reset()
	if geo {
		if err := hotpaths.WriteGeoJSON(buf, paths); err != nil {
			Error(w, http.StatusInternalServerError, fmt.Errorf("encode geojson: %w", err))
			return
		}
		w.Header().Set("Content-Type", "application/geo+json")
	} else {
		buf.Grow(len(paths) * PathSize)
		buf.Write(AppendPaths(buf.AvailableBuffer(), paths))
		w.Header().Set("Content-Type", PathsType)
		w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	}
	w.WriteHeader(status)
	if _, err := buf.WriteTo(w); err != nil {
		// The client went away mid-response; nothing left to salvage.
		slog.Warn("write paths failed", append([]any{"error", err}, tracing.LogAttrs(r.Context())...)...)
	}
}
