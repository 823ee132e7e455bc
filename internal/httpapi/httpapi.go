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
// Two bodies carry the system's volume, and for those encoding/json is
// the fallback, not the decoder: a POST /observe batch (DecodeObserve —
// the one place either binary reads one) and a partition's /paths answer
// on its way into a gateway merge (DecodePaths). Each is read whole into
// a pooled buffer and scanned in its canonical form by the strict,
// allocation-free scanners in the library's wire.go; a body the scanner
// does not recognise is decoded from the same bytes by encoding/json,
// which thereby stays the definition of what is accepted and the author
// of every error text. DecodeBody remains for POST /tick's few bytes.
package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
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

// bodies holds the buffers DecodeObserve and DecodePaths read into. A
// buffer is held by one request for the length of its decode, so what is
// retained is one body per request in flight; the pool drops idle
// buffers — an outsized body's among them — at the next GC.
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
// The canonical body (see the README's "HTTP API") is decoded by
// hotpaths.ScanObserve, with no reflection and no allocation. Anything
// the scanner does not recognise is decoded from the same bytes by
// encoding/json into an ObserveRequest, exactly as before the scanner
// existed: encoding/json defines what is accepted and words every 400.
// fallbacks counts those bodies. The decode is a wire.decode span on the
// request's trace.
func DecodeObserve(w http.ResponseWriter, r *http.Request, sink ObserveSink, fallbacks *metrics.Counter) (tick int64, records int, ok bool) {
	buf, err := readBody(http.MaxBytesReader(w, r.Body, MaxRequestBytes), r.ContentLength)
	defer bodies.Put(buf)
	if err != nil {
		decodeError(w, err)
		return 0, 0, false
	}
	_, span := tracing.StartSpan(r.Context(), "wire.decode")
	defer span.End()
	span.SetAttr("bytes", buf.Len())
	sink.Reset()
	tick, ok = hotpaths.ScanObserve(buf.Bytes(), func(o hotpaths.ObservationJSON, raw []byte) {
		sink.Add(o, raw)
		records++
	})
	if !ok {
		fallbacks.Inc()
		span.SetAttr("fallback", true)
		var req ObserveRequest
		if err := json.NewDecoder(buf).Decode(&req); err != nil {
			decodeError(w, err)
			return 0, 0, false
		}
		sink.Reset()
		for _, o := range req.Observations {
			sink.Add(o, nil)
		}
		tick, records = req.Tick, len(req.Observations)
	}
	span.SetAttr("records", records)
	return tick, records, true
}

// DecodePaths reads a partition's /topk or /paths answer into the
// library type (nil when there are none): the canonical body WritePaths
// emits by hotpaths.ScanPaths, anything else — by the rule DecodeObserve
// follows — by encoding/json into []PathJSON.
func DecodePaths(src io.Reader, length int64) ([]hotpaths.HotPath, error) {
	buf, err := readBody(src, length)
	defer bodies.Put(buf)
	if err != nil {
		return nil, err
	}
	// Sized a little generously — our own encoding runs ~190 bytes a
	// path — because slack is cheaper than a regrowth copy.
	if paths, ok := hotpaths.ScanPaths(make([]hotpaths.HotPath, 0, buf.Len()/160), buf.Bytes()); ok {
		if len(paths) == 0 {
			return nil, nil
		}
		return paths, nil
	}
	var wire []hotpaths.PathJSON
	if err := json.NewDecoder(buf).Decode(&wire); err != nil {
		return nil, err
	}
	return HotPaths(wire), nil
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
// same epoch before merging. The GeoJSON FeatureCollection is buffered
// before the first byte is written — it is bounded by the live index
// size — so an encoding failure still returns a proper 500 instead of a
// truncated body after headers are gone.
func WritePaths(w http.ResponseWriter, r *http.Request, status int, epoch, clock int64, paths []hotpaths.HotPath, geo bool) {
	w.Header().Set(hotpaths.EpochHeader, strconv.FormatInt(epoch, 10))
	w.Header().Set(hotpaths.ClockHeader, strconv.FormatInt(clock, 10))
	if !geo {
		WriteJSON(w, status, hotpaths.PathsJSON(paths))
		return
	}
	var buf bytes.Buffer
	if err := hotpaths.WriteGeoJSON(&buf, paths); err != nil {
		Error(w, http.StatusInternalServerError, fmt.Errorf("encode geojson: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/geo+json")
	w.WriteHeader(status)
	if _, err := buf.WriteTo(w); err != nil {
		// The client went away mid-response; nothing left to salvage.
		slog.Warn("write geojson failed", append([]any{"error", err}, tracing.LogAttrs(r.Context())...)...)
	}
}
