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
package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"

	"hotpaths"
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

// DecodeBody decodes a size-limited JSON request body, reporting 413 for
// oversized payloads and 400 for malformed ones. It returns false after
// writing the error response.
func DecodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, MaxRequestBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			Error(w, http.StatusRequestEntityTooLarge, err)
		} else {
			Error(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		}
		return false
	}
	return true
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
