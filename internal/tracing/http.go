package tracing

import (
	"encoding/json"
	"net/http"
	"time"
)

// RegisterDebug mounts GET /debug/traces and GET /debug/traces/{id} on an
// admin mux, alongside /metrics and /debug/pprof.
func (t *Tracer) RegisterDebug(mux *http.ServeMux) {
	mux.HandleFunc("GET /debug/traces", t.handleTraces)
	mux.HandleFunc("GET /debug/traces/{id}", t.handleTraceByID)
}

// traceSummaryJSON is one entry of the GET /debug/traces listing.
type traceSummaryJSON struct {
	TraceID    string  `json:"trace_id"`
	Service    string  `json:"service"`
	Root       string  `json:"root"`
	Start      string  `json:"start"`
	DurationMS float64 `json:"duration_ms"`
	Spans      int     `json:"spans"`
	Sampled    bool    `json:"sampled"`
}

// spanJSON is one span of the GET /debug/traces/{id} detail.
type spanJSON struct {
	TraceID       string         `json:"trace_id"`
	SpanID        string         `json:"span_id"`
	ParentID      string         `json:"parent_id,omitempty"`
	Service       string         `json:"service"`
	Name          string         `json:"name"`
	StartUnixNano int64          `json:"start_unix_nano"`
	DurationUS    float64        `json:"duration_us"`
	Attrs         map[string]any `json:"attrs,omitempty"`
	Notes         []string       `json:"notes,omitempty"`
}

func (t *Tracer) handleTraces(w http.ResponseWriter, r *http.Request) {
	service := t.Service()
	traces := t.ring.snapshot()
	out := make([]traceSummaryJSON, 0, len(traces))
	for _, tr := range traces {
		tr.mu.Lock()
		entry := traceSummaryJSON{
			TraceID: tr.id.String(),
			Service: service,
			Spans:   len(tr.spans),
			Sampled: tr.sampled,
		}
		if len(tr.spans) > 0 {
			root := tr.spans[0]
			entry.Root = root.name
			entry.Start = root.start.UTC().Format(time.RFC3339Nano)
			if !root.end.IsZero() {
				entry.DurationMS = float64(root.end.Sub(root.start)) / float64(time.Millisecond)
			}
		}
		tr.mu.Unlock()
		out = append(out, entry)
	}
	writeJSON(w, out)
}

func (t *Tracer) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	id, err := ParseTraceID(r.PathValue("id"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// A process can hold several committed span sets for one trace ID
	// (e.g. the /observe and /tick legs of one gateway write); the detail
	// view merges them into a single span list.
	traces := t.ring.byID(id)
	if len(traces) == 0 {
		http.Error(w, "trace not found", http.StatusNotFound)
		return
	}
	service := t.Service()
	var spans []spanJSON
	for _, tr := range traces {
		tr.mu.Lock()
		for _, s := range tr.spans {
			sj := spanJSON{
				TraceID:       tr.id.String(),
				SpanID:        s.id.String(),
				Service:       service,
				Name:          s.name,
				StartUnixNano: s.start.UnixNano(),
			}
			if !s.parent.IsZero() {
				sj.ParentID = s.parent.String()
			}
			if !s.end.IsZero() {
				sj.DurationUS = float64(s.end.Sub(s.start)) / float64(time.Microsecond)
			}
			if len(s.attrs) > 0 {
				sj.Attrs = make(map[string]any, len(s.attrs))
				for _, a := range s.attrs {
					sj.Attrs[a.Key] = a.Value
				}
			}
			if len(s.notes) > 0 {
				sj.Notes = append([]string(nil), s.notes...)
			}
			spans = append(spans, sj)
		}
		tr.mu.Unlock()
	}
	writeJSON(w, struct {
		TraceID string     `json:"trace_id"`
		Spans   []spanJSON `json:"spans"`
	}{id.String(), spans})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
