package httpapi

import (
	"net/http"
	"net/http/pprof"
	"sync"

	"hotpaths/internal/flightrec"
	"hotpaths/internal/metrics"
	"hotpaths/internal/tracing"
)

// AdminHandler is the -pprof listener's mux: the profiling endpoints, a
// second /metrics mount, the completed-trace ring under /debug/traces,
// and the flight-recorder ring under /debug/events — all kept off the
// public port so the debug surface is opt-in and never internet-facing
// by accident, and identical on every process of a fleet so one set of
// tooling works against all of them.
func AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", metrics.Handler())
	tracing.Default.RegisterDebug(mux)
	flightrec.Default.RegisterDebug(mux)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Health answers GET /healthz for one process and remembers its previous
// verdict, so that only transitions become flight-recorder events:
// /healthz is polled constantly, and repeats are not news.
type Health struct {
	Component string // the events' component attr: "daemon", "gateway"

	mu   sync.Mutex
	last string
}

// Answer writes the /healthz response: body plus "status":"ok" under 200
// or, when reason names a cause, "status":"degraded" under 503 with the
// stable machine-readable reason token and the error text — automation
// branches on the token, never on the prose. ?verbose=1 adds the
// per-component breakdown components returns.
func (h *Health) Answer(w http.ResponseWriter, r *http.Request, body map[string]any, reason, errMsg string, components func() map[string]any) {
	status, code := "ok", http.StatusOK
	if reason != "" {
		status, code = "degraded", http.StatusServiceUnavailable
		body["reason"] = reason
		body["error"] = errMsg
	}
	body["status"] = status
	h.mu.Lock()
	prev := h.last
	h.last = status
	h.mu.Unlock()
	if prev != status {
		if prev == "" {
			prev = "unknown"
		}
		attrs := []flightrec.Attr{
			flightrec.KV("component", h.Component),
			flightrec.KV("from", prev),
			flightrec.KV("to", status),
		}
		if reason != "" {
			attrs = append(attrs, flightrec.KV("reason", reason))
		}
		flightrec.Default.RecordCtx(r.Context(), flightrec.EvHealthTransition, attrs...)
	}
	if r.URL.Query().Get("verbose") == "1" {
		body["components"] = components()
	}
	WriteJSON(w, code, body)
}

// sloDegradedBurn is the fast-window burn rate past which the /healthz
// slo component reports degraded: spending error budget an order of
// magnitude faster than the objective allows is an incident, not noise.
const sloDegradedBurn = 10.0

// SLOComponent is the slo entry of /healthz?verbose=1's component
// breakdown.
func SLOComponent(slo *metrics.SLO) map[string]any {
	burn := slo.Status()
	status := "ok"
	if burn.Max() >= sloDegradedBurn {
		status = "degraded"
	}
	return map[string]any{"status": status, "burn": burn}
}
