package main

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"testing"

	"hotpaths/internal/httpapi"
)

func scrapeMetrics(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := do(t, h, http.MethodGet, "/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: %d %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q, want Prometheus text 0.0.4", ct)
	}
	return rec.Body.String()
}

// sampleValue extracts one sample's value; prefix is the full series
// name including its sorted label set. Missing series read as 0 so
// before/after deltas work on first exposure.
func sampleValue(body, prefix string) float64 {
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, prefix+" ") {
			var v float64
			fmt.Sscanf(line[len(prefix)+1:], "%g", &v)
			return v
		}
	}
	return 0
}

// TestMetricsEndpoint is the exposition golden test: after real traffic,
// GET /metrics must serve well-formed Prometheus text covering the
// engine, subscription, and per-route HTTP families, with counters that
// moved by exactly the traffic sent. Deltas, not absolute values — the
// registry is process-global and other tests in this package share it.
func TestMetricsEndpoint(t *testing.T) {
	h := newTestHandler(t)
	before := scrapeMetrics(t, h)

	feedZigZag(t, h) // 40 POSTs to /observe, 80 observations, 40 ticks
	do(t, h, http.MethodGet, "/topk", nil)
	do(t, h, http.MethodGet, "/stats", nil)
	// The gateway's name for /observe: same handler, its own route label.
	if rec := do(t, h, http.MethodPost, "/observe_batch", httpapi.ObserveRequest{}); rec.Code != http.StatusOK {
		t.Fatalf("POST /observe_batch: %d %s", rec.Code, rec.Body.String())
	}

	body := scrapeMetrics(t, h)
	checkPrometheusText(t, body)

	for _, family := range []string{
		"hotpaths_engine_observe_batch_seconds",
		"hotpaths_engine_tick_seconds",
		"hotpaths_engine_epoch_barrier_seconds",
		"hotpaths_engine_queue_depth",
		"hotpaths_engine_observations_total",
		"hotpaths_engine_epochs_total",
		"hotpaths_subscribers",
		"hotpaths_http_request_seconds",
		"hotpaths_http_requests_total",
	} {
		if !strings.Contains(body, "# TYPE "+family+" ") {
			t.Errorf("exposition is missing family %s", family)
		}
	}

	for _, tc := range []struct {
		series string
		delta  float64
	}{
		{`hotpaths_http_requests_total{code="2xx",route="/observe"}`, 40},
		{`hotpaths_http_request_seconds_count{route="/observe"}`, 40},
		{`hotpaths_http_requests_total{code="2xx",route="/topk"}`, 1},
		{`hotpaths_http_requests_total{code="2xx",route="/stats"}`, 1},
		{`hotpaths_http_requests_total{code="2xx",route="/observe_batch"}`, 1},
		{`hotpaths_engine_observations_total`, 80},
	} {
		got := sampleValue(body, tc.series) - sampleValue(before, tc.series)
		if got != tc.delta {
			t.Errorf("%s moved by %g, want %g", tc.series, got, tc.delta)
		}
	}
}

// familyHeaders returns the sorted # HELP / # TYPE lines of the families
// whose names start with one of the prefixes.
func familyHeaders(body string, prefixes ...string) string {
	var lines []string
	for _, line := range strings.Split(body, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 3 || fields[0] != "#" {
			continue
		}
		for _, p := range prefixes {
			if strings.HasPrefix(fields[2], p) {
				lines = append(lines, line)
			}
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// The HTTP-layer families are registered through internal/httpapi but
// named here, and dashboards, the SLO sampler and benchmark/ read them by
// name: their names, kinds and help strings are frozen.
func TestHTTPMetricFamiliesGolden(t *testing.T) {
	const golden = `# HELP hotpaths_http_observe_fallback_total POST /observe bodies outside the canonical form, decoded by encoding/json.
# HELP hotpaths_http_request_seconds HTTP request duration by route.
# HELP hotpaths_http_requests_total HTTP requests by route and status class.
# HELP hotpaths_slo_availability_burn_ratio availability error-budget burn rate over the window (1.0 = spending budget exactly at the objective rate)
# HELP hotpaths_slo_availability_objective_ratio configured availability SLO: target fraction of non-5xx requests
# HELP hotpaths_slo_latency_burn_ratio latency error-budget burn rate over the window (1.0 = spending budget exactly at the objective rate)
# HELP hotpaths_slo_latency_objective_ratio configured latency SLO: target fraction of requests under the threshold
# HELP hotpaths_slo_latency_threshold_seconds latency SLO threshold (snapped down to a histogram bucket bound)
# TYPE hotpaths_http_observe_fallback_total counter
# TYPE hotpaths_http_request_seconds histogram
# TYPE hotpaths_http_requests_total counter
# TYPE hotpaths_slo_availability_burn_ratio gauge
# TYPE hotpaths_slo_availability_objective_ratio gauge
# TYPE hotpaths_slo_latency_burn_ratio gauge
# TYPE hotpaths_slo_latency_objective_ratio gauge
# TYPE hotpaths_slo_latency_threshold_seconds gauge`
	got := familyHeaders(scrapeMetrics(t, newTestHandler(t)), "hotpaths_http_", "hotpaths_slo_")
	if got != golden {
		t.Errorf("HTTP metric families drifted:\n got:\n%s\nwant:\n%s", got, golden)
	}
}

// TestMetricsStatusClasses checks the middleware's error path: a
// malformed request on an instrumented route lands in that route's 4xx
// counter, not the 2xx one.
func TestMetricsStatusClasses(t *testing.T) {
	h := newTestHandler(t)
	before := scrapeMetrics(t, h)

	rec := do(t, h, http.MethodPost, "/observe", map[string]any{"observations": "not-a-list"})
	if rec.Code/100 != 4 {
		t.Fatalf("malformed observe: %d, want 4xx", rec.Code)
	}

	body := scrapeMetrics(t, h)
	series := `hotpaths_http_requests_total{code="4xx",route="/observe"}`
	if got := sampleValue(body, series) - sampleValue(before, series); got != 1 {
		t.Errorf("%s moved by %g, want 1", series, got)
	}
}

// TestAdminHandler covers the -pprof listener's mux: /metrics and the
// pprof index must both answer.
func TestAdminHandler(t *testing.T) {
	h := httpapi.AdminHandler()
	if rec := do(t, h, http.MethodGet, "/metrics", nil); rec.Code != http.StatusOK {
		t.Fatalf("admin GET /metrics: %d", rec.Code)
	}
	rec := do(t, h, http.MethodGet, "/debug/pprof/", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /debug/pprof/: %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "goroutine") {
		t.Error("pprof index does not list profiles")
	}
}

// checkPrometheusText is a minimal exposition-format validator: every
// sample line is `name[{labels}] value`, every sample's family has a
// TYPE comment, histogram bucket bounds are strictly increasing, and
// every histogram closes with a +Inf bucket.
func checkPrometheusText(t *testing.T, body string) {
	t.Helper()
	if !strings.HasSuffix(body, "\n") {
		t.Error("exposition does not end in a newline")
	}
	typed := map[string]string{}
	var lastHist string
	var lastBucket float64
	open := false // a bucket series started and has not reached +Inf yet
	for ln, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			continue
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			typed[parts[2]] = parts[3]
			continue
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unknown comment %q", ln+1, line)
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		i := strings.LastIndex(line, " ")
		if i < 0 {
			t.Fatalf("line %d: sample without value: %q", ln+1, line)
		}
		var value float64
		if _, err := fmt.Sscanf(line[i+1:], "%g", &value); err != nil {
			t.Fatalf("line %d: unparsable value in %q: %v", ln+1, line, err)
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suffix); base != name {
				if _, ok := typed[base]; ok {
					family = base
					break
				}
			}
		}
		if _, ok := typed[family]; !ok {
			t.Fatalf("line %d: sample %q has no TYPE comment", ln+1, name)
		}
		if strings.HasSuffix(name, "_bucket") && family != name {
			if family != lastHist && open {
				t.Fatalf("histogram %s has no +Inf bucket", lastHist)
			}
			lastHist = family
			j := strings.Index(line, `le="`)
			if j < 0 {
				t.Fatalf("line %d: bucket without le label: %q", ln+1, line)
			}
			le := line[j+4:]
			le = le[:strings.IndexByte(le, '"')]
			if le == "+Inf" {
				open = false
				continue
			}
			var bound float64
			fmt.Sscanf(le, "%g", &bound)
			switch {
			case !open: // first finite bucket of a label set
				open, lastBucket = true, bound
			case bound <= lastBucket:
				t.Fatalf("histogram %s: bucket bounds not increasing at le=%q", family, le)
			default:
				lastBucket = bound
			}
		}
	}
	if open {
		t.Fatalf("histogram %s has no +Inf bucket", lastHist)
	}
}
