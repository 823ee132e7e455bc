package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"hotpaths"
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
		"hotpaths_engine_observations_refused_total",
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
		{`hotpaths_engine_observations_refused_total`, 0},
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

// stalledWatcher is a /watch client that stops reading: its first write
// (the reset baseline) blocks until release is closed, so every later
// epoch's delta piles up in the subscription buffer.
type stalledWatcher struct {
	hdr     http.Header
	blocked chan struct{} // closed when the first write blocks
	once    sync.Once
	release chan struct{}
}

func (w *stalledWatcher) Header() http.Header { return w.hdr }
func (w *stalledWatcher) WriteHeader(int)     {}
func (w *stalledWatcher) Flush()              {}
func (w *stalledWatcher) Write(b []byte) (int, error) {
	w.once.Do(func() { close(w.blocked) })
	<-w.release
	return len(b), nil
}

// The replication, subscription and WAL families move with the traffic
// that should move them: a -wal primary with small segments, one follower
// attached over a real listener and one /watch subscriber that stops
// reading. Counters are compared as deltas and gauges are read while the
// state they describe holds, since the registry is process-global.
func TestOperationalMetricFamiliesMove(t *testing.T) {
	dur, err := hotpaths.OpenDurable(t.TempDir(), hotpaths.DurableConfig{
		Config:          serverTestConfig(),
		Shards:          2,
		SegmentBytes:    2048,
		FsyncInterval:   -1, // records stay buffered until a sync, so lag shows
		CheckpointEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dur.Close() })
	primary := newServer(dur, serverOpts{dur: dur}).handler()
	srv := httptest.NewServer(primary)
	t.Cleanup(srv.Close)
	before := scrapeMetrics(t, primary)

	// The slow subscriber: it takes its baseline, then reads nothing
	// while 24 epochs pass, more than the subscription buffer holds.
	watcher := &stalledWatcher{hdr: http.Header{}, blocked: make(chan struct{}), release: make(chan struct{})}
	watchCtx, stopWatch := context.WithCancel(context.Background())
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		primary.ServeHTTP(watcher, httptest.NewRequest(http.MethodGet, "/watch?k=5", nil).WithContext(watchCtx))
	}()
	<-watcher.blocked
	feedZigZag(t, primary)
	for now := int64(50); now <= 240; now += 10 {
		if rec := do(t, primary, http.MethodPost, "/tick", httpapi.TickRequest{Now: now}); rec.Code != http.StatusOK {
			t.Fatalf("tick %d: %d %s", now, rec.Code, rec.Body.String())
		}
	}
	stopWatch()
	close(watcher.release)
	<-watchDone

	// The follower bootstraps from a checkpoint, so the bootstrap is timed.
	if rec := do(t, primary, http.MethodPost, "/admin/checkpoint", nil); rec.Code != http.StatusOK {
		t.Fatalf("checkpoint: %d %s", rec.Code, rec.Body.String())
	}
	fol, err := hotpaths.OpenFollower(srv.URL, hotpaths.FollowerConfig{ReconnectMin: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fol.Close() })
	follower := newServer(fol, serverOpts{fol: fol}).handler()
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s: %+v", what, fol.Replication())
			}
		}
	}
	waitFor("the follower to connect", func() bool { return fol.Replication().Connected })

	// One tick the primary journals but has not flushed: the follower
	// cannot read it yet, and the next heartbeat reports it as lag.
	if rec := do(t, primary, http.MethodPost, "/tick", httpapi.TickRequest{Now: 250}); rec.Code != http.StatusOK {
		t.Fatalf("tick 250: %d %s", rec.Code, rec.Body.String())
	}
	waitFor("the lag gauge", func() bool {
		return sampleValue(scrapeMetrics(t, follower), "hotpaths_follower_lag_records") == 1
	})
	if err := dur.Sync(); err != nil {
		t.Fatal(err)
	}
	waitFor("the follower to catch up", func() bool { return fol.Replication().AppliedLSN == dur.NextLSN() })

	if rec := do(t, follower, http.MethodPost, "/admin/reconnect", nil); rec.Code != http.StatusOK {
		t.Fatalf("reconnect: %d %s", rec.Code, rec.Body.String())
	}
	waitFor("a reconnect", func() bool {
		st := fol.Replication()
		return st.Reconnects >= 1 && st.Connected
	})
	live := scrapeMetrics(t, primary)
	if got := sampleValue(live, "hotpaths_follower_connected"); got != 1 {
		t.Errorf("hotpaths_follower_connected = %g while streaming, want 1", got)
	}
	if got := sampleValue(live, "hotpaths_replication_streams"); got < 1 {
		t.Errorf("hotpaths_replication_streams = %g while a follower streams, want >= 1", got)
	}
	if err := fol.Close(); err != nil {
		t.Fatal(err)
	}

	after := scrapeMetrics(t, primary)
	checkPrometheusText(t, after)
	for _, family := range []string{
		"hotpaths_follower_applied_total",
		"hotpaths_follower_bootstrap_seconds",
		"hotpaths_follower_connected",
		"hotpaths_follower_lag_records",
		"hotpaths_follower_reconnects_total",
		"hotpaths_replication_stream_bytes_total",
		"hotpaths_replication_stream_records_total",
		"hotpaths_replication_streams",
		"hotpaths_subscription_deltas_total",
		"hotpaths_subscription_missed_total",
		"hotpaths_subscription_resets_total",
		"hotpaths_wal_rotations_total",
	} {
		if !strings.Contains(after, "# TYPE "+family+" ") {
			t.Errorf("exposition is missing family %s", family)
		}
	}
	if got := sampleValue(after, "hotpaths_follower_connected"); got != 0 {
		t.Errorf("hotpaths_follower_connected = %g after Close, want 0", got)
	}
	for _, tc := range []struct {
		series string
		min    float64
	}{
		{"hotpaths_follower_applied_total", 1},
		{"hotpaths_follower_bootstrap_seconds_count", 1},
		{"hotpaths_follower_reconnects_total", 1},
		{"hotpaths_replication_stream_bytes_total", 1},
		{"hotpaths_replication_stream_records_total", 1},
		{"hotpaths_subscription_deltas_total", 1},
		{"hotpaths_subscription_missed_total", 1},
		{"hotpaths_subscription_resets_total", 1},
		{"hotpaths_wal_rotations_total", 1},
	} {
		if got := sampleValue(after, tc.series) - sampleValue(before, tc.series); got < tc.min {
			t.Errorf("%s moved by %g, want at least %g", tc.series, got, tc.min)
		}
	}
}
