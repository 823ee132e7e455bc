package gateway

import (
	"net/http"
	"sort"
	"strings"
	"testing"
)

// The gateway's metric families are read by name — dashboards, the SLO
// sampler, benchmark/layers.go — so their names, kinds and help strings
// are frozen, whichever package does the registering.
func TestMetricFamiliesGolden(t *testing.T) {
	const golden = `# HELP hotpaths_slo_availability_burn_ratio availability error-budget burn rate over the window (1.0 = spending budget exactly at the objective rate)
# HELP hotpaths_slo_availability_objective_ratio configured availability SLO: target fraction of non-5xx requests
# HELP hotpaths_slo_latency_burn_ratio latency error-budget burn rate over the window (1.0 = spending budget exactly at the objective rate)
# HELP hotpaths_slo_latency_objective_ratio configured latency SLO: target fraction of requests under the threshold
# HELP hotpaths_slo_latency_threshold_seconds latency SLO threshold (snapped down to a histogram bucket bound)
# HELP hotpathsgw_fanout_inflight Partition sub-requests currently in flight.
# HELP hotpathsgw_http_observe_fallback_total POST /observe bodies outside the canonical form, decoded by encoding/json.
# HELP hotpathsgw_http_request_seconds Gateway HTTP request duration by route.
# HELP hotpathsgw_http_requests_total Gateway HTTP requests by route and status class.
# HELP hotpathsgw_merge_seconds Time to merge the fleet's path sets into one view.
# HELP hotpathsgw_partial_responses_total Scatter-gather responses missing at least one partition.
# HELP hotpathsgw_partition_probe_failures_total Probe rounds that found the partition unhealthy.
# HELP hotpathsgw_partition_request_seconds Sub-request duration by partition.
# HELP hotpathsgw_partition_up 1 while the partition's last probe succeeded.
# HELP hotpathsgw_partitions Number of partitions in the routing table.
# TYPE hotpaths_slo_availability_burn_ratio gauge
# TYPE hotpaths_slo_availability_objective_ratio gauge
# TYPE hotpaths_slo_latency_burn_ratio gauge
# TYPE hotpaths_slo_latency_objective_ratio gauge
# TYPE hotpaths_slo_latency_threshold_seconds gauge
# TYPE hotpathsgw_fanout_inflight gauge
# TYPE hotpathsgw_http_observe_fallback_total counter
# TYPE hotpathsgw_http_request_seconds histogram
# TYPE hotpathsgw_http_requests_total counter
# TYPE hotpathsgw_merge_seconds histogram
# TYPE hotpathsgw_partial_responses_total counter
# TYPE hotpathsgw_partition_probe_failures_total counter
# TYPE hotpathsgw_partition_request_seconds histogram
# TYPE hotpathsgw_partition_up gauge
# TYPE hotpathsgw_partitions gauge`
	g := newTestGateway(t, newFakeFleet(t, 2), -1)
	rec := doReq(t, g.Handler(), http.MethodGet, "/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", rec.Code)
	}
	var lines []string
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 3 && fields[0] == "#" &&
			(strings.HasPrefix(fields[2], "hotpathsgw_") || strings.HasPrefix(fields[2], "hotpaths_slo_")) {
			lines = append(lines, line)
		}
	}
	sort.Strings(lines)
	if got := strings.Join(lines, "\n"); got != golden {
		t.Errorf("gateway metric families drifted:\n got:\n%s\nwant:\n%s", got, golden)
	}
}
