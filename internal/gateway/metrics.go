package gateway

import (
	"hotpaths/internal/httpapi"
	"hotpaths/internal/metrics"
)

// Gateway-wide instruments. Per-partition instruments (request-duration
// histograms, health gauges) are registered per partition in New.
var (
	mPartitions = metrics.Default.Gauge("hotpathsgw_partitions",
		"Number of partitions in the routing table.", nil)
	mInflight = metrics.Default.Gauge("hotpathsgw_fanout_inflight",
		"Partition sub-requests currently in flight.", nil)
	mMergeSeconds = metrics.Default.Histogram("hotpathsgw_merge_seconds",
		"Time to merge the fleet's path sets into one view.",
		metrics.LatencyBuckets, nil)
	mPartial = metrics.Default.Counter("hotpathsgw_partial_responses_total",
		"Scatter-gather responses missing at least one partition.", nil)
	mObserveFallback = metrics.Default.Counter("hotpathsgw_http_observe_fallback_total",
		"POST /observe bodies outside the canonical form, decoded by encoding/json.", nil)
)

// The gateway's request families, named once: routeMetrics registers
// them and the SLO reads them, which skips a family it cannot find.
const (
	requestsFamily       = "hotpathsgw_http_requests_total"
	latencySecondsFamily = "hotpathsgw_http_request_seconds"
)

// routeMetrics registers one gateway route's request instruments.
func routeMetrics(route string) httpapi.RouteMetrics {
	m := httpapi.RouteMetrics{Seconds: metrics.Default.Histogram(latencySecondsFamily,
		"Gateway HTTP request duration by route.",
		metrics.LatencyBuckets, metrics.Labels{"route": route})}
	for i, class := range httpapi.StatusClasses {
		m.Requests[i] = metrics.Default.Counter(requestsFamily,
			"Gateway HTTP requests by route and status class.",
			metrics.Labels{"route": route, "code": class})
	}
	return m
}
