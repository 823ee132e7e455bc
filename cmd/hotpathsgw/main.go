// Command hotpathsgw is the scatter-gather gateway for a partitioned
// hotpathsd fleet: N independent -wal primaries, each owning the objects
// that hash to its partition, behind one endpoint that speaks hotpathsd's
// HTTP API.
//
// Usage:
//
//	hotpathsgw -partitions http://p0:8080,http://p1:8080,... [-addr :8090]
//	           [-k 10] [-timeout 10s] [-probe 1s] [-pprof localhost:6061]
//	           [-log-format text|json] [-trace-sample 0.01] [-trace-slow 250ms]
//
// It serves hotpathsd's public routes (the wire contract of package
// hotpaths/internal/httpapi; see the README's "HTTP API" section), routed
// or merged:
//
//	POST /observe        split by owning partition and forwarded exactly once
//	POST /observe_batch  alias of /observe
//	POST /tick           epoch barrier: forwarded to every partition
//	GET  /topk           merged top-k across the fleet at one shared epoch
//	GET  /paths          merged live paths
//	GET  /paths.geojson  merged paths as GeoJSON
//	GET  /watch          merged SSE delta stream, one delta per shared epoch
//	GET  /stats          fleet-wide counter sums + per-partition status
//	GET  /healthz        503 while any partition is down, misdeclared or lagging
//	GET  /metrics        gateway request/fan-out/merge instruments
//
// The -pprof admin listener and the logging/tracing flags are that
// contract's too. A traced request gets one child span per partition leg
// and the trace context propagates to the partitions in the traceparent
// header, so a gateway write shows up as one trace spanning the gateway
// and every touched hotpathsd (start the daemons with -pprof to read
// their half from /debug/traces/{id}).
//
// Partition slot i of the -partitions list must be the base URL of a
// hotpathsd started with -partition-count N -partition-id i (the prober
// cross-checks the daemons' declared slots and degrades /healthz on a
// mismatch). All writes must flow through the gateway: routing is what
// keeps each object's trajectory on a single primary, and the gateway
// caches its merged read view between writes on that assumption. See the
// README's "Horizontal write scaling" section for topology and failover.
package main

import (
	"errors"
	"flag"
	"log/slog"
	"os"
	"strings"
	"time"

	"hotpaths/internal/gateway"
	"hotpaths/internal/httpapi"
	"hotpaths/internal/partition"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr    = flag.String("addr", ":8090", "listen address")
		parts   = flag.String("partitions", "", "comma-separated partition base URLs, slot order (required); slot i must run hotpathsd -partition-count N -partition-id i")
		k       = flag.Int("k", 10, "default top-k for /topk and /watch (mirrors hotpathsd -k)")
		timeout = flag.Duration("timeout", 10*time.Second, "per-partition sub-request timeout")
		probe   = flag.Duration("probe", time.Second, "partition health probe interval")
		proc    = httpapi.NewProcess(flag.CommandLine, "hotpathsgw", "localhost:6061",
			"directory for a flight-recorder ring dump on shutdown; empty disables it")
	)
	flag.Parse()

	if err := proc.Setup(); err != nil {
		return httpapi.Fail(err)
	}
	if *parts == "" {
		return httpapi.Fail(errors.New("-partitions is required: a comma-separated list of partition base URLs"))
	}
	var urls []string
	for _, u := range strings.Split(*parts, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	gw, err := gateway.New(gateway.Config{
		Table:          partition.NewTable(urls...),
		K:              *k,
		RequestTimeout: *timeout,
		ProbeInterval:  *probe,
	})
	if err != nil {
		return httpapi.Fail(err)
	}
	defer gw.Close()

	proc.Start(*addr, gw.Handler(), nil)
	slog.Info("listening", "addr", *addr, "partitions", len(urls), "k", *k)
	if err := proc.Wait(); err != nil {
		return httpapi.Fail(err)
	}

	// Closing the gateway first ends open /watch fan-ins, which would
	// otherwise pin Shutdown to its timeout.
	gw.Close()
	if errors.Join(proc.Shutdown(), proc.DumpFlightRecorder()) != nil {
		return 1 // already logged
	}
	return 0
}
