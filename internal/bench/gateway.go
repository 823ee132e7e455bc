package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"hotpaths"
	"hotpaths/internal/gateway"
	"hotpaths/internal/httpapi"
	"hotpaths/internal/partition"
)

// The gateway benches answer the scaling question the partitioned
// deployment poses: what does putting a scatter-gather hop in front of
// the fleet cost a reader? primary_topk is the baseline — one HTTP /topk
// against a single snapshot-backed server; gateway_scatter_topk is the
// steady-state gateway (merged view cached between writes, the common
// case because all writes flow through the gateway); and
// gateway_scatter_merge forces the cache cold every iteration, pricing
// the full 4-partition fan-out + epoch-aligned merge a reader pays right
// after a write. The acceptance bar: steady-state gateway /topk within
// 2x of primary_topk.

const benchGatewayPartitions = 4

// benchPrimaryHandler is a minimal single-primary /topk: hotpathsd's
// response shape (query the snapshot, encode PathsJSON, stamp the epoch
// header) without dragging package main into the library.
func benchPrimaryHandler(snap hotpaths.Snapshot) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /topk", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(hotpaths.EpochHeader, strconv.FormatInt(snap.Epoch(), 10))
		w.Header().Set(hotpaths.ClockHeader, strconv.FormatInt(snap.Clock(), 10))
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(hotpaths.PathsJSON(snap.Query(hotpaths.Query{}.K(10))))
	})
	return mux
}

// benchPartitionHandler is the slice of the hotpathsd surface the gateway
// consumes: /paths through hotpathsd's own writer (so it negotiates the
// binary body as a daemon does), /tick, and the probe endpoints.
func benchPartitionHandler(id int, paths []hotpaths.HotPath) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /paths", func(w http.ResponseWriter, r *http.Request) {
		httpapi.WritePaths(w, r, http.StatusOK, 1, 10, paths, false)
	})
	mux.HandleFunc("POST /tick", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		fmt.Fprint(w, `{"now": 10}`)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"partition_id": %d, "partition_count": %d, "epoch": 1, "clock": 10}`,
			id, benchGatewayPartitions)
	})
	return mux
}

// benchFleet splits the standard 10k-path snapshot workload across 4
// partition servers and fronts them with a gateway. close tears the
// whole assembly down.
func benchFleet() (gw *httptest.Server, close func(), err error) {
	all := benchSnapshot(10_000).Query(hotpaths.Query{})
	shares := make([][]hotpaths.HotPath, benchGatewayPartitions)
	for _, p := range all {
		i := partition.Index(int(p.ID), benchGatewayPartitions)
		shares[i] = append(shares[i], p)
	}
	var closers []func()
	closeAll := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	urls := make([]string, benchGatewayPartitions)
	for i := range urls {
		srv := httptest.NewServer(benchPartitionHandler(i, shares[i]))
		closers = append(closers, srv.Close)
		urls[i] = srv.URL
	}
	g, err := gateway.New(gateway.Config{
		Table:         partition.NewTable(urls...),
		K:             10,
		ProbeInterval: -1,
	})
	if err != nil {
		closeAll()
		return nil, nil, err
	}
	closers = append(closers, g.Close)
	gw = httptest.NewServer(g.Handler())
	closers = append(closers, gw.Close)
	return gw, closeAll, nil
}

// benchGet fetches url and fails on anything but a drained 200.
func benchGet(client *http.Client, url string) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	n, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK || n == 0 {
		return fmt.Errorf("GET %s: status %d, %d bytes", url, resp.StatusCode, n)
	}
	return nil
}

func gatewayCases() []benchCase {
	return []benchCase{
		{"primary_topk", 0, func(b *testing.B) error {
			srv := httptest.NewServer(benchPrimaryHandler(benchSnapshot(10_000)))
			defer srv.Close()
			client := srv.Client()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := benchGet(client, srv.URL+"/topk"); err != nil {
					return err
				}
			}
			return nil
		}},

		{"gateway_scatter_topk", 0, func(b *testing.B) error {
			gw, closeAll, err := benchFleet()
			if err != nil {
				return err
			}
			defer closeAll()
			client := gw.Client()
			// Warm the merged-view cache: steady state is what a reader
			// sees between writes.
			if err := benchGet(client, gw.URL+"/topk"); err != nil {
				return err
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := benchGet(client, gw.URL+"/topk"); err != nil {
					return err
				}
			}
			return nil
		}},

		{"gateway_scatter_merge", 0, func(b *testing.B) error {
			gw, closeAll, err := benchFleet()
			if err != nil {
				return err
			}
			defer closeAll()
			client := gw.Client()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// A routed write invalidates the merged view, so each
				// read pays the full scatter + merge.
				b.StopTimer()
				resp, err := client.Post(gw.URL+"/tick", "application/json",
					bytes.NewReader([]byte(`{"now": 10}`)))
				if err != nil {
					return err
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				b.StartTimer()
				if err := benchGet(client, gw.URL+"/topk"); err != nil {
					return err
				}
			}
			return nil
		}},
	}
}
