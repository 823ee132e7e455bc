// Partitioning quickstart: a 4-partition fleet behind a scatter-gather
// gateway, in one process. Each partition is an ordinary hotpaths engine
// owning the objects that hash to it; the gateway splits writes by
// object ID, drives ticks as an epoch barrier, and merges reads at one
// shared epoch — so the fleet answers exactly like a single node fed the
// same workload.
//
// The wire protocol is the real one (the gateway speaks the same HTTP it
// speaks to hotpathsd daemons); only the network is loopback. A
// production topology is the same picture with more machines:
//
//	writers ──> hotpathsgw -partitions p0,p1,p2,p3
//	   split by hash(object) │ ticks + reads fan out to all
//	    ┌─────────┬──────────┼──────────┐
//	    ▼         ▼          ▼          ▼
//	hotpathsd -wal … -partition-count 4 -partition-id 0..3
//
// Run with: go run ./examples/partition
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"time"

	"hotpaths"
	"hotpaths/internal/gateway"
	"hotpaths/internal/partition"
)

const partitions = 4

var cfg = hotpaths.Config{
	Eps:    10,
	W:      120,
	Epoch:  10,
	K:      5,
	Bounds: hotpaths.Rect{Min: hotpaths.Pt(-100, -100), Max: hotpaths.Pt(2000, 400)},
}

// partitionNode serves the slice of hotpathsd's surface the gateway
// consumes, for one partition slot. hotpathsd -partition-count N
// -partition-id i is the production version of exactly this.
func partitionNode(id int, eng *hotpaths.Engine) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /observe", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Observations []hotpaths.ObservationJSON `json:"observations"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		batch := make([]hotpaths.Observation, 0, len(req.Observations))
		for _, o := range req.Observations {
			// Ownership check before any state is touched: a misrouted
			// writer fails loudly instead of splitting a trajectory.
			if own := partition.Index(o.Object, partitions); own != id {
				httpError(w, http.StatusBadRequest, fmt.Errorf(
					"object %d belongs to partition %d, not %d: route writes through the gateway", o.Object, own, id))
				return
			}
			batch = append(batch, o.Observation())
		}
		if err := eng.ObserveBatchCtx(r.Context(), batch); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		fmt.Fprintf(w, `{"accepted": %d}`, len(batch))
	})
	mux.HandleFunc("POST /tick", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Now int64 `json:"now"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		if err := eng.TickCtx(r.Context(), req.Now); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		fmt.Fprintf(w, `{"now": %d}`, req.Now)
	})
	mux.HandleFunc("GET /paths", func(w http.ResponseWriter, r *http.Request) {
		snap := eng.Snapshot()
		w.Header().Set(hotpaths.EpochHeader, strconv.FormatInt(snap.Epoch(), 10))
		w.Header().Set(hotpaths.ClockHeader, strconv.FormatInt(snap.Clock(), 10))
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(hotpaths.PathsJSON(snap.Query(hotpaths.Query{})))
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		snap, st := eng.Snapshot(), eng.Stats()
		json.NewEncoder(w).Encode(map[string]any{
			"partition_id":    id,
			"partition_count": partitions,
			"epoch":           snap.Epoch(),
			"clock":           snap.Clock(),
			"observations":    st.Observations,
			"index_size":      st.IndexSize,
		})
	})
	return mux
}

func httpError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func main() {
	// The fleet: four independent engines, each the write master for its
	// hash slice of the object space, plus one reference engine that sees
	// the whole workload — the single node the fleet must impersonate.
	engines := make([]*hotpaths.Engine, partitions)
	urls := make([]string, partitions)
	servers := make([]*httptest.Server, partitions)
	for i := range engines {
		eng, err := hotpaths.NewEngine(hotpaths.EngineConfig{Config: cfg})
		if err != nil {
			log.Fatal(err)
		}
		defer eng.Close()
		engines[i] = eng
		servers[i] = httptest.NewServer(partitionNode(i, eng))
		defer servers[i].Close()
		urls[i] = servers[i].URL
	}
	ref, err := hotpaths.NewEngine(hotpaths.EngineConfig{Config: cfg})
	if err != nil {
		log.Fatal(err)
	}
	defer ref.Close()

	gw, err := gateway.New(gateway.Config{
		Table:         partition.NewTable(urls...),
		K:             cfg.K,
		ProbeInterval: 50 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer gw.Close()
	front := httptest.NewServer(gw.Handler())
	defer front.Close()
	client := front.Client()

	// Commuters stream along two avenues; every observation goes through
	// the gateway, which splits each batch by owning partition. The
	// reference engine ingests the identical interleaved batches.
	const commuters, horizon = 40, 240
	for now := int64(1); now <= horizon; now++ {
		var batch []hotpaths.ObservationJSON
		for i := 0; i < commuters; i++ {
			s := (now + int64(i)*7) % 150
			batch = append(batch, hotpaths.ObservationJSON{
				Object: i, X: float64(s) * 8, Y: float64(i%2) * 250, T: now,
			})
		}
		body, _ := json.Marshal(map[string]any{"observations": batch, "tick": now})
		resp, err := client.Post(front.URL+"/observe_batch", "application/json", bytes.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			log.Fatalf("gateway observe at t=%d: status %d", now, resp.StatusCode)
		}
		refBatch := make([]hotpaths.Observation, len(batch))
		for j, o := range batch {
			refBatch[j] = o.Observation()
		}
		if err := ref.ObserveBatchCtx(context.Background(), refBatch); err != nil {
			log.Fatal(err)
		}
		if err := ref.TickCtx(context.Background(), now); err != nil {
			log.Fatal(err)
		}
	}

	// The standing question — hottest paths right now — answered by the
	// merged fleet, must equal the single node's answer exactly.
	resp, err := client.Get(front.URL + "/topk")
	if err != nil {
		log.Fatal(err)
	}
	var merged []hotpaths.PathJSON
	if err := json.NewDecoder(resp.Body).Decode(&merged); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	single := hotpaths.PathsJSON(ref.Snapshot().Query(hotpaths.Query{}.K(cfg.K)))
	if !reflect.DeepEqual(merged, single) {
		log.Fatalf("fleet diverged from single node:\nfleet:  %v\nsingle: %v", merged, single)
	}
	fmt.Printf("merged top-k at epoch %s, identical to a single node:\n", resp.Header.Get(hotpaths.EpochHeader))
	for _, p := range merged {
		fmt.Printf("  #%d path %d hotness %d\n", p.Rank, p.ID, p.Hotness)
	}

	// Misrouted writes fail loudly: partition 1 refuses an object that
	// hashes elsewhere, before touching any state.
	stray := 0
	for partition.Index(stray, partitions) == 1 {
		stray++
	}
	body, _ := json.Marshal(map[string]any{"observations": []hotpaths.ObservationJSON{
		{Object: stray, X: 1, Y: 1, T: horizon + 1},
	}})
	resp, err = http.Post(urls[1]+"/observe", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Printf("direct write to the wrong partition: status %d, %s", resp.StatusCode, msg)

	// A lost partition degrades, not destroys: health goes 503 naming the
	// partition, and reads carry on with the survivors as 206 + the
	// missing list in X-Hotpaths-Partial.
	servers[3].Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err = client.Get(front.URL + "/healthz")
		if err != nil {
			log.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	fmt.Printf("after losing partition 3: /healthz %d\n", resp.StatusCode)
	// A write invalidates the merged cache, so the next read re-scatters
	// and discovers the hole.
	resp, _ = client.Post(front.URL+"/tick", "application/json",
		bytes.NewReader([]byte(fmt.Sprintf(`{"now": %d}`, horizon+1))))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	resp, err = client.Get(front.URL + "/topk")
	if err != nil {
		log.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	fmt.Printf("degraded read: status %d, partial partitions: %s\n",
		resp.StatusCode, resp.Header.Get(hotpaths.PartialHeader))
}
