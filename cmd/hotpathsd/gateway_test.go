package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hotpaths"
	"hotpaths/internal/gateway"
	"hotpaths/internal/httpapi"
	"hotpaths/internal/httpapi/httpapitest"
	"hotpaths/internal/metrics"
	"hotpaths/internal/partition"
)

// The gateway golden test: a 4-partition fleet behind a hotpathsgw
// gateway must answer every read byte-identically to a single engine fed
// the same interleaved workload, at every shared epoch — including the
// /watch delta stream. Content-addressed path ids and the canonical
// result order are what make this possible; the test is what holds the
// merge to them.

const goldenPartitions = 4

// partitionObjects returns the first n object ids owned by partition p
// of count, scanning ids upward from 1. The workload assigns each lane's
// objects to one partition so a lane's trajectory stays on one primary.
func partitionObjects(p, count, n int) []int {
	var out []int
	for id := 1; len(out) < n; id++ {
		if partition.Index(id, count) == p {
			out = append(out, id)
		}
	}
	return out
}

// goldenFleet builds the 4 partition daemons (ordinary engine-backed
// servers declaring their slots, at the URLs parts), a gateway over them,
// and the single reference engine. Everything is torn down via t.Cleanup.
func goldenFleet(t *testing.T) (gw, ref *httptest.Server, parts []string) {
	t.Helper()
	urls := make([]string, goldenPartitions)
	for i := 0; i < goldenPartitions; i++ {
		eng, err := hotpaths.NewEngine(hotpaths.EngineConfig{
			Config: serverTestConfig(),
			Shards: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		srv := httptest.NewServer(newServer(eng, serverOpts{
			partitionID: i, partitionCount: goldenPartitions,
		}).handler())
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	g, err := gateway.New(gateway.Config{
		Table:         partition.NewTable(urls...),
		K:             serverTestConfig().K,
		ProbeInterval: -1, // probed once in New; the test needs no poller
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	gw = httptest.NewServer(g.Handler())
	t.Cleanup(gw.Close)

	refEng, err := hotpaths.NewEngine(hotpaths.EngineConfig{
		Config: serverTestConfig(),
		Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { refEng.Close() })
	ref = httptest.NewServer(newServer(refEng, serverOpts{}).handler())
	t.Cleanup(ref.Close)
	return gw, ref, urls
}

// goldenBatch builds the observation batch for one timestamp: 8 spatially
// disjoint lanes (separation 200 ≫ 2ε, so lanes never interact), lane l
// at y = 200·l driven by two objects owned by partition l mod 4, zigging
// like feedZigZag so corridors form and expire. The shared lane at y = 100
// is driven by one object of every partition along one trajectory, so
// each partition discovers its corridors and holds them at hotness 1,
// below its own lanes' paths: only the sum over the fleet ranks them
// first.
func goldenBatch(lanes [][]int, shared []int, now int64) []hotpaths.ObservationJSON {
	var batch []hotpaths.ObservationJSON
	zig := func(base float64) (x, y float64) {
		if (now/5)%2 == 0 {
			return float64(now) * 6, base + 40
		}
		return float64(now) * 6, base
	}
	for l, objs := range lanes {
		x, y := zig(float64(200 * l))
		batch = append(batch,
			hotpaths.ObservationJSON{Object: objs[0], X: x, Y: y, T: now},
			hotpaths.ObservationJSON{Object: objs[1], X: x, Y: y + 0.5, T: now},
		)
	}
	x, y := zig(100)
	for _, obj := range shared {
		batch = append(batch, hotpaths.ObservationJSON{Object: obj, X: x, Y: y, T: now})
	}
	return batch
}

// goldenBox is the bbox of the region rows: lanes 0–2 and the shared lane.
const goldenBox = "0,0,400,450"

// goldenQueries is the read surface the fleet must answer identically:
// the three endpoints across the parameter space (defaults, k/limit,
// min_hotness, bbox, sort, combinations).
var goldenQueries = []string{
	"/topk",
	"/paths",
	"/paths.geojson",
	"/topk?sort=score",
	"/topk?k=3",
	"/paths?limit=5",
	"/paths?min_hotness=2",
	"/paths.geojson?limit=3&sort=score",
	"/paths?min_hotness=1&sort=score",
}

// goldenRegionQueries are the bbox rows. Each is asked as the first read
// after a write, so the gateway answers it from a gather of its region
// alone rather than from the view of every path an earlier row cached.
var goldenRegionQueries = []string{
	"/paths?bbox=" + goldenBox,
	"/topk?bbox=" + goldenBox + "&sort=score&k=4",
	"/paths.geojson?bbox=" + goldenBox,
	"/paths?bbox=" + goldenBox + "&min_hotness=2",
}

func fetchGolden(t *testing.T, base, path string) (status int, epoch, body string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	return resp.StatusCode, resp.Header.Get(hotpaths.EpochHeader), string(b)
}

// readSSEEvent reads one blank-line-terminated SSE event block.
func readSSEEvent(rd *bufio.Reader) (string, error) {
	var b strings.Builder
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			return "", err
		}
		if line == "\n" {
			return b.String(), nil
		}
		b.WriteString(line)
	}
}

func TestGatewayMatchesSingleNode(t *testing.T) {
	gw, ref, parts := goldenFleet(t)

	lanes := make([][]int, 8)
	for l := range lanes {
		lanes[l] = partitionObjects(l%goldenPartitions, goldenPartitions, 2)
		// Distinct lanes sharing a partition must not share objects.
		if l >= goldenPartitions {
			lanes[l] = partitionObjects(l%goldenPartitions, goldenPartitions, 4)[2:4]
		}
	}
	shared := make([]int, goldenPartitions)
	for p := range shared {
		shared[p] = partitionObjects(p, goldenPartitions, 5)[4]
	}

	// Open the /watch streams before the first epoch so both sides
	// baseline at epoch 0; headers returned means the subscription (and
	// the gateway's partition fan-in) is established.
	watchStreams := make(map[string][2]*bufio.Reader)
	for _, wq := range []string{"/watch", "/watch?bbox=" + goldenBox + "&k=5"} {
		var readers [2]*bufio.Reader
		for i, base := range []string{gw.URL, ref.URL} {
			resp, err := http.Get(base + wq)
			if err != nil {
				t.Fatalf("GET %s: %v", wq, err)
			}
			t.Cleanup(func() { resp.Body.Close() })
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s: status %d", wq, resp.StatusCode)
			}
			readers[i] = bufio.NewReader(resp.Body)
		}
		watchStreams[wq] = readers
	}

	const (
		lastTick   = 60
		epochEvery = 10 // serverTestConfig().Epoch
	)
	// agree asks both sides q: status, epoch header and body must agree
	// byte for byte. It returns the body.
	agree := func(now int64, q string) string {
		t.Helper()
		gs, ge, gb := fetchGolden(t, gw.URL, q)
		rs, re, rb := fetchGolden(t, ref.URL, q)
		if gs != rs {
			t.Fatalf("t=%d %s: gateway status %d, single node %d", now, q, gs, rs)
		}
		if ge != re {
			t.Fatalf("t=%d %s: gateway epoch %q, single node %q", now, q, ge, re)
		}
		if gb != rb {
			t.Fatalf("t=%d %s: bodies diverge\ngateway: %s\nsingle:  %s", now, q, gb, rb)
		}
		return gb
	}
	summed := 0 // region answers holding a path stored by several partitions
	for now := int64(1); now <= lastTick; now++ {
		req := httpapi.ObserveRequest{Observations: goldenBatch(lanes, shared, now), Tick: now}
		for _, base := range []string{gw.URL, ref.URL} {
			rec := postJSON(t, base+"/observe", req)
			if rec != http.StatusOK {
				t.Fatalf("observe t=%d against %s: status %d", now, base, rec)
			}
		}
		if now%epochEvery != 0 {
			continue
		}
		// Epoch boundary: every read must agree. An empty /observe changes
		// no state, but it is a write: the gateway drops its merged views,
		// so the region row after it gathers its region from the fleet.
		for _, q := range goldenRegionQueries {
			empty := httpapi.ObserveRequest{Observations: []hotpaths.ObservationJSON{}}
			for _, base := range []string{gw.URL, ref.URL} {
				if rec := postJSON(t, base+"/observe", empty); rec != http.StatusOK {
					t.Fatalf("empty observe t=%d against %s: status %d", now, base, rec)
				}
			}
			body := agree(now, q)
			if q == goldenRegionQueries[0] && heldTwice(t, parts, body) {
				summed++
			}
		}
		for _, q := range goldenQueries {
			agree(now, q)
		}
	}
	if summed == 0 {
		t.Error("no region answer held a path stored by two partitions: the merge never summed")
	}

	// The delta streams: baseline (epoch 0) plus one event per epoch,
	// byte-identical including the SSE framing.
	for wq, readers := range watchStreams {
		for ev := 0; ev <= lastTick/epochEvery; ev++ {
			g, err := readSSEEvent(readers[0])
			if err != nil {
				t.Fatalf("%s: gateway event %d: %v", wq, ev, err)
			}
			r, err := readSSEEvent(readers[1])
			if err != nil {
				t.Fatalf("%s: single-node event %d: %v", wq, ev, err)
			}
			if g != r {
				t.Fatalf("%s: event %d diverges\ngateway: %q\nsingle:  %q", wq, ev, g, r)
			}
		}
	}
}

// heldTwice reports whether some path of a /paths?bbox=goldenBox answer
// is stored by more than one partition.
func heldTwice(t *testing.T, parts []string, body string) bool {
	t.Helper()
	var answer []hotpaths.PathJSON
	if err := json.Unmarshal([]byte(body), &answer); err != nil {
		t.Fatal(err)
	}
	holders := make(map[uint64]int)
	for _, base := range parts {
		var held []hotpaths.PathJSON
		if err := json.Unmarshal([]byte(getBody(t, base+"/paths?bbox="+goldenBox)), &held); err != nil {
			t.Fatal(err)
		}
		for _, p := range held {
			holders[p.ID]++
		}
	}
	for _, p := range answer {
		if holders[p.ID] > 1 {
			return true
		}
	}
	return false
}

// postJSON posts v to url and returns the status code.
func postJSON(t *testing.T, url string, v any) int {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Logf("POST %s: %d %s", url, resp.StatusCode, b)
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

// The thin loop over the shared query matrix: the real hotpathsd handler
// and the real gateway handler must answer every malformed query with the
// same status and the same error body, and every well-formed one alike
// too — they parse with one parser, and this holds them to it.
func TestQueryMatrixBothServers(t *testing.T) {
	gw, ref, _ := goldenFleet(t)
	for want, queries := range map[int][]string{
		http.StatusBadRequest: httpapitest.BadQueries,
		http.StatusOK:         httpapitest.GoodQueries,
	} {
		for _, q := range queries {
			gs, _, gb := fetchGolden(t, gw.URL, q)
			rs, _, rb := fetchGolden(t, ref.URL, q)
			if gs != want || rs != want {
				t.Errorf("GET %s: gateway %d, hotpathsd %d, want %d (%s)", q, gs, rs, want, rb)
			}
			if gb != rb {
				t.Errorf("GET %s: bodies diverge\ngateway:   %s\nhotpathsd: %s", q, gb, rb)
			}
		}
	}
}

// The gateway documents itself as hotpathsd's HTTP API: every public
// route it mounts must be mounted, under the same method, by a plain
// daemon, or a client written against a fleet breaks on a single node.
func TestGatewaySurfaceIsDaemonSurface(t *testing.T) {
	eng, err := hotpaths.NewEngine(hotpaths.EngineConfig{Config: serverTestConfig(), Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	daemon := newServer(eng, serverOpts{})
	srv := httptest.NewServer(daemon.handler())
	t.Cleanup(srv.Close)
	g, err := gateway.New(gateway.Config{Table: partition.NewTable(srv.URL), ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)

	mounted := daemon.routes()
	routes := g.Routes()
	if len(routes) < 9 {
		t.Fatalf("gateway mounts only %v", routes)
	}
	for pattern := range routes {
		if mounted[pattern] == nil {
			t.Errorf("gateway mounts %q, hotpathsd does not", pattern)
		}
	}
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	_, _, body := fetchGolden(t, url, "")
	return body
}

// A /watch stream is a connection, not a request: holding one open past
// the latency SLO threshold and closing it must not spend latency error
// budget — on the daemon's stack or the gateway's (whose fan-in also
// holds one stream per partition daemon).
func TestStreamsDoNotBurnLatencySLO(t *testing.T) {
	gw, ref, _ := goldenFleet(t)
	for _, tc := range []struct{ name, base, series string }{
		{"hotpathsd", ref.URL, `hotpaths_http_request_seconds_count{route="/watch"}`},
		{"hotpathsgw", gw.URL, `hotpathsgw_http_request_seconds_count{route="/watch"}`},
	} {
		before := sampleValue(getBody(t, tc.base+"/metrics"), tc.series)
		resp, err := http.Get(tc.base + "/watch")
		if err != nil {
			t.Fatalf("%s: GET /watch: %v", tc.name, err)
		}
		if _, err := readSSEEvent(bufio.NewReader(resp.Body)); err != nil {
			t.Fatalf("%s: no baseline event: %v", tc.name, err)
		}
		time.Sleep(350 * time.Millisecond) // past the 250ms latency threshold
		resp.Body.Close()
		// The handler returns — and is observed — once it notices the
		// client is gone.
		deadline := time.Now().Add(10 * time.Second)
		for sampleValue(getBody(t, tc.base+"/metrics"), tc.series) == before {
			if time.Now().After(deadline) {
				t.Fatalf("%s: the closed /watch was never observed", tc.name)
			}
			time.Sleep(5 * time.Millisecond)
		}
		var health struct {
			Components struct {
				SLO struct {
					Burn metrics.SLOStatus `json:"burn"`
				} `json:"slo"`
			} `json:"components"`
		}
		if err := json.Unmarshal([]byte(getBody(t, tc.base+"/healthz?verbose=1")), &health); err != nil {
			t.Fatal(err)
		}
		if b := health.Components.SLO.Burn; b.LatencyFast != 0 || b.LatencySlow != 0 {
			t.Errorf("%s: a closed /watch stream spent latency budget: %+v", tc.name, b)
		}
	}
}

// /stats splits the processed reports by SinglePath case, on a daemon and
// summed over a fleet by the gateway: at every epoch boundary the three
// cases add up to the responses, one per processed report. (`reports`
// also counts the raised reports the next epoch will process.)
func TestStatsCaseMix(t *testing.T) {
	gw, ref, _ := goldenFleet(t)
	lanes := make([][]int, goldenPartitions)
	for l := range lanes {
		lanes[l] = partitionObjects(l, goldenPartitions, 2)
	}
	for now := int64(1); now <= 40; now++ {
		req := httpapi.ObserveRequest{Observations: goldenBatch(lanes, nil, now), Tick: now}
		for _, base := range []string{gw.URL, ref.URL} {
			if rec := postJSON(t, base+"/observe", req); rec != http.StatusOK {
				t.Fatalf("observe t=%d against %s: status %d", now, base, rec)
			}
			if now%10 != 0 {
				continue
			}
			var st struct{ Responses, Case1, Case2, Case3 int }
			if err := json.Unmarshal([]byte(getBody(t, base+"/stats")), &st); err != nil {
				t.Fatal(err)
			}
			if sum := st.Case1 + st.Case2 + st.Case3; sum != st.Responses || sum == 0 {
				t.Errorf("t=%d %s: case1+case2+case3 = %d+%d+%d, responses %d", now, base, st.Case1, st.Case2, st.Case3, st.Responses)
			}
		}
	}
}
