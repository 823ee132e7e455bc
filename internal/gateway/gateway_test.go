package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hotpaths"
	"hotpaths/internal/httpapi"
	"hotpaths/internal/metrics"
	"hotpaths/internal/partition"
	"hotpaths/internal/tracing"
)

// fakePart is a scriptable stand-in for one partition daemon: it records
// the writes it receives and serves a fixed path set — selected by the
// request's query (Matches for the binary body, Query for JSON) and
// written through httpapi.WritePaths, so it answers and negotiates the
// body exactly as hotpathsd does — so the tests can check routing (what
// reached whom, how many times) and failure handling (what the gateway answers when a partition
// is down or speaks an older contract).
type fakePart struct {
	id, count int

	failing atomic.Bool // 500 on every request while set

	observeHook func() // runs inside /observe, before the share is recorded

	mu        sync.Mutex
	batches   [][]hotpaths.ObservationJSON
	bodies    [][]byte // the /observe bodies behind batches, as received
	ticks     []int64
	paths     []hotpaths.PathJSON
	epoch     int64
	clock     int64
	pathReads int    // GET /paths requests served
	lastQuery string // raw query of the latest GET /paths
	noClock   bool   // answer /paths without the clock header
	jsonOnly  bool   // answer /paths in JSON whatever the Accept
	srv       *httptest.Server
}

// dropHeader deletes one response header just before the status line
// goes out, after the handler has set it.
type dropHeader struct {
	http.ResponseWriter
	name string
}

func (d dropHeader) WriteHeader(code int) {
	d.Header().Del(d.name)
	d.ResponseWriter.WriteHeader(code)
}

func newFakePart(t *testing.T, id, count int) *fakePart {
	t.Helper()
	f := &fakePart{id: id, count: count}
	mux := http.NewServeMux()
	guard := func(h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if f.failing.Load() {
				http.Error(w, `{"error":"injected failure"}`, http.StatusInternalServerError)
				return
			}
			h(w, r)
		}
	}
	mux.HandleFunc("POST /observe", guard(func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Observations []hotpaths.ObservationJSON `json:"observations"`
		}
		body, err := io.ReadAll(r.Body)
		if err == nil {
			err = json.Unmarshal(body, &req)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if f.observeHook != nil {
			f.observeHook()
		}
		f.mu.Lock()
		f.batches = append(f.batches, req.Observations)
		f.bodies = append(f.bodies, body)
		f.mu.Unlock()
		fmt.Fprintf(w, `{"accepted": %d}`, len(req.Observations))
	}))
	mux.HandleFunc("POST /tick", guard(func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Now int64 `json:"now"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		f.mu.Lock()
		f.ticks = append(f.ticks, req.Now)
		f.mu.Unlock()
		fmt.Fprintf(w, `{"now": %d}`, req.Now)
	}))
	mux.HandleFunc("GET /paths", guard(func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		paths, epoch, clock := f.paths, f.epoch, f.clock
		f.pathReads++
		f.lastQuery = r.URL.RawQuery
		if f.noClock {
			w = dropHeader{w, hotpaths.ClockHeader}
		}
		if f.jsonOnly {
			r.Header.Del("Accept")
		}
		f.mu.Unlock()
		q, err := httpapi.ParseQuery(r, 0)
		if err != nil {
			httpapi.Error(w, http.StatusBadRequest, err)
			return
		}
		snap := hotpaths.SnapshotOf(httpapi.HotPaths(paths), hotpaths.Rect{}, 0, 0, 0)
		answer := snap.Query
		if httpapi.WantsPaths(r) {
			answer = snap.Matches
		}
		httpapi.WritePaths(w, r, http.StatusOK, epoch, clock, answer(q), false)
	}))
	mux.HandleFunc("GET /healthz", guard(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ok"}`)
	}))
	mux.HandleFunc("GET /stats", guard(func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		epoch, clock := f.epoch, f.clock
		f.mu.Unlock()
		json.NewEncoder(w).Encode(map[string]any{
			"partition_id":    f.id,
			"partition_count": f.count,
			"epoch":           epoch,
			"clock":           clock,
			"observations":    1,
			"index_size":      len(f.paths),
		})
	}))
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

func newFakeFleet(t *testing.T, n int) []*fakePart {
	t.Helper()
	fleet := make([]*fakePart, n)
	for i := range fleet {
		fleet[i] = newFakePart(t, i, n)
	}
	return fleet
}

func newTestGateway(t *testing.T, fleet []*fakePart, probe time.Duration) *Gateway {
	t.Helper()
	urls := make([]string, len(fleet))
	for i, f := range fleet {
		urls[i] = f.srv.URL
	}
	g, err := New(Config{
		Table:         partition.NewTable(urls...),
		K:             10,
		ProbeInterval: probe,
		alignRetries:  3,
		alignWait:     time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

func doReq(t *testing.T, h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// hp builds one wire path with a distinguishable id and hotness.
func hp(id uint64, hotness int) hotpaths.PathJSON {
	return hotpaths.PathJSON{
		ID: id, Hotness: hotness,
		Start: hotpaths.PointJSON{X: 0, Y: float64(id)},
		End:   hotpaths.PointJSON{X: 100, Y: float64(id)},
	}
}

// TestBatchSplitExactlyOnce is the routing contract: a cross-partition
// batch is split by owner, each share arrives at exactly one partition
// exactly once, in the batch's relative order, and the epoch barrier
// reaches every partition — including those with no records in the batch.
func TestBatchSplitExactlyOnce(t *testing.T) {
	fleet := newFakeFleet(t, 4)
	g := newTestGateway(t, fleet, -1)
	h := g.Handler()

	var obs []hotpaths.ObservationJSON
	for id := 1; id <= 20; id++ {
		obs = append(obs, hotpaths.ObservationJSON{Object: id, X: float64(id), Y: 1, T: 5})
	}
	rec := doReq(t, h, http.MethodPost, "/observe_batch", map[string]any{
		"observations": obs, "tick": 5,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("observe: %d %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Accepted int   `json:"accepted"`
		Now      int64 `json:"now"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 20 || resp.Now != 5 {
		t.Fatalf("response = %+v, want accepted 20 now 5", resp)
	}

	seen := make(map[int]int) // object id -> deliveries
	for i, f := range fleet {
		f.mu.Lock()
		if len(f.batches) > 1 {
			t.Errorf("partition %d received %d batches, want at most 1", i, len(f.batches))
		}
		prevIdx := -1
		for _, batch := range f.batches {
			for _, o := range batch {
				seen[o.Object]++
				if got := partition.Index(o.Object, 4); got != i {
					t.Errorf("object %d (owner %d) delivered to partition %d", o.Object, got, i)
				}
				// Relative order within the original batch must survive
				// the split: object ids were fed ascending.
				if o.Object <= prevIdx {
					t.Errorf("partition %d: objects out of relative order: %d after %d", i, o.Object, prevIdx)
				}
				prevIdx = o.Object
			}
		}
		if len(f.ticks) != 1 || f.ticks[0] != 5 {
			t.Errorf("partition %d ticks = %v, want [5]", i, f.ticks)
		}
		f.mu.Unlock()
	}
	for id := 1; id <= 20; id++ {
		if seen[id] != 1 {
			t.Errorf("object %d delivered %d times, want exactly once", id, seen[id])
		}
	}
}

// TestObservePassThrough: the gateway forwards a canonical body's
// observations as the bytes the client sent — number spelling included —
// appended to their owner's body in arrival order, and counts no
// fallback. A body outside the canonical form (here: a capitalised key
// and an unknown field) takes the encoding/json path, still splits by
// owner in order, and is counted once; its re-encoded shares are
// canonical bodies, which a partition reads without a fallback.
func TestObservePassThrough(t *testing.T) {
	const n = 3
	// Canonical observations whose numbers are spelled four ways no
	// encoder writes; objects chosen so every partition gets some, in an
	// interleaved order.
	texts := func(id int) string {
		switch id % 4 {
		case 0:
			return fmt.Sprintf(`{"object":%d,"x":1.50,"y":2e0,"t":5}`, id)
		case 1:
			return fmt.Sprintf(`{"object":%d,"x":100E-2,"y":-0,"t":5}`, id)
		case 2:
			return fmt.Sprintf(`{"object":%d,"x":0.1,"y":2,"t":5,"sigma_x":0.5}`, id)
		}
		return fmt.Sprintf(`{"object":%d,"x":-0.0,"y":0E+0,"t":5,"sigma_y":25e-2}`, id)
	}
	var obs []string
	want := make([][]string, n)
	for id := 1; id <= 24; id++ {
		obs = append(obs, texts(id))
		p := partition.Index(id, n)
		want[p] = append(want[p], texts(id))
	}
	scrape := func(h http.Handler) float64 {
		rec := doReq(t, h, http.MethodGet, "/metrics", nil)
		for _, line := range strings.Split(rec.Body.String(), "\n") {
			if v, ok := strings.CutPrefix(line, "hotpathsgw_http_observe_fallback_total "); ok {
				f, _ := strconv.ParseFloat(v, 64)
				return f
			}
		}
		t.Fatal("hotpathsgw_http_observe_fallback_total is not exposed")
		return 0
	}
	// post sends body on a sampled trace and checks the gateway's answer
	// and the wire.decode span the decode left on that trace.
	post := func(h http.Handler, traceID, body string) {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, "/observe", strings.NewReader(body))
		req.Header.Set(tracing.Header, "00-"+traceID+"-00f067aa0ba902b7-01")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"accepted":24`) {
			t.Fatalf("observe: %d %s", rec.Code, rec.Body)
		}
		mux := http.NewServeMux()
		tracing.Default.RegisterDebug(mux)
		rec = httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces/"+traceID, nil))
		_, after, found := strings.Cut(rec.Body.String(), `"name": "wire.decode",`)
		if !found || !strings.Contains(after, `"records": 24`) || !strings.Contains(after, fmt.Sprintf(`"bytes": %d`, len(body))) {
			t.Errorf("no wire.decode span with records 24 and bytes %d on the request's trace:\n%s", len(body), rec.Body)
		}
	}

	fleet := newFakeFleet(t, n)
	h := newTestGateway(t, fleet, -1).Handler()
	before := scrape(h)
	post(h, tracing.NewTraceID().String(), `{"observations":[`+strings.Join(obs, ",")+`]}`)
	if got := scrape(h) - before; got != 0 {
		t.Errorf("a canonical body moved the fallback counter by %g", got)
	}
	for i, f := range fleet {
		f.mu.Lock()
		if len(f.bodies) != 1 {
			t.Fatalf("partition %d received %d bodies, want 1", i, len(f.bodies))
		}
		if got, want := string(f.bodies[0]), `{"observations":[`+strings.Join(want[i], ",")+`]}`; got != want {
			t.Errorf("partition %d received\n %s\nwant the client's own bytes\n %s", i, got, want)
		}
		f.bodies, f.batches = nil, nil
		f.mu.Unlock()
	}

	// The fallback: same observations, one key capitalised and a field no
	// decoder knows. encoding/json accepts both, so the gateway must too.
	quirky := slices.Clone(obs)
	quirky[0] = `{"Object":1,"t":5,"y":-0,"x":1,"speed":3}`
	post(h, tracing.NewTraceID().String(), `{"observations":[`+strings.Join(quirky, ",")+`]}`)
	if got := scrape(h) - before; got != 1 {
		t.Errorf("a non-canonical body moved the fallback counter by %g, want 1", got)
	}
	for i, f := range fleet {
		f.mu.Lock()
		if len(f.batches) != 1 || len(f.batches[0]) != len(want[i]) {
			t.Fatalf("partition %d received %v, want one batch of %d", i, f.batches, len(want[i]))
		}
		for j, o := range f.batches[0] {
			var sent hotpaths.ObservationJSON
			if err := json.Unmarshal([]byte(want[i][j]), &sent); err != nil {
				t.Fatal(err)
			}
			if o != sent {
				t.Errorf("partition %d observation %d = %+v, want %+v", i, j, o, sent)
			}
		}
		fallbacks := metrics.NewRegistry().Counter("test_fallback_total", "n", nil)
		r := httptest.NewRequest(http.MethodPost, "/observe", bytes.NewReader(f.bodies[0]))
		if _, n, ok := httpapi.DecodeObserve(httptest.NewRecorder(), r, &rawSink{}, fallbacks); !ok || n != len(want[i]) || fallbacks.Value() != 0 {
			t.Errorf("partition %d: its share %q is read with %d observations, ok %v, %d fallbacks; want %d, true, 0",
				i, f.bodies[0], n, ok, fallbacks.Value(), len(want[i]))
		}
		f.mu.Unlock()
	}
}

// TestMergeSumsByID: a corridor discovered by two partitions (one id,
// content-addressed) merges into one path with summed hotness.
func TestMergeSumsByID(t *testing.T) {
	fleet := newFakeFleet(t, 2)
	fleet[0].paths = []hotpaths.PathJSON{hp(9, 6), hp(7, 2)}
	fleet[1].paths = []hotpaths.PathJSON{hp(7, 3)}
	g := newTestGateway(t, fleet, -1)

	rec := doReq(t, g.Handler(), http.MethodGet, "/topk", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("topk: %d %s", rec.Code, rec.Body.String())
	}
	var got []hotpaths.PathJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d paths, want 2 (id 7 merged)", len(got))
	}
	if got[0].ID != 9 || got[0].Hotness != 6 {
		t.Errorf("rank 1 = id %d hotness %d, want id 9 hotness 6", got[0].ID, got[0].Hotness)
	}
	if got[1].ID != 7 || got[1].Hotness != 5 {
		t.Errorf("rank 2 = id %d hotness %d, want id 7 hotness 2+3", got[1].ID, got[1].Hotness)
	}
}

// TestPartialResults: a dead partition turns reads into 206 with the
// missing partition named in X-Hotpaths-Partial; the partial view is
// never cached, so the read heals as soon as the partition does; with
// every partition down the gateway answers 502.
func TestPartialResults(t *testing.T) {
	fleet := newFakeFleet(t, 2)
	fleet[0].paths = []hotpaths.PathJSON{hp(1, 4)}
	fleet[1].paths = []hotpaths.PathJSON{hp(2, 9)}
	g := newTestGateway(t, fleet, -1)
	h := g.Handler()

	fleet[1].failing.Store(true)
	rec := doReq(t, h, http.MethodGet, "/paths", nil)
	if rec.Code != http.StatusPartialContent {
		t.Fatalf("paths with partition 1 down: %d, want 206", rec.Code)
	}
	if got := rec.Header().Get(hotpaths.PartialHeader); got != "1" {
		t.Fatalf("%s = %q, want \"1\"", hotpaths.PartialHeader, got)
	}
	var got []hotpaths.PathJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("partial body = %+v, want partition 0's path only", got)
	}

	// Heal: the 206 must not have been cached.
	fleet[1].failing.Store(false)
	rec = doReq(t, h, http.MethodGet, "/paths", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("paths after heal: %d, want 200", rec.Code)
	}
	if got := rec.Header().Get(hotpaths.PartialHeader); got != "" {
		t.Fatalf("healed response still partial: %q", got)
	}
	got = nil
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("healed body has %d paths, want 2", len(got))
	}

	fleet[0].failing.Store(true)
	fleet[1].failing.Store(true)
	// The healed read above cached a complete view, which legitimately
	// keeps answering (the fleet cannot have changed without a routed
	// write). A write invalidates it; only then must reads fail hard.
	doReq(t, h, http.MethodPost, "/tick", map[string]any{"now": 99})
	rec = doReq(t, h, http.MethodGet, "/topk", nil)
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("topk with whole fleet down: %d, want 502", rec.Code)
	}
}

// TestWriteFailureExactlyOnce: with one partition down, a cross-partition
// batch answers 503, the healthy partition has applied its share exactly
// once (no retry, no duplicate), and the response maps each touched
// partition to "ok" or its error so the operator knows where the records
// went.
func TestWriteFailureExactlyOnce(t *testing.T) {
	fleet := newFakeFleet(t, 2)
	g := newTestGateway(t, fleet, -1)
	h := g.Handler()

	// Objects 1 and 2 happen to split across the two partitions; assert
	// rather than assume.
	if partition.Index(1, 2) == partition.Index(2, 2) {
		t.Fatal("test objects 1 and 2 no longer split across 2 partitions")
	}
	down := partition.Index(1, 2)
	fleet[down].failing.Store(true)

	rec := doReq(t, h, http.MethodPost, "/observe", map[string]any{
		"observations": []hotpaths.ObservationJSON{
			{Object: 1, X: 1, Y: 1, T: 1},
			{Object: 2, X: 2, Y: 2, T: 1},
		},
	})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("observe with partition %d down: %d, want 503", down, rec.Code)
	}
	var resp struct {
		Error      string            `json:"error"`
		Partitions map[string]string `json:"partitions"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	up := 1 - down
	if resp.Partitions[strconv.Itoa(up)] != "ok" {
		t.Errorf("healthy partition reported %q, want \"ok\"", resp.Partitions[strconv.Itoa(up)])
	}
	if resp.Partitions[strconv.Itoa(down)] == "" || resp.Partitions[strconv.Itoa(down)] == "ok" {
		t.Errorf("failed partition reported %q, want its error", resp.Partitions[strconv.Itoa(down)])
	}

	fleet[up].mu.Lock()
	if len(fleet[up].batches) != 1 || len(fleet[up].batches[0]) != 1 {
		t.Errorf("healthy partition batches = %v, want exactly one single-record batch", fleet[up].batches)
	}
	fleet[up].mu.Unlock()
	fleet[down].mu.Lock()
	if len(fleet[down].batches) != 0 {
		t.Errorf("failed partition recorded %d batches, want 0", len(fleet[down].batches))
	}
	fleet[down].mu.Unlock()
}

// TestHealthzDegrades: the prober turns a dead partition into a 503
// /healthz naming it, and recovery turns it back.
func TestHealthzDegrades(t *testing.T) {
	fleet := newFakeFleet(t, 2)
	g := newTestGateway(t, fleet, 5*time.Millisecond)
	h := g.Handler()

	if rec := doReq(t, h, http.MethodGet, "/healthz", nil); rec.Code != http.StatusOK {
		t.Fatalf("initial healthz: %d %s", rec.Code, rec.Body.String())
	}

	fleet[1].failing.Store(true)
	waitFor(t, "healthz to degrade", func() bool {
		return doReq(t, h, http.MethodGet, "/healthz", nil).Code == http.StatusServiceUnavailable
	})
	rec := doReq(t, h, http.MethodGet, "/healthz", nil)
	if rec.Code == http.StatusServiceUnavailable {
		var body struct {
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		if body.Status != "degraded" || body.Error == "" {
			t.Errorf("degraded body = %+v, want status degraded with an error", body)
		}
	}

	fleet[1].failing.Store(false)
	waitFor(t, "healthz to recover", func() bool {
		return doReq(t, h, http.MethodGet, "/healthz", nil).Code == http.StatusOK
	})
}

// TestTopologyMismatch: a daemon declaring a different partition slot
// than the table assigns it (a crossed wire in the fleet config) degrades
// health rather than silently serving misrouted traffic.
func TestTopologyMismatch(t *testing.T) {
	fleet := newFakeFleet(t, 2)
	fleet[1].id = 0 // daemon thinks it is partition 0; table says 1
	g := newTestGateway(t, fleet, -1)

	rec := doReq(t, g.Handler(), http.MethodGet, "/healthz", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz with misdeclared partition: %d, want 503", rec.Code)
	}
	if body := rec.Body.String(); !bytes.Contains([]byte(body), []byte("topology mismatch")) {
		t.Errorf("healthz body %q does not name the topology mismatch", body)
	}
}

// TestCacheInvalidatedByWrites: the merged view is cached between
// writes (all writes flow through the gateway) and re-gathered after
// any routed write.
func TestCacheInvalidatedByWrites(t *testing.T) {
	fleet := newFakeFleet(t, 2)
	fleet[0].paths = []hotpaths.PathJSON{hp(1, 1)}
	g := newTestGateway(t, fleet, -1)
	h := g.Handler()

	doReq(t, h, http.MethodGet, "/paths", nil) // warm the cache
	fleet[0].mu.Lock()
	fleet[0].paths = []hotpaths.PathJSON{hp(1, 8)}
	fleet[0].mu.Unlock()

	// No write yet: the cached view still answers.
	rec := doReq(t, h, http.MethodGet, "/paths", nil)
	var got []hotpaths.PathJSON
	json.Unmarshal(rec.Body.Bytes(), &got)
	if len(got) != 1 || got[0].Hotness != 1 {
		t.Fatalf("cached read = %+v, want the pre-write view (hotness 1)", got)
	}

	// A routed write invalidates; the next read re-gathers.
	doReq(t, h, http.MethodPost, "/tick", map[string]any{"now": 10})
	rec = doReq(t, h, http.MethodGet, "/paths", nil)
	got = nil
	json.Unmarshal(rec.Body.Bytes(), &got)
	if len(got) != 1 || got[0].Hotness != 8 {
		t.Fatalf("post-write read = %+v, want the fresh view (hotness 8)", got)
	}
}

// TestRegionReadPushesDownBbox: a read with a bbox asks every partition
// for that region and nothing else — k, min_hotness and sort hold only of
// the summed hotness — and its region view answers repeated reads of the
// same box until a write. A cached view of every path answers any box.
func TestRegionReadPushesDownBbox(t *testing.T) {
	fleet := mergeFleet(t)
	h := newTestGateway(t, fleet, -1).Handler()
	reads := func() (n int) {
		for _, f := range fleet {
			f.mu.Lock()
			n += f.pathReads
			f.mu.Unlock()
		}
		return n
	}
	asked := func(want, what string) {
		t.Helper()
		for i, f := range fleet {
			f.mu.Lock()
			got := f.lastQuery
			f.mu.Unlock()
			if got != want {
				t.Errorf("partition %d was asked %q for %s, want %q", i, got, what, want)
			}
		}
	}
	get := func(url string) []hotpaths.PathJSON {
		t.Helper()
		rec := doReq(t, h, http.MethodGet, url, nil)
		var got []hotpaths.PathJSON
		if err := json.Unmarshal(rec.Body.Bytes(), &got); rec.Code != http.StatusOK || err != nil {
			t.Fatalf("%s: %d %s", url, rec.Code, rec.Body)
		}
		return got
	}

	// Id 7 is held at hotness 2 and 3: only the sum clears min_hotness 5.
	got := get("/paths?bbox=0,5,40,8&min_hotness=5&k=1&sort=score")
	if len(got) != 1 || got[0].ID != 7 || got[0].Hotness != 5 {
		t.Fatalf("region read = %+v, want id 7 at hotness 2+3", got)
	}
	asked("bbox=0%2C5%2C40%2C8", "a region read") // the bbox alone
	if n := reads(); n != 2 {
		t.Fatalf("%d partition reads after one region read, want 2", n)
	}
	get("/paths?bbox=0,5,40,8")
	if n := reads(); n != 2 {
		t.Errorf("a repeated box re-gathered: %d partition reads, want 2", n)
	}
	get("/paths?bbox=0,0,200,5")
	if n := reads(); n != 4 {
		t.Errorf("a new box: %d partition reads, want 4", n)
	}
	get("/topk")
	asked("", "/topk") // every path
	if got := get("/paths?bbox=0,0,10,1"); len(got) != 1 || got[0].ID != 1 || reads() != 6 {
		t.Errorf("a box after /topk = %+v with %d partition reads, want id 1 from the full view (6 reads)", got, reads())
	}

	doReq(t, h, http.MethodPost, "/tick", map[string]any{"now": 10})
	get("/paths?bbox=0,5,40,8")
	if n := reads(); n != 8 {
		t.Errorf("a box after a write: %d partition reads, want 8", n)
	}
}

// TestObserveReadYourWrites: a read racing an in-flight /observe must not
// poison the cache. Regression: invalidating before the forward let a
// mid-write read gather the pre-write state and cache it under the
// post-write generation — with no tick attached, nothing ever invalidated
// it, so the gateway kept serving the stale view after the write's 200.
func TestObserveReadYourWrites(t *testing.T) {
	fleet := newFakeFleet(t, 1)
	fleet[0].paths = []hotpaths.PathJSON{hp(1, 1)}
	g := newTestGateway(t, fleet, -1)
	h := g.Handler()

	doReq(t, h, http.MethodGet, "/paths", nil) // warm the cache

	inWrite := make(chan struct{})
	release := make(chan struct{})
	fleet[0].observeHook = func() {
		close(inWrite)
		<-release
	}
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		done <- doReq(t, h, http.MethodPost, "/observe", map[string]any{
			"observations": []hotpaths.ObservationJSON{{Object: 1, X: 1, Y: 1, T: 1}},
		})
	}()
	<-inWrite
	// Concurrent read while the write is in flight: it legitimately sees
	// the pre-write state, but must not cache it past the write.
	doReq(t, h, http.MethodGet, "/paths", nil)
	// The write "applies": the partition serves the post-write state.
	fleet[0].mu.Lock()
	fleet[0].paths = []hotpaths.PathJSON{hp(1, 8)}
	fleet[0].mu.Unlock()
	close(release)
	if rec := <-done; rec.Code != http.StatusOK {
		t.Fatalf("observe: %d %s", rec.Code, rec.Body.String())
	}

	rec := doReq(t, h, http.MethodGet, "/paths", nil)
	var got []hotpaths.PathJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Hotness != 8 {
		t.Fatalf("read after observe = %+v, want the post-write view (hotness 8)", got)
	}
}

// TestStaleEpochExcluded: when alignment retries run dry with a partition
// stuck at an older epoch, its paths are excluded from the merge AND it
// is named in X-Hotpaths-Partial — never both "absent" and merged in.
func TestStaleEpochExcluded(t *testing.T) {
	fleet := newFakeFleet(t, 2)
	fleet[0].paths = []hotpaths.PathJSON{hp(1, 4)}
	fleet[0].epoch = 5
	fleet[1].paths = []hotpaths.PathJSON{hp(2, 9)}
	fleet[1].epoch = 3 // permanently behind: retries cannot fix it
	g := newTestGateway(t, fleet, -1)

	rec := doReq(t, g.Handler(), http.MethodGet, "/paths", nil)
	if rec.Code != http.StatusPartialContent {
		t.Fatalf("paths with a stuck partition: %d, want 206", rec.Code)
	}
	if got := rec.Header().Get(hotpaths.PartialHeader); got != "1" {
		t.Fatalf("%s = %q, want \"1\"", hotpaths.PartialHeader, got)
	}
	if got := rec.Header().Get(hotpaths.EpochHeader); got != "5" {
		t.Fatalf("%s = %q, want the target epoch \"5\"", hotpaths.EpochHeader, got)
	}
	var got []hotpaths.PathJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("merged body = %+v, want the stale partition's paths excluded", got)
	}
}

// TestStaleClockExcluded: hotness slides with every tick, so a partition
// at the fleet's epoch but an older clock sits at a different instant.
// When it never catches up, its paths are excluded and it is named in
// X-Hotpaths-Partial, as a stale epoch is — not merged under the newer
// clock.
func TestStaleClockExcluded(t *testing.T) {
	fleet := newFakeFleet(t, 2)
	fleet[0].paths = []hotpaths.PathJSON{hp(1, 4)}
	fleet[0].epoch, fleet[0].clock = 5, 57
	fleet[1].paths = []hotpaths.PathJSON{hp(2, 9)}
	fleet[1].epoch, fleet[1].clock = 5, 56 // one tick behind, for good
	g := newTestGateway(t, fleet, -1)

	rec := doReq(t, g.Handler(), http.MethodGet, "/paths", nil)
	if rec.Code != http.StatusPartialContent {
		t.Fatalf("paths with a partition at an older clock: %d, want 206", rec.Code)
	}
	if got := rec.Header().Get(hotpaths.PartialHeader); got != "1" {
		t.Fatalf("%s = %q, want \"1\"", hotpaths.PartialHeader, got)
	}
	if got := rec.Header().Get(hotpaths.ClockHeader); got != "57" {
		t.Fatalf("%s = %q, want the fleet's clock \"57\"", hotpaths.ClockHeader, got)
	}
	var got []hotpaths.PathJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("merged body = %+v, want the lagging partition's paths excluded", got)
	}
	_, missing := g.gather(context.Background(), "")
	//hotpathsvet:ignore errstring the test pins the operator-facing text that names the lagging clock
	if len(missing) != 1 || missing[0].err.Error() != "stuck at clock 56 while the fleet reached 57" {
		t.Fatalf("missing = %+v, want partition 1 stuck at clock 56", missing)
	}
}

// TestWriteErrStatusClassification: the 400-vs-503 split keys off the
// typed upstream status, not the error text — an upstream whose error
// body happens to contain "upstream status 4xx" is still a 503.
func TestWriteErrStatusClassification(t *testing.T) {
	for _, tc := range []struct {
		name string
		errs []partError
		want int
	}{
		{"all 4xx", []partError{{0, &upstreamError{status: 400}}, {1, &upstreamError{status: 422}}}, http.StatusBadRequest},
		{"5xx", []partError{{0, &upstreamError{status: 500}}}, http.StatusServiceUnavailable},
		{"4xx and unreachable", []partError{{0, &upstreamError{status: 400}}, {1, errors.New("dial tcp: refused")}}, http.StatusServiceUnavailable},
		{"echoed text is not a status", []partError{{0, errors.New(`500: body says "upstream status 400"`)}}, http.StatusServiceUnavailable},
	} {
		if got := writeErrStatus(tc.errs); got != tc.want {
			t.Errorf("%s: writeErrStatus = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// The gateway's SLO reads the request families its routes register: a
// 502 with every partition down burns availability budget. An SLO pointed
// at a family nobody registers reads 0 forever, whatever it answers.
func TestSLOBurnsOnServerErrors(t *testing.T) {
	fleet := newFakeFleet(t, 2)
	g := newTestGateway(t, fleet, -1)
	fleet[0].failing.Store(true)
	fleet[1].failing.Store(true)
	if rec := doReq(t, g.Handler(), http.MethodGet, "/topk", nil); rec.Code != http.StatusBadGateway {
		t.Fatalf("topk with whole fleet down: %d, want 502", rec.Code)
	}
	if got := g.slo.Status().AvailabilityFast; got <= 0 {
		t.Fatalf("availability burn after a 502 = %v, want > 0", got)
	}
}

// TestStatsAllPartitionsDown: /stats fails hard (502) when no partition
// answers, matching the merged read endpoints, rather than presenting
// all-zero sums as a partial result.
func TestStatsAllPartitionsDown(t *testing.T) {
	fleet := newFakeFleet(t, 2)
	g := newTestGateway(t, fleet, -1)
	fleet[0].failing.Store(true)
	fleet[1].failing.Store(true)

	rec := doReq(t, g.Handler(), http.MethodGet, "/stats", nil)
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("stats with whole fleet down: %d, want 502", rec.Code)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Error == "" {
		t.Fatal("502 stats body carries no error")
	}
}

// TestMissingClockHeader: a partition answering without the clock header
// fails its leg with an error naming the header, as a missing epoch does.
// It used to be read as clock 0: a laggard the alignment retries
// re-fetched for their whole budget (50 × 5ms) before excluding it — and
// a fleet that all omitted it had its reads stamped clock 0.
func TestMissingClockHeader(t *testing.T) {
	fleet := newFakeFleet(t, 2)
	urls := make([]string, len(fleet))
	for i, f := range fleet {
		f.paths = []hotpaths.PathJSON{hp(uint64(i+1), 3)}
		f.epoch, f.clock = 5, 57
		urls[i] = f.srv.URL
	}
	fleet[1].noClock = true
	// The default alignment budget, the one the clock-0 laggard used up.
	g, err := New(Config{Table: partition.NewTable(urls...), ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	h := g.Handler()

	start := time.Now()
	rec := doReq(t, h, http.MethodGet, "/topk", nil)
	elapsed := time.Since(start)
	if rec.Code != http.StatusPartialContent || rec.Header().Get(hotpaths.PartialHeader) != "1" {
		t.Fatalf("topk with partition 1 omitting the clock: %d %s=%q, want 206 naming 1",
			rec.Code, hotpaths.PartialHeader, rec.Header().Get(hotpaths.PartialHeader))
	}
	if got := rec.Header().Get(hotpaths.ClockHeader); got != "57" {
		t.Errorf("%s = %q, want partition 0's \"57\"", hotpaths.ClockHeader, got)
	}
	fleet[1].mu.Lock()
	reads := fleet[1].pathReads
	fleet[1].mu.Unlock()
	if reads != 1 {
		t.Errorf("partition 1 was fetched %d times, want once: a missing header is nothing to wait for", reads)
	}
	if budget := 50 * 5 * time.Millisecond; elapsed >= budget {
		t.Errorf("read took %v, the whole alignment budget (%v)", elapsed, budget)
	}
	_, missing := g.gather(context.Background(), "")
	//hotpathsvet:ignore errstring the test pins that the operator-facing text names the header
	if len(missing) != 1 || !strings.Contains(missing[0].err.Error(), "missing "+hotpaths.ClockHeader+" header") {
		t.Fatalf("missing = %+v, want partition 1 missing its %s header", missing, hotpaths.ClockHeader)
	}

	// With every partition omitting it there is no clock to stamp.
	fleet[0].mu.Lock()
	fleet[0].noClock = true
	fleet[0].mu.Unlock()
	if rec := doReq(t, h, http.MethodGet, "/topk", nil); rec.Code != http.StatusBadGateway {
		t.Fatalf("topk with no partition sending the clock: %d, want 502", rec.Code)
	}
}

// TestJSONPartitionRejected: the gateway reads partitions' binary path
// bodies only. A partition answering /paths in JSON — a hotpathsd from
// before the binary body — fails its leg with an error saying so, and is
// named in X-Hotpaths-Partial.
func TestJSONPartitionRejected(t *testing.T) {
	fleet := newFakeFleet(t, 2)
	fleet[0].paths = []hotpaths.PathJSON{hp(1, 4)}
	fleet[1].paths = []hotpaths.PathJSON{hp(2, 9)}
	fleet[1].jsonOnly = true
	g := newTestGateway(t, fleet, -1)

	rec := doReq(t, g.Handler(), http.MethodGet, "/paths", nil)
	if rec.Code != http.StatusPartialContent || rec.Header().Get(hotpaths.PartialHeader) != "1" {
		t.Fatalf("paths with a JSON partition: %d %s=%q, want 206 naming 1",
			rec.Code, hotpaths.PartialHeader, rec.Header().Get(hotpaths.PartialHeader))
	}
	_, missing := g.gather(context.Background(), "")
	//hotpathsvet:ignore errstring the test pins the operator-facing hint at an outdated partition
	if len(missing) != 1 || !strings.Contains(missing[0].err.Error(), "is this a current hotpathsd?") {
		t.Fatalf("missing = %+v, want partition 1 refused as outdated", missing)
	}
}

// mergeFleet is two partitions sharing one corridor (id 7) and ties in
// both orders: ids 7 and 4 tie on hotness (the longer ranks first), ids
// 2 and 5 and ids 7 and 3 tie on score (the hotter ranks first).
func mergeFleet(t *testing.T) []*fakePart {
	path := func(id uint64, hotness int, length float64) hotpaths.PathJSON {
		y := float64(id)
		if id == 1 || id == 3 {
			y = float64(id - 1) // ends on the edges of the bbox below
		}
		return hotpaths.PathJSON{
			ID: id, Hotness: hotness,
			Start: hotpaths.PointJSON{X: 0, Y: y},
			End:   hotpaths.PointJSON{X: length, Y: y},
		}
	}
	fleet := newFakeFleet(t, 2)
	fleet[0].paths = []hotpaths.PathJSON{path(1, 4, 10), path(2, 2, 100), path(3, 3, 50), path(7, 2, 30)}
	fleet[1].paths = []hotpaths.PathJSON{path(7, 3, 30), path(4, 5, 5), path(5, 1, 200)}
	return fleet
}

// TestMergedQueriesMatchReference: the merged view answers every query
// shape exactly as the full sort-then-filter reference over the summed
// union does — the order Query.Select used to impose up front.
func TestMergedQueriesMatchReference(t *testing.T) {
	fleet := mergeFleet(t)
	byID := map[uint64]hotpaths.HotPath{}
	for _, f := range fleet {
		for _, hp := range httpapi.HotPaths(f.paths) {
			if prev, ok := byID[hp.ID]; ok {
				hp.Hotness += prev.Hotness
			}
			byID[hp.ID] = hp
		}
	}
	var union []hotpaths.HotPath
	for _, hp := range byID {
		union = append(union, hp)
	}
	hotpaths.SortResults(union, hotpaths.ByHotness)

	within := func(minX, minY, maxX, maxY float64) func(hotpaths.HotPath) bool {
		return func(hp hotpaths.HotPath) bool {
			return hp.End.X >= minX && hp.End.X <= maxX && hp.End.Y >= minY && hp.End.Y <= maxY
		}
	}
	hotter := func(n int) func(hotpaths.HotPath) bool {
		return func(hp hotpaths.HotPath) bool { return hp.Hotness >= n }
	}
	for _, tc := range []struct {
		url   string
		keep  func(hotpaths.HotPath) bool
		order hotpaths.SortOrder
		k     int
		geo   bool
	}{
		{url: "/topk", k: 10},
		{url: "/topk?k=2", k: 2},
		{url: "/paths?bbox=10,0,50,2", keep: within(10, 0, 50, 2)},
		{url: "/paths?min_hotness=3", keep: hotter(3)},
		{url: "/paths?sort=score", order: hotpaths.ByScore},
		{url: "/topk?sort=score&k=3", order: hotpaths.ByScore, k: 3},
		{url: "/paths?bbox=0,0,200,5&min_hotness=2&sort=score", keep: func(hp hotpaths.HotPath) bool {
			return within(0, 0, 200, 5)(hp) && hotter(2)(hp)
		}, order: hotpaths.ByScore},
		{url: "/paths.geojson?limit=3&sort=score", order: hotpaths.ByScore, k: 3, geo: true},
	} {
		var want []hotpaths.HotPath
		for _, hp := range union {
			if tc.keep == nil || tc.keep(hp) {
				want = append(want, hp)
			}
		}
		hotpaths.SortResults(want, tc.order)
		if tc.k > 0 && tc.k < len(want) {
			want = want[:tc.k]
		}
		var body bytes.Buffer
		if tc.geo {
			hotpaths.WriteGeoJSON(&body, want)
		} else {
			json.NewEncoder(&body).Encode(hotpaths.PathsJSON(want))
		}
		// A fresh gateway per query, so each answers from a cold view.
		rec := doReq(t, newTestGateway(t, fleet, -1).Handler(), http.MethodGet, tc.url, nil)
		if rec.Code != http.StatusOK || rec.Body.String() != body.String() {
			t.Errorf("%s: %d\n got  %s\n want %s", tc.url, rec.Code, rec.Body, body.Bytes())
		}
	}
}

// TestColdReadTrace: a cold read's trace shows each partition leg with
// the size of the body it carried — 48 bytes a path — and one
// gateway.merge span counting partitions and paths in and out.
func TestColdReadTrace(t *testing.T) {
	fleet := mergeFleet(t)
	h := newTestGateway(t, fleet, -1).Handler()
	// A fresh id per run: tracing.Default keeps the spans of earlier runs.
	traceID := tracing.NewTraceID().String()
	req := httptest.NewRequest(http.MethodGet, "/topk", nil)
	req.Header.Set(tracing.Header, "00-"+traceID+"-00f067aa0ba902b7-01")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("topk: %d %s", rec.Code, rec.Body)
	}

	mux := http.NewServeMux()
	tracing.Default.RegisterDebug(mux)
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces/"+traceID, nil))
	var tr struct {
		Spans []struct {
			Name  string         `json:"name"`
			Attrs map[string]any `json:"attrs"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil {
		t.Fatalf("trace %s: %v\n%s", traceID, err, rec.Body)
	}
	legBytes := map[float64]float64{} // partition -> bytes of its /paths leg
	merges := 0
	for _, s := range tr.Spans {
		switch {
		case s.Name == "partition.leg" && s.Attrs["http.path"] == "/paths":
			legBytes[s.Attrs["partition"].(float64)] = s.Attrs["bytes"].(float64)
		case s.Name == "gateway.merge":
			merges++
			if s.Attrs["partitions"] != 2.0 || s.Attrs["paths_in"] != 7.0 || s.Attrs["paths_out"] != 6.0 {
				t.Errorf("gateway.merge attrs = %v, want partitions 2, paths_in 7, paths_out 6", s.Attrs)
			}
		}
	}
	if merges != 1 {
		t.Errorf("%d gateway.merge spans, want 1", merges)
	}
	for i, f := range fleet {
		if want := float64(len(f.paths) * httpapi.PathSize); legBytes[float64(i)] != want {
			t.Errorf("partition %d /paths leg: bytes %v, want %v", i, legBytes[float64(i)], want)
		}
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// rawSink keeps each observation of a body with a copy of its raw text.
type rawSink struct {
	obs  []hotpaths.ObservationJSON
	raws [][]byte
}

func (c *rawSink) Reset() { c.obs, c.raws = c.obs[:0], c.raws[:0] }

func (c *rawSink) Add(o hotpaths.ObservationJSON, raw []byte) {
	c.obs, c.raws = append(c.obs, o), append(c.raws, bytes.Clone(raw))
}

// A body of known length is split into shares sized once: from an empty
// pool, each partition's share is one allocation and its buffer one more.
// A chunked body, whose length is not known, grows its shares. Once the
// pool holds the shares of the previous split, a split allocates nothing;
// that last check needs a pool that keeps what it is given, so a -race
// build, whose sync.Pool drops items at random, leaves it out.
func TestSharesSizedOnce(t *testing.T) {
	var req httpapi.ObserveRequest
	for i := range 2000 {
		req.Observations = append(req.Observations, hotpaths.ObservationJSON{
			Object: i, X: 470000 + float64(i)*1.37, Y: 4200000 - float64(i)/3, T: 7,
		})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var sink rawSink
	r := httptest.NewRequest(http.MethodPost, "/observe", bytes.NewReader(body))
	if _, n, ok := httpapi.DecodeObserve(httptest.NewRecorder(), r, &sink, mObserveFallback); !ok || n != 2000 || sink.raws[0] == nil {
		t.Fatalf("decode: %d observations, ok %v", n, ok)
	}
	// A collection empties the pool, and the pool's next use allocates its
	// per-P slots anew; a collection between runs would count those too.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(length int64, cold bool) float64 {
		s := newShares(2, length)
		return testing.AllocsPerRun(10, func() {
			s.Reset()
			if cold {
				for sharePool.Get() != nil {
				}
			}
			for i, o := range sink.obs {
				s.Add(o, sink.raws[i])
			}
			s.close()
		})
	}
	if n := allocs(int64(len(body)), true); n != 4 {
		t.Errorf("splitting %d bytes over 2 partitions from an empty pool allocates %v times, want 4", len(body), n)
	}
	if n := allocs(-1, true); n <= 4 {
		t.Errorf("a body of unknown length allocates %v times; the test no longer tells the two apart", n)
	}
	if raceEnabled {
		return
	}
	if n := allocs(int64(len(body)), false); n != 0 {
		t.Errorf("splitting %d bytes over 2 partitions with the pool warm allocates %v times, want 0", len(body), n)
	}
}

// lateReader is a transport that answers every POST /observe at once and
// reads its body 20 ms later, from another goroutine — as
// http.RoundTripper allows: it must close the body, "but depending on the
// implementation may do so in a separate goroutine even after RoundTrip
// returns". Every other request goes to http.DefaultTransport.
type lateReader struct {
	wg     sync.WaitGroup
	mu     sync.Mutex
	bodies map[string]int // each body read, by its bytes
}

func (l *lateReader) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method != http.MethodPost || r.URL.Path != "/observe" {
		return http.DefaultTransport.RoundTrip(r)
	}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		time.Sleep(20 * time.Millisecond)
		body, _ := io.ReadAll(r.Body)
		r.Body.Close()
		l.mu.Lock()
		l.bodies[string(body)]++
		l.mu.Unlock()
	}()
	return &http.Response{
		StatusCode: http.StatusOK, Header: http.Header{}, Request: r,
		Body: io.NopCloser(strings.NewReader(`{"accepted":0}`)),
	}, nil
}

// A partition's answer may come back before its request body has been
// written — the transport still holds the body after the gateway's
// request has ended. The share must not go back to the pool, to be
// rebuilt by the next write, before the transport is done with it: each
// body the slow transport reads is one the gateway sent, each once. Under
// -race a share reused too early also shows as a race between the next
// split and the transport's read.
func TestSlowPartitionBodyNotReused(t *testing.T) {
	late := &lateReader{bodies: map[string]int{}}
	http.DefaultClient.Transport = late
	t.Cleanup(func() { http.DefaultClient.Transport = nil })
	h := newTestGateway(t, newFakeFleet(t, 1), time.Hour).Handler()
	want := map[string]int{}
	for k := range 8 {
		var req httpapi.ObserveRequest
		for i := range 500 + 100*k {
			req.Observations = append(req.Observations, hotpaths.ObservationJSON{
				Object: i, X: 470000 + float64(k), Y: 4200000 + float64(i)/7, T: int64(k + 1),
			})
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		want[string(body)]++ // one partition: its share is the client's body
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/observe", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("write %d: %d %s", k, rec.Code, rec.Body)
		}
	}
	late.wg.Wait()
	if !maps.Equal(late.bodies, want) {
		t.Errorf("the transport read %d distinct bodies of the %d sent, or some more than once", len(late.bodies), len(want))
	}
}

// raceEnabled is set by race_test.go in a -race build.
var raceEnabled bool
