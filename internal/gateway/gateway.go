// Package gateway implements the scatter-gather router in front of a
// partitioned hotpathsd fleet: N independent -wal primaries, each owning
// the objects that hash to its partition (internal/partition), fronted by
// one process that routes writes to owners and merges reads at a shared
// epoch.
//
// # Write routing
//
// POST /observe splits each batch by partition.Index(object, N) and
// forwards every record to exactly one primary, exactly once (failed
// sub-batches are reported, never retried — a retry could double-apply).
// The split passes the client's bytes through: an observation is decoded
// far enough to validate it and find its owner, and its JSON text is
// appended, unparsed, to that partition's body (see shares).
// POST /tick is an epoch barrier: the tick is forwarded to every primary
// and succeeds only when all of them applied it, so the fleet shares one
// epoch sequence. All writes MUST flow through the gateway — that is
// what lets it cache merged reads per epoch and know when they go stale.
//
// # Read merging
//
// GET /topk, /paths and /paths.geojson are answered from a merged view:
// the gateway fetches every partition's /paths at an agreed instant (the
// X-Hotpaths-Epoch and X-Hotpaths-Clock response headers, re-fetching
// laggards until all partitions answer at the same epoch and clock) as
// the fixed-width binary body (httpapi.PathsType — a partition answering
// JSON is an error, not a fallback), and sums hotness by path id — ids
// are content-addressed, so a corridor discovered by several partitions
// merges by id alone. Nobody orders anything on the way: a partition
// answers a leg as an unordered set (Snapshot.Matches — a copy of its
// snapshot and an encode, no sort), the gateway keeps the bodies
// undecoded until the partitions agree, and the merge is one flat pass
// that decodes every body straight into an open-addressing table (see
// merge.go). A leg the merge refuses — a negative hotness, a sum that
// overflows int, a non-finite coordinate — fails its partition like an
// unreachable one. The union is a hotpaths.Snapshot, unordered, that
// orders itself on demand: a /topk costs a bounded selection, a full
// /paths one memoized sort. The query (k/limit, min_hotness, bbox, sort)
// is applied to the union by the same Snapshot.Query a daemon answers
// with, so a fleet behind a gateway answers byte-identically to one
// hotpathsd fed the same workload.
//
// One pushdown rule serves every read, /watch included: only bbox is
// forwarded to the partitions (see pushdown). Region membership is
// per-path geometry — a path's end vertex is part of its id, so every
// partition storing a path agrees on whether it lies in the box — while
// k and min_hotness are properties of the summed hotness and hold only
// after the merge: a path two partitions each hold at hotness 1 is a
// hotness-2 path of the fleet. A read with a bbox gathers only its
// region; /topk and an unfiltered /paths gather every path.
//
// Merged views are cached until the next write routed through the
// gateway. (A daemon keeps its view per tick instead; the gateway cannot
// see a partition's clock move without asking it.) The view of every path
// answers any read of its generation, a bbox read included; a region
// view answers repeated reads of the same box. So a steady-state read
// costs one local query, not a fan-out.
//
// When a partition cannot be reached the gateway answers 206 with the
// partitions it could merge and names the missing ones in the
// X-Hotpaths-Partial header — a partial answer a client can see is
// partial, never a silently shrunken one.
package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hotpaths"
	"hotpaths/internal/flightrec"
	"hotpaths/internal/httpapi"
	"hotpaths/internal/metrics"
	"hotpaths/internal/partition"
	"hotpaths/internal/tracing"
)

// Config parameterises a Gateway.
type Config struct {
	// Table is the fleet: partition i's base URL at slot i (required).
	Table partition.Table

	// K is the default /topk and /watch result cap (default 10),
	// mirroring hotpathsd's -k.
	K int

	// RequestTimeout bounds each per-partition sub-request (default 10s).
	RequestTimeout time.Duration

	// alignRetries and alignWait govern agreement on reads: a partition
	// that answers at an older epoch or clock than its peers is
	// re-fetched up to alignRetries times, alignWait apart (defaults 50
	// and 5ms), before the read fails. Alignment only races in-flight
	// ticks, so one round is the common case. Only tests shorten them.
	alignRetries int
	alignWait    time.Duration

	// ProbeInterval is the health prober cadence (default 1s). Negative
	// disables background probing (New still probes once).
	ProbeInterval time.Duration
}

func (cfg Config) withDefaults() Config {
	if cfg.K <= 0 {
		cfg.K = 10
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	if cfg.alignRetries <= 0 {
		cfg.alignRetries = 50
	}
	if cfg.alignWait <= 0 {
		cfg.alignWait = 5 * time.Millisecond
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = time.Second
	}
	return cfg
}

// part is one partition's runtime state: its table entry plus the
// prober's latest view.
type part struct {
	id  int
	url string

	reqHist *metrics.Histogram
	upG     *metrics.Gauge
	failC   *metrics.Counter

	mu      sync.Mutex
	checked bool // at least one probe round completed
	healthy bool
	lastErr string
	epoch   int64
	clock   int64
}

// setHealth updates the prober's view of one partition. Transitions —
// and only transitions; probes repeat, state flips do not — are recorded
// as flight-recorder events, carrying the trace ID when the flip was
// detected inside a traced request (a failed scatter leg) rather than by
// the background prober.
func (p *part) setHealth(ctx context.Context, healthy bool, err string, epoch, clock int64) {
	p.mu.Lock()
	wasChecked, wasHealthy := p.checked, p.healthy
	p.checked = true
	p.healthy = healthy
	p.lastErr = err
	if healthy {
		p.epoch, p.clock = epoch, clock
	}
	p.mu.Unlock()
	v := int64(0)
	if healthy {
		v = 1
	} else {
		p.failC.Inc()
	}
	p.upG.Set(v)
	if !wasChecked || wasHealthy != healthy {
		from := "unknown"
		if wasChecked {
			from = healthState(wasHealthy)
		}
		attrs := []flightrec.Attr{
			flightrec.KV("component", "partition"),
			flightrec.KV("partition", p.id),
			flightrec.KV("from", from),
			flightrec.KV("to", healthState(healthy)),
		}
		if err != "" {
			attrs = append(attrs, flightrec.KV("reason", err))
		}
		flightrec.Default.RecordCtx(ctx, flightrec.EvHealthTransition, attrs...)
	}
}

func healthState(healthy bool) string {
	if healthy {
		return "ok"
	}
	return "degraded"
}

// lastError returns the partition's most recent probe error ("" when
// healthy).
func (p *part) lastError() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lastErr
}

// Gateway routes writes to partition owners and merges reads across the
// fleet. Build one with New, mount Handler, and Close it on shutdown.
type Gateway struct {
	cfg   Config
	parts []*part
	start time.Time

	// gen counts writes routed through the gateway; merged read views are
	// cached per generation: the view of every path, and the last region
	// gathered alone.
	gen    atomic.Uint64
	mu     sync.Mutex
	all    *mergedView
	region *mergedView

	closing   chan struct{}
	closeOnce sync.Once
	probeDone chan struct{}

	// slo derives burn-rate gauges from the gateway's request instruments.
	slo *metrics.SLO

	// health turns /healthz verdict flips into flight-recorder events.
	health httpapi.Health
}

// mergedView is the fleet's merged read state at one epoch: every
// partition's answer to one leg query with hotness summed by id.
type mergedView struct {
	gen   uint64
	leg   string // the pushed-down query (see pushdown); "" for every path
	epoch int64
	clock int64
	snap  hotpaths.Snapshot
}

// New validates the table, probes the fleet once, and returns a running
// gateway (background prober included unless ProbeInterval < 0).
func New(cfg Config) (*Gateway, error) {
	if err := cfg.Table.Validate(); err != nil {
		return nil, fmt.Errorf("gateway: %w", err)
	}
	cfg = cfg.withDefaults()
	g := &Gateway{
		cfg:       cfg,
		start:     time.Now(),
		closing:   make(chan struct{}),
		probeDone: make(chan struct{}),
		health:    httpapi.Health{Component: "gateway"},
	}
	for _, pt := range cfg.Table.Partitions {
		label := metrics.Labels{"partition": strconv.Itoa(pt.ID)}
		g.parts = append(g.parts, &part{
			id:  pt.ID,
			url: strings.TrimRight(pt.URL, "/"),
			reqHist: metrics.Default.Histogram("hotpathsgw_partition_request_seconds",
				"Sub-request duration by partition.", metrics.LatencyBuckets, label),
			upG: metrics.Default.Gauge("hotpathsgw_partition_up",
				"1 while the partition's last probe succeeded.", label),
			failC: metrics.Default.Counter("hotpathsgw_partition_probe_failures_total",
				"Probe rounds that found the partition unhealthy.", label),
		})
	}
	mPartitions.Set(int64(len(g.parts)))
	g.slo = metrics.StartSLO(metrics.Default, metrics.SLOOptions{
		RequestsTotal:  requestsFamily,
		LatencySeconds: latencySecondsFamily,
	})
	g.probeAll()
	if cfg.ProbeInterval > 0 {
		go g.probeLoop()
	} else {
		close(g.probeDone)
	}
	return g, nil
}

// Close stops the background prober. In-flight requests finish on their
// own; open /watch fan-ins end.
func (g *Gateway) Close() {
	g.closeOnce.Do(func() { close(g.closing) })
	<-g.probeDone
	g.slo.Stop()
}

// Routes is the gateway's public surface, by ServeMux pattern: the
// hotpathsd read/write endpoints (routed/merged), /stats and /healthz,
// speaking internal/httpapi's wire contract like the daemons behind it.
func (g *Gateway) Routes() map[string]http.HandlerFunc {
	return map[string]http.HandlerFunc{
		"POST /observe":       g.handleObserve,
		"POST /observe_batch": g.handleObserve,
		"POST /tick":          g.handleTick,
		"GET /topk":           g.answerQuery(g.cfg.K, false),
		"GET /paths":          g.answerQuery(0, false),
		"GET /paths.geojson":  g.answerQuery(0, true),
		"GET /watch":          g.handleWatch,
		"GET /stats":          g.handleStats,
		"GET /healthz":        g.handleHealthz,
	}
}

// Handler mounts Routes (and /metrics).
func (g *Gateway) Handler() http.Handler { return httpapi.NewMux(routeMetrics, g.Routes()) }

// ---- partition sub-requests ----------------------------------------------

// call runs one sub-request against a partition with the configured
// deadline, recording its latency; it must answer 200, and its body is
// handed to decode (nil drains it instead, so the connection is reused).
// accept, when set, is the request's Accept header. A non-200 is an
// *upstreamError carrying the status. It returns the response headers.
// When the caller's context carries a sampled trace, the leg gets its own
// child span — covering the body read; its bytes attribute is the body's
// Content-Length (-1 when chunked) — and the trace context is propagated
// to the partition in the traceparent header.
func (g *Gateway) call(ctx context.Context, p *part, method, path, accept string, body *share, decode func(*http.Response) error) (http.Header, error) {
	parent := ctx
	ctx, cancel := context.WithTimeout(ctx, g.cfg.RequestTimeout)
	defer cancel()
	var hdr http.Header
	err := tracing.Do(ctx, "partition.leg", func(ctx context.Context, span *tracing.Span) error {
		span.SetAttr("partition", p.id)
		span.SetAttr("http.method", method)
		span.SetAttr("http.path", path)
		req, err := http.NewRequestWithContext(ctx, method, p.url+path, nil)
		if err != nil {
			return err
		}
		if body != nil {
			// The transport may rewind the body to retry on a fresh
			// connection, and only ever inside Do: the caller's own
			// reference keeps the share out of the pool until then.
			req.Body = body.open()
			req.GetBody = func() (io.ReadCloser, error) { return body.open(), nil }
			req.ContentLength = int64(len(body.buf))
			req.Header.Set("Content-Type", "application/json")
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		tracing.Inject(ctx, req.Header)
		mInflight.Add(1)
		t0 := time.Now()
		resp, err := http.DefaultClient.Do(req)
		p.reqHist.ObserveSince(t0)
		mInflight.Add(-1)
		if err != nil {
			span.Annotate("leg failed: %v", err)
			// A transport failure on a live request is fresher evidence than
			// the last probe: flip the partition to degraded now, in the
			// request's trace context, so the health transition and the 206
			// the caller is about to emit correlate. Skip it when the caller
			// itself went away — a client disconnect says nothing about the
			// partition.
			if parent.Err() == nil {
				p.setHealth(parent, false, err.Error(), 0, 0)
			}
			return err
		}
		defer resp.Body.Close()
		span.SetAttr("http.status", resp.StatusCode)
		span.SetAttr("bytes", resp.ContentLength)
		if resp.StatusCode != http.StatusOK {
			return readError(resp)
		}
		if decode == nil {
			io.Copy(io.Discard, resp.Body) // the 200 already says it all
		} else if err := decode(resp); err != nil {
			return fmt.Errorf("decode %s: %w", path, err)
		}
		hdr = resp.Header
		return nil
	})
	return hdr, err
}

// into decodes a sub-response's JSON body into v.
func into(v any) func(*http.Response) error {
	return func(resp *http.Response) error { return json.NewDecoder(resp.Body).Decode(v) }
}

// partError is a sub-request failure tagged with its partition.
type partError struct {
	id  int
	err error
}

func (e partError) Error() string { return fmt.Sprintf("partition %d: %v", e.id, e.err) }
func (e partError) Unwrap() error { return e.err }

// upstreamError is a non-2xx sub-response. The status travels as a typed
// field so callers classify by code, never by parsing the message (which
// embeds the upstream's error body verbatim).
type upstreamError struct {
	status int
	msg    string
}

func (e *upstreamError) Error() string { return fmt.Sprintf("upstream status %d%s", e.status, e.msg) }

// readError turns a non-2xx sub-response into an *upstreamError carrying
// the status and the upstream's error body, when one decodes.
func readError(resp *http.Response) error {
	defer resp.Body.Close()
	var body struct {
		Error string `json:"error"`
	}
	msg := ""
	if b, err := io.ReadAll(io.LimitReader(resp.Body, 4096)); err == nil {
		if json.Unmarshal(b, &body) == nil && body.Error != "" {
			msg = ": " + body.Error
		}
	}
	return &upstreamError{status: resp.StatusCode, msg: msg}
}

// ---- merged reads --------------------------------------------------------

// pushdown returns the query a read forwards to every partition: the
// client's bbox and nothing else, encoded ("" when the read has none).
// k, min_hotness and sort are applied after the merge (see the package
// doc).
func pushdown(client url.Values) string {
	bbox := client.Get("bbox")
	if bbox == "" {
		return ""
	}
	return url.Values{"bbox": {bbox}}.Encode()
}

// fetchPaths fetches one partition's answer to /paths?leg, as the binary
// body, and the instant it was answered at. The caller closes the body.
func (g *Gateway) fetchPaths(ctx context.Context, p *part, leg string) (body httpapi.PathsBody, at instant, err error) {
	path := "/paths"
	if leg != "" {
		path += "?" + leg
	}
	hdr, err := g.call(ctx, p, http.MethodGet, path, httpapi.PathsType, nil, func(resp *http.Response) (err error) {
		if ct := resp.Header.Get("Content-Type"); ct != httpapi.PathsType {
			return fmt.Errorf("answered %q, not %s: is this a current hotpathsd?", ct, httpapi.PathsType)
		}
		body, err = httpapi.ReadPathsBody(resp.Body, resp.ContentLength)
		return err
	})
	if err == nil {
		at.epoch, err = instantHeader(hdr, hotpaths.EpochHeader)
	}
	if err == nil {
		at.clock, err = instantHeader(hdr, hotpaths.ClockHeader)
	}
	if err != nil {
		body.Close()
		return httpapi.PathsBody{}, instant{}, err
	}
	return body, at, nil
}

// instantHeader reads the epoch or the clock header of a partition's
// answer. A missing one is an error, never a zero: a clock read as 0
// makes a laggard the alignment retries would wait on in vain.
func instantHeader(hdr http.Header, name string) (int64, error) {
	v, err := strconv.ParseInt(hdr.Get(name), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("missing %s header: is this a current hotpathsd?", name)
	}
	return v, nil
}

// instant is where a partition's answer sits in time. Hotness slides
// with every tick, not only at epoch barriers, so two answers at one
// epoch but different clocks are different instants.
type instant struct{ epoch, clock int64 }

func (a instant) before(b instant) bool {
	return a.epoch < b.epoch || a.epoch == b.epoch && a.clock < b.clock
}

// gather fetches every partition's answer to /paths?leg at one agreed
// instant (epoch and clock). Partitions that keep failing are reported in
// missing (with their last error) and excluded from the merge; a
// partition that answers at an older instant than the newest is
// re-fetched until the fleet agrees. The answers stay undecoded, in their
// pooled buffers, until then; one pass then decodes every agreed body
// straight into the merged union.
func (g *Gateway) gather(ctx context.Context, leg string) (merged *mergedView, missing []partError) {
	type result struct {
		body httpapi.PathsBody
		at   instant
		err  error
	}
	results := make([]result, len(g.parts))
	defer func() {
		for _, r := range results {
			r.body.Close()
		}
	}()
	fetch := func(idxs []int) {
		var wg sync.WaitGroup
		for _, i := range idxs {
			results[i].body.Close() // a laggard's stale answer
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				body, at, err := g.fetchPaths(ctx, g.parts[i], leg)
				results[i] = result{body: body, at: at, err: err}
			}(i)
		}
		wg.Wait()
	}
	all := make([]int, len(g.parts))
	for i := range all {
		all[i] = i
	}
	fetch(all)
	newest := func() instant {
		target := instant{}
		for i := range results {
			if results[i].err == nil && target.before(results[i].at) {
				target = results[i].at
			}
		}
		return target
	}

	// Agreement: every successful partition must answer at the newest
	// instant seen. Laggards are re-fetched — a tick is mid-flight on them
	// (tickAll posts to the partitions concurrently) — rather than merged
	// inconsistently.
	for retry := 0; retry < g.cfg.alignRetries; retry++ {
		target := newest()
		var stale []int
		for i := range results {
			if results[i].err == nil && results[i].at.before(target) {
				stale = append(stale, i)
			}
		}
		if len(stale) == 0 {
			break
		}
		tracing.FromContext(ctx).Annotate(
			"alignment retry %d: %d partitions behind epoch %d clock %d", retry+1, len(stale), target.epoch, target.clock)
		select {
		case <-ctx.Done():
			stale = nil
		case <-time.After(g.cfg.alignWait):
		}
		if stale == nil {
			break
		}
		fetch(stale)
	}

	t0 := time.Now()
	// Pick the target instant first — the newest any partition answered
	// at — then merge only the partitions that reached it. A partition
	// still behind after the retries above is failed like an unreachable
	// one (reported in missing, its paths excluded): merging it would
	// interleave two points in time. So is one whose body the merge
	// refuses.
	target := newest()
	var agreed []int
	size := 0
	for i, r := range results {
		var err error
		switch {
		case r.err != nil:
			err = r.err
		case r.at.epoch != target.epoch:
			err = fmt.Errorf("stuck at epoch %d while the fleet reached %d", r.at.epoch, target.epoch)
		case r.at.clock != target.clock:
			err = fmt.Errorf("stuck at clock %d while the fleet reached %d", r.at.clock, target.clock)
		default:
			agreed = append(agreed, i)
			size += r.body.Len()
			continue
		}
		missing = append(missing, partError{id: g.parts[i].id, err: err})
	}
	var snap hotpaths.Snapshot
	tracing.Do(ctx, "gateway.merge", func(_ context.Context, span *tracing.Span) error {
		u := newUnion(size)
		legs, pathsIn := 0, 0
		for _, i := range agreed {
			if err := u.addBody(results[i].body); err != nil {
				missing = append(missing, partError{id: g.parts[i].id, err: fmt.Errorf("merge: %w", err)})
				continue
			}
			legs++
			pathsIn += results[i].body.Len()
		}
		snap = u.snapshot(g.cfg.K)
		span.SetAttr("partitions", legs)
		span.SetAttr("paths_in", pathsIn)
		span.SetAttr("paths_out", snap.Len())
		return nil
	})
	mMergeSeconds.ObserveSince(t0)
	sort.Slice(missing, func(i, j int) bool { return missing[i].id < missing[j].id })
	return &mergedView{leg: leg, epoch: target.epoch, clock: target.clock, snap: snap}, missing
}

// merged returns a merged view that answers reads pushing leg down,
// cached per write generation: the view of every path answers any read,
// a region view only its own leg. Partial views (missing partitions) are
// returned but never cached, so the next read retries the failed
// partitions.
func (g *Gateway) merged(ctx context.Context, leg string) (*mergedView, []partError) {
	gen := g.gen.Load()
	g.mu.Lock()
	all, region := g.all, g.region
	g.mu.Unlock()
	switch {
	case all != nil && all.gen == gen:
		return all, nil
	case region != nil && region.gen == gen && region.leg == leg:
		return region, nil
	}
	mv, missing := g.gather(ctx, leg)
	if len(missing) == 0 {
		mv.gen = gen
		g.mu.Lock()
		if g.gen.Load() == gen {
			if leg == "" {
				g.all = mv
			} else {
				g.region = mv
			}
		}
		g.mu.Unlock()
	}
	return mv, missing
}

// invalidate marks the merged views stale after a routed write.
func (g *Gateway) invalidate() { g.gen.Add(1) }

// writePartial stamps a partial scatter-gather response: 206 with the
// missing partition ids in the X-Hotpaths-Partial header. Each partial
// response is one flight-recorder event carrying the request's trace ID,
// so a fleet timeline can tie the 206 to the partition outage behind it.
func writePartial(ctx context.Context, w http.ResponseWriter, missing []partError) int {
	if len(missing) == 0 {
		return http.StatusOK
	}
	ids := make([]string, len(missing))
	for i, pe := range missing {
		ids[i] = strconv.Itoa(pe.id)
	}
	w.Header().Set(hotpaths.PartialHeader, strings.Join(ids, ","))
	mPartial.Inc()
	flightrec.Default.RecordCtx(ctx, flightrec.EvGatewayPartial,
		flightrec.KV("missing_partitions", strings.Join(ids, ",")),
		flightrec.KV("missing_count", len(missing)),
	)
	return http.StatusPartialContent
}

// answerQuery serves a read endpoint from a merged view: the query's
// selection (capped at defaultK when no k is given; 0 = no cap) as JSON
// or, with geo, as GeoJSON — 206 when partitions are missing, 502 when
// none answered.
func (g *Gateway) answerQuery(defaultK int, geo bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q, err := httpapi.ParseQuery(r, defaultK)
		if err != nil {
			httpapi.Error(w, http.StatusBadRequest, err)
			return
		}
		mv, missing := g.merged(r.Context(), pushdown(r.URL.Query()))
		if len(missing) == len(g.parts) {
			httpapi.Error(w, http.StatusBadGateway, errors.Join(asErrs(missing)...))
			return
		}
		status := writePartial(r.Context(), w, missing)
		httpapi.WritePaths(w, r, status, mv.epoch, mv.clock, mv.snap.Query(q), geo)
	}
}

func asErrs(pes []partError) []error {
	out := make([]error, len(pes))
	for i, pe := range pes {
		out[i] = pe
	}
	return out
}

// ---- write routing -------------------------------------------------------

// postAll posts one body to the given partitions concurrently and
// collects the failures. bodies[i] addresses parts[i]; a nil body skips
// that partition.
func (g *Gateway) postAll(ctx context.Context, path string, bodies []*share) []partError {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []partError
	)
	for i, body := range bodies {
		if body == nil {
			continue
		}
		wg.Add(1)
		go func(p *part, body *share) {
			defer wg.Done()
			if _, err := g.call(ctx, p, http.MethodPost, path, "", body, nil); err != nil {
				mu.Lock()
				errs = append(errs, partError{id: p.id, err: err})
				mu.Unlock()
			}
		}(g.parts[i], body)
	}
	wg.Wait()
	sort.Slice(errs, func(i, j int) bool { return errs[i].id < errs[j].id })
	return errs
}

// tickAll drives the epoch barrier: POST /tick to every partition.
func (g *Gateway) tickAll(ctx context.Context, now int64) []partError {
	b, _ := json.Marshal(httpapi.TickRequest{Now: now})
	body := newShare(len(b))
	defer body.release()
	body.buf = append(body.buf, b...)
	bodies := make([]*share, len(g.parts))
	for i := range bodies {
		bodies[i] = body
	}
	defer g.invalidate()
	return g.postAll(ctx, "/tick", bodies)
}

// writeErrStatus maps sub-request failures to the gateway response: 503
// when any partition failed server-side or was unreachable (retryable),
// else the client's 400 passes through (every failure was the request's
// own fault, rejected upstream with a 4xx).
func writeErrStatus(errs []partError) int {
	status := http.StatusBadRequest
	for _, pe := range errs {
		var ue *upstreamError
		if !errors.As(pe.err, &ue) || ue.status < 400 || ue.status >= 500 {
			status = http.StatusServiceUnavailable
		}
	}
	return status
}

// errPartitions is the per-partition detail of a failed routed write:
// "ok" for the partitions that applied their share, the error for those
// that did not — the operator-facing answer to "which primaries have the
// records?".
func (g *Gateway) errPartitions(errs []partError, touched []*share) map[string]string {
	out := make(map[string]string)
	failed := make(map[int]string, len(errs))
	for _, pe := range errs {
		failed[pe.id] = pe.err.Error()
	}
	for i, p := range g.parts {
		if touched != nil && touched[i] == nil {
			continue // no records routed there; nothing to report
		}
		if msg, ok := failed[p.id]; ok {
			out[strconv.Itoa(p.id)] = msg
		} else {
			out[strconv.Itoa(p.id)] = "ok"
		}
	}
	return out
}

// handleObserve serves POST /observe and /observe_batch: split the batch
// by owner, forward each share exactly once, then (with "tick") drive the
// epoch barrier.
func (g *Gateway) handleObserve(w http.ResponseWriter, r *http.Request) {
	split := newShares(len(g.parts), r.ContentLength)
	defer split.Reset()
	tick, accepted, ok := httpapi.DecodeObserve(w, r, &split, mObserveFallback)
	if !ok {
		return
	}
	bodies := split.close()
	// Invalidate only once the writes have landed (mirroring tickAll):
	// bumping the generation first would let a concurrent read gather the
	// pre-write state and cache it under the post-write generation, which
	// nothing would ever invalidate. Invalidate even on partial failure —
	// the healthy partitions applied their shares.
	errs := g.postAll(r.Context(), "/observe", bodies)
	g.invalidate()
	if len(errs) != 0 {
		// Exactly-once means no blind retry: the failed partitions never
		// saw their share, the others applied theirs. Report both sides.
		httpapi.WriteJSON(w, writeErrStatus(errs), map[string]any{
			"error":      errors.Join(asErrs(errs)...).Error(),
			"partitions": g.errPartitions(errs, bodies),
		})
		return
	}
	resp := map[string]any{"accepted": accepted}
	if tick > 0 {
		if errs := g.tickAll(r.Context(), tick); len(errs) != 0 {
			httpapi.WriteJSON(w, writeErrStatus(errs), map[string]any{
				"error":      errors.Join(asErrs(errs)...).Error(),
				"accepted":   accepted,
				"partitions": g.errPartitions(errs, nil),
			})
			return
		}
		resp["now"] = tick
	}
	httpapi.WriteJSON(w, http.StatusOK, resp)
}

// handleTick serves POST /tick as the fleet-wide epoch barrier.
func (g *Gateway) handleTick(w http.ResponseWriter, r *http.Request) {
	var req httpapi.TickRequest
	if !httpapi.DecodeBody(w, r, &req) {
		return
	}
	if errs := g.tickAll(r.Context(), req.Now); len(errs) != 0 {
		httpapi.WriteJSON(w, writeErrStatus(errs), map[string]any{
			"error":      errors.Join(asErrs(errs)...).Error(),
			"partitions": g.errPartitions(errs, nil),
		})
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{"now": req.Now})
}

// ---- health and stats ----------------------------------------------------

// probeLoop re-probes the fleet every ProbeInterval until Close.
func (g *Gateway) probeLoop() {
	defer close(g.probeDone)
	t := time.NewTicker(g.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-g.closing:
			return
		case <-t.C:
			g.probeAll()
		}
	}
}

// probeAll checks every partition once: /healthz must answer 200 and
// /stats must advertise the partition slot the table assigns it (daemons
// started without -partition-count advertise 0/0 and are trusted).
func (g *Gateway) probeAll() {
	var wg sync.WaitGroup
	for _, p := range g.parts {
		wg.Add(1)
		go func(p *part) {
			defer wg.Done()
			g.probe(p)
		}(p)
	}
	wg.Wait()
}

type statsProbe struct {
	PartitionID    int   `json:"partition_id"`
	PartitionCount int   `json:"partition_count"`
	Epoch          int64 `json:"epoch"`
	Clock          int64 `json:"clock"`
}

func (g *Gateway) probe(p *part) {
	ctx := context.Background()
	var st statsProbe
	_, err := g.call(ctx, p, http.MethodGet, "/healthz", "", nil, nil)
	if err == nil {
		_, err = g.call(ctx, p, http.MethodGet, "/stats", "", nil, into(&st))
	}
	if err != nil {
		p.setHealth(ctx, false, err.Error(), 0, 0)
		return
	}
	if st.PartitionCount != 0 && (st.PartitionCount != len(g.parts) || st.PartitionID != p.id) {
		msg := fmt.Sprintf(
			"topology mismatch: daemon declares partition %d of %d, table assigns %d of %d",
			st.PartitionID, st.PartitionCount, p.id, len(g.parts))
		// A mismatched daemon stays mismatched for as long as it runs:
		// record the event once per distinct message, not once per probe.
		if msg != p.lastError() {
			flightrec.Default.Record(flightrec.EvTopologyMismatch,
				flightrec.KV("partition", p.id),
				flightrec.KV("declared_id", st.PartitionID),
				flightrec.KV("declared_count", st.PartitionCount),
				flightrec.KV("assigned_id", p.id),
				flightrec.KV("assigned_count", len(g.parts)),
			)
		}
		p.setHealth(ctx, false, msg, 0, 0)
		return
	}
	p.setHealth(ctx, true, "", st.Epoch, st.Clock)
}

// partStatus is one partition's row in /stats and /healthz.
type partStatus struct {
	ID      int    `json:"id"`
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	Epoch   int64  `json:"epoch"`
	Clock   int64  `json:"clock"`
	Error   string `json:"error,omitempty"`
}

func (g *Gateway) status() []partStatus {
	out := make([]partStatus, len(g.parts))
	for i, p := range g.parts {
		p.mu.Lock()
		out[i] = partStatus{
			ID: p.id, URL: p.url,
			Healthy: p.checked && p.healthy,
			Epoch:   p.epoch, Clock: p.clock,
			Error: p.lastErr,
		}
		if !p.checked && p.lastErr == "" {
			out[i].Error = "not probed yet"
		}
		p.mu.Unlock()
	}
	return out
}

// handleHealthz reports fleet health: 503 when any partition is down,
// fails its topology check, or lags the fleet's epoch by more than one
// (transient skew of one epoch is an in-flight tick barrier). The body
// carries a stable machine-readable `reason` token so operators can
// distinguish degraded causes without parsing prose; `?verbose=1` adds a
// per-component breakdown (topology, slo).
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	sts := g.status()
	var degraded []string
	var maxEpoch int64
	topologyMismatch, unhealthy, lagging := false, false, false
	for _, st := range sts {
		if st.Healthy && st.Epoch > maxEpoch {
			maxEpoch = st.Epoch
		}
	}
	for _, st := range sts {
		switch {
		case !st.Healthy:
			unhealthy = true
			if strings.Contains(st.Error, "topology mismatch") {
				topologyMismatch = true
			}
			degraded = append(degraded, fmt.Sprintf("partition %d: %s", st.ID, st.Error))
		case maxEpoch-st.Epoch > 1:
			lagging = true
			degraded = append(degraded, fmt.Sprintf(
				"partition %d lagging: epoch %d while the fleet reached %d", st.ID, st.Epoch, maxEpoch))
		}
	}
	// Stable reason tokens, most specific first: a mismatched partition
	// is also unhealthy, but the mismatch is the actionable cause.
	reason := ""
	switch {
	case topologyMismatch:
		reason = "topology_mismatch"
	case unhealthy:
		reason = "partition_unhealthy"
	case lagging:
		reason = "partition_lagging"
	}
	body := map[string]any{"partitions": sts}
	g.health.Answer(w, r, body, reason, strings.Join(degraded, "; "), func() map[string]any {
		topoStatus := "ok"
		if reason != "" {
			topoStatus = "degraded"
		}
		return map[string]any{
			"topology": map[string]any{
				"status":     topoStatus,
				"partitions": len(sts),
				"max_epoch":  maxEpoch,
			},
			"slo": httpapi.SLOComponent(g.slo),
		}
	})
}

// handleStats aggregates the fleet's counters: sums for the additive
// counters, the shared epoch/clock, and the per-partition status rows.
func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	type counters struct {
		Observations int   `json:"observations"`
		Reports      int   `json:"reports"`
		Responses    int   `json:"responses"`
		PathsCreated int   `json:"paths_created"`
		PathsExpired int   `json:"paths_expired"`
		Crossings    int   `json:"crossings"`
		Case1        int   `json:"case1"`
		Case2        int   `json:"case2"`
		Case3        int   `json:"case3"`
		IndexSize    int   `json:"index_size"`
		Epoch        int   `json:"epoch"`
		Clock        int64 `json:"clock"`
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		sum  counters
		errs []partError
	)
	for _, p := range g.parts {
		wg.Add(1)
		go func(p *part) {
			defer wg.Done()
			var c counters
			_, err := g.call(r.Context(), p, http.MethodGet, "/stats", "", nil, into(&c))
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, partError{id: p.id, err: err})
				return
			}
			sum.Observations += c.Observations
			sum.Reports += c.Reports
			sum.Responses += c.Responses
			sum.PathsCreated += c.PathsCreated
			sum.PathsExpired += c.PathsExpired
			sum.Crossings += c.Crossings
			sum.Case1 += c.Case1
			sum.Case2 += c.Case2
			sum.Case3 += c.Case3
			sum.IndexSize += c.IndexSize
			if c.Epoch > sum.Epoch {
				sum.Epoch = c.Epoch
			}
			if c.Clock > sum.Clock {
				sum.Clock = c.Clock
			}
		}(p)
	}
	wg.Wait()
	sort.Slice(errs, func(i, j int) bool { return errs[i].id < errs[j].id })
	if len(errs) == len(g.parts) {
		// No partition answered: all-zero sums would be a lie. Fail hard,
		// matching the merged read endpoints.
		httpapi.Error(w, http.StatusBadGateway, errors.Join(asErrs(errs)...))
		return
	}
	resp := map[string]any{
		"gateway":         true,
		"partition_count": len(g.parts),
		"table_version":   g.cfg.Table.Version,
		"uptime_seconds":  int(time.Since(g.start).Seconds()),
		// Sums over the fleet. index_size double-counts a corridor that
		// straddles partitions (each owner stores it); the merged read
		// path dedupes by id, this probe does not fan in path sets.
		"observations":  sum.Observations,
		"reports":       sum.Reports,
		"responses":     sum.Responses,
		"paths_created": sum.PathsCreated,
		"paths_expired": sum.PathsExpired,
		"crossings":     sum.Crossings,
		"case1":         sum.Case1,
		"case2":         sum.Case2,
		"case3":         sum.Case3,
		"index_size":    sum.IndexSize,
		"epoch":         sum.Epoch,
		"clock":         sum.Clock,
		"partitions":    g.status(),
	}
	status := http.StatusOK
	if len(errs) > 0 {
		resp["error"] = errors.Join(asErrs(errs)...).Error()
		status = writePartial(r.Context(), w, errs)
	}
	httpapi.WriteJSON(w, status, resp)
}
