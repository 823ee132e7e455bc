package main

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"hotpaths"
	"hotpaths/internal/httpapi"
	"hotpaths/internal/metrics"
	"hotpaths/internal/partition"
)

// backend is the read surface the server queries: the bare concurrent
// Engine, the Durable wrapper when -wal is set, or the Follower with
// -follow. All are safe for concurrent use.
type backend interface {
	hotpaths.Reader
	Shards() int
}

// errReadOnly is the error in a follower's 403 body.
var errReadOnly = errors.New("hotpaths: follower is read-only; writes must go to the primary")

// serverOpts are the deployment-mode extras around the core backend:
// exactly one of dur/fol may be set (a daemon is a primary, a follower,
// or a bare in-memory engine).
type serverOpts struct {
	dur    *hotpaths.Durable // -wal: durability + the primary-side replication feed
	fol    *hotpaths.Follower
	maxLag uint64 // -max-lag: /healthz degrades past this record lag (0 = never)

	// partitionID/partitionCount declare this daemon's slot in a
	// partitioned fleet (-partition-id/-partition-count). Zero count means
	// unpartitioned; with a positive count the daemon advertises its slot
	// in /stats and rejects observations whose object id hashes to a
	// different partition — a loud failure beats silently forked state.
	partitionID    int
	partitionCount int
}

// server wires the backend to the HTTP surface. Ingestion state lives in
// the backend, and so does the read view: between two ticks every read
// shares the backend's one snapshot. The server only adds its start time.
type server struct {
	src     backend
	w       hotpaths.Writer   // src's write path; nil on a Follower, read-only by type
	dur     *hotpaths.Durable // non-nil (and == src) when -wal is set
	fol     *hotpaths.Follower
	repl    http.Handler // the WAL feed, mounted when dur != nil
	maxLag  uint64
	partID  int
	partN   int // 0 when unpartitioned
	started time.Time

	// closing is closed when the HTTP server begins shutting down, so
	// /watch streams end instead of pinning Shutdown until its timeout
	// (the backend, whose Close would end them, is only drained after
	// Shutdown returns).
	closing  chan struct{}
	stopOnce sync.Once

	// slo derives burn-rate gauges from the daemon's request instruments.
	slo *metrics.SLO

	// health turns /healthz verdict flips into flight-recorder events.
	health httpapi.Health
}

func newServer(src backend, opts serverOpts) *server {
	w, _ := src.(hotpaths.Writer)
	s := &server{
		src:     src,
		w:       w,
		dur:     opts.dur,
		fol:     opts.fol,
		maxLag:  opts.maxLag,
		partID:  opts.partitionID,
		partN:   opts.partitionCount,
		started: time.Now(),
		closing: make(chan struct{}),
		health:  httpapi.Health{Component: "daemon"},
	}
	if opts.dur != nil {
		// The library feed, wired to the shutdown channel so open streams
		// end when the HTTP server drains instead of pinning Shutdown.
		s.repl = hotpaths.NewReplicationFeed(opts.dur, s.closing)
	}
	s.slo = metrics.StartSLO(metrics.Default, metrics.SLOOptions{
		RequestsTotal:  requestsFamily,
		LatencySeconds: latencySecondsFamily,
	})
	return s
}

// stopWatches ends every open /watch stream; registered with the HTTP
// server's shutdown hook. It also stops the SLO sampler — shutdown is
// the last burn-rate reading anyone will scrape.
func (s *server) stopWatches() {
	s.stopOnce.Do(func() {
		close(s.closing)
		s.slo.Stop()
	})
}

// The daemon's request families, named once: routeMetrics registers
// them and the SLO reads them, which skips a family it cannot find.
const (
	requestsFamily       = "hotpaths_http_requests_total"
	latencySecondsFamily = "hotpaths_http_request_seconds"
)

// routeMetrics registers one route's request instruments.
func routeMetrics(route string) httpapi.RouteMetrics {
	m := httpapi.RouteMetrics{Seconds: metrics.Default.Histogram(latencySecondsFamily,
		"HTTP request duration by route.",
		metrics.LatencyBuckets, metrics.Labels{"route": route})}
	for i, class := range httpapi.StatusClasses {
		m.Requests[i] = metrics.Default.Counter(requestsFamily,
			"HTTP requests by route and status class.",
			metrics.Labels{"route": route, "code": class})
	}
	return m
}

// routes is the daemon's public surface, by ServeMux pattern; the wire
// contract behind it (and GET /metrics) is internal/httpapi's.
func (s *server) routes() map[string]http.HandlerFunc {
	routes := map[string]http.HandlerFunc{
		"POST /observe": s.handleObserve,
		// The gateway's name for the same write, so a client written
		// against a fleet keeps working when pointed at a single node.
		"POST /observe_batch":    s.handleObserve,
		"POST /tick":             s.handleTick,
		"GET /topk":              s.answerQuery(true, false),
		"GET /paths":             s.answerQuery(false, false),
		"GET /paths.geojson":     s.answerQuery(false, true),
		"GET /stats":             s.handleStats,
		"GET /watch":             s.handleWatch,
		"POST /admin/checkpoint": s.handleCheckpoint,
		"GET /healthz":           s.handleHealthz,
	}
	if s.repl != nil {
		// The primary-side replication feed: followers bootstrap from the
		// checkpoint and tail the WAL as a long-lived frame stream.
		routes["/wal/"] = s.repl.ServeHTTP
	}
	if s.fol != nil {
		routes["POST /admin/reconnect"] = s.handleReconnect
	}
	return routes
}

func (s *server) handler() http.Handler { return httpapi.NewMux(routeMetrics, s.routes()) }

// rejectReadOnly answers writes on a follower: 403 rather than 400/405,
// because the request is well-formed and allowed — just not here. The
// body names the primary so a misconfigured client can be redirected by
// its operator.
func (s *server) rejectReadOnly(w http.ResponseWriter) bool {
	if s.w != nil {
		return false
	}
	httpapi.WriteJSON(w, http.StatusForbidden, map[string]any{
		"error":   errReadOnly.Error(),
		"primary": s.fol.Primary(),
	})
	return true
}

func (s *server) handleObserve(w http.ResponseWriter, r *http.Request) {
	if s.rejectReadOnly(w) {
		return
	}
	b := batches.Get().(*observeBatch)
	defer batches.Put(b)
	tick, _, ok := httpapi.DecodeObserve(w, r, b, mObserveFallback)
	if !ok {
		return
	}
	batch := b.obs
	if s.partN > 0 {
		for _, o := range batch {
			if owner := partition.Index(o.ObjectID, s.partN); owner != s.partID {
				httpapi.Error(w, http.StatusBadRequest, fmt.Errorf(
					"object %d belongs to partition %d of %d, not this daemon (partition %d); check the router's table",
					o.ObjectID, owner, s.partN, s.partID))
				return
			}
		}
	}
	if err := s.w.ObserveBatchCtx(r.Context(), batch); err != nil {
		httpapi.Error(w, s.writeErrStatus(), err)
		return
	}
	resp := map[string]any{"accepted": len(batch)}
	if tick > 0 {
		if err := s.w.TickCtx(r.Context(), tick); err != nil {
			// The batch was already ingested; report that alongside the
			// tick failure so clients don't re-send the observations.
			httpapi.WriteJSON(w, s.writeErrStatus(), map[string]any{
				"error":    err.Error(),
				"accepted": len(batch),
			})
			return
		}
		resp["now"] = tick
	}
	httpapi.WriteJSON(w, http.StatusOK, resp)
}

// observeBatch is the daemon's httpapi.ObserveSink: one request's
// observations in the form the backend ingests. Before ObserveBatchCtx
// returns, the backend has copied each observation once, into a shard
// group the engine recycles at its next flush barrier, and a Durable has
// encoded its WAL frames from the batch in place; neither keeps a
// reference. So a batch goes back to the pool with its request
// (TestWritersCopyBeforeReturning holds the backends to this).
type observeBatch struct {
	obs []hotpaths.Observation
}

func (b *observeBatch) Reset() { b.obs = b.obs[:0] }

func (b *observeBatch) Add(o hotpaths.ObservationJSON, _ []byte) {
	b.obs = append(b.obs, o.Observation())
}

var batches = sync.Pool{New: func() any { return new(observeBatch) }}

// mObserveFallback counts the /observe bodies encoding/json had to decode
// because they were not in the canonical form (see httpapi.DecodeObserve).
var mObserveFallback = metrics.Default.Counter("hotpaths_http_observe_fallback_total",
	"POST /observe bodies outside the canonical form, decoded by encoding/json.", nil)

// writeErrStatus picks the status for a failed write: 400 for what must
// be the client's bad input, 503 once the WAL is poisoned — then every
// write fails server-side no matter what the client sent, and a 4xx
// would make well-behaved clients drop their batches instead of failing
// over (retry policies do not retry client errors).
func (s *server) writeErrStatus() int {
	if s.dur != nil && s.dur.Err() != nil {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

func (s *server) handleTick(w http.ResponseWriter, r *http.Request) {
	if s.rejectReadOnly(w) {
		return
	}
	var req httpapi.TickRequest
	if !httpapi.DecodeBody(w, r, &req) {
		return
	}
	if err := s.w.TickCtx(r.Context(), req.Now); err != nil {
		httpapi.Error(w, s.writeErrStatus(), err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{"now": req.Now})
}

// answerQuery serves a read endpoint from the backend's snapshot: the
// k/min_hotness/bbox/sort selection — capped at the engine's Config.K
// when topK and no k is given — as JSON or, with geo, as a GeoJSON
// FeatureCollection. A gateway's leg, which asks for the binary body, is
// answered the selection as a set (Snapshot.Matches): the gateway sums
// and re-orders it, so the daemon orders nothing for it.
func (s *server) answerQuery(topK, geo bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defaultK := 0
		if topK {
			defaultK = s.src.Config().K
		}
		q, err := httpapi.ParseQuery(r, defaultK)
		if err != nil {
			httpapi.Error(w, http.StatusBadRequest, err)
			return
		}
		snap := s.src.Snapshot()
		answer := snap.Query
		if !geo && httpapi.WantsPaths(r) {
			answer = snap.Matches
		}
		httpapi.WritePaths(w, r, http.StatusOK, snap.Epoch(), snap.Clock(), answer(q), geo)
	}
}

// handleWatch serves GET /watch: a Server-Sent Events stream carrying one
// JSON delta per epoch boundary for a standing query built from the same
// k/min_hotness/bbox/sort parameters as /topk (k defaults to -k). The
// first event is a reset carrying the query's current result; the stream
// ends when the client disconnects or the daemon shuts down. A client
// that reads too slowly never blocks ingestion — it is re-baselined by a
// reset event whose missed field counts the dropped epochs (see the
// README's watching section).
func (s *server) handleWatch(w http.ResponseWriter, r *http.Request) {
	q, err := httpapi.ParseQuery(r, s.src.Config().K)
	if err != nil {
		httpapi.Error(w, http.StatusBadRequest, err)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpapi.Error(w, http.StatusInternalServerError, errors.New("streaming unsupported by connection"))
		return
	}
	sub, err := s.src.Subscribe(q)
	if err != nil {
		httpapi.Error(w, http.StatusServiceUnavailable, err)
		return
	}
	defer sub.Close()
	httpapi.StartSSE(w, fl)
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.closing:
			return
		case d, open := <-sub.Deltas():
			if !open {
				return // backend closed: daemon shutting down
			}
			if err := httpapi.WriteDelta(w, d); err != nil {
				return // client went away mid-event
			}
			fl.Flush()
		}
	}
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.src.Stats()
	// Counters only: the epoch/clock/path-count trio comes from the
	// backend's incrementally-tracked accessors (Stats and Clock), never
	// from Snapshot — a monitoring scrape must not copy the path table.
	resp := map[string]any{
		"observations":   st.Observations,
		"reports":        st.Reports,
		"responses":      st.Responses,
		"paths_created":  st.PathsCreated,
		"paths_expired":  st.PathsExpired,
		"crossings":      st.Crossings,
		"case1":          st.Case1,
		"case2":          st.Case2,
		"case3":          st.Case3,
		"index_size":     st.IndexSize,
		"epoch":          st.Epochs,
		"clock":          s.src.Clock(),
		"snapshot_paths": st.IndexSize,
		"shards":         s.src.Shards(),
		"uptime_seconds": int(time.Since(s.started).Seconds()),
		"wal_enabled":    s.dur != nil,
		"replica":        s.fol != nil,
		// Zero partition_count means unpartitioned (the default); the
		// gateway's prober cross-checks both fields against its table.
		"partition_id":    s.partID,
		"partition_count": s.partN,
	}
	if s.fol != nil {
		rs := s.fol.Replication()
		resp["replication_primary"] = rs.Primary
		resp["replication_connected"] = rs.Connected
		resp["replication_applied_lsn"] = rs.AppliedLSN
		resp["replication_applied_epoch"] = rs.AppliedEpoch
		resp["replication_applied_clock"] = rs.AppliedClock
		resp["replication_primary_lsn"] = rs.PrimaryLSN
		resp["replication_primary_epoch"] = rs.PrimaryEpoch
		resp["replication_lag_records"] = rs.LagRecords
		resp["replication_lag_epochs"] = rs.LagEpochs
		resp["replication_reconnects"] = rs.Reconnects
		resp["replication_bootstraps"] = rs.Bootstraps
		resp["replication_last_error"] = rs.LastError
	}
	if s.dur != nil {
		ws := s.dur.WAL()
		resp["wal_records"] = ws.NextLSN
		resp["wal_segments"] = ws.Segments
		resp["wal_bytes"] = ws.Bytes
		resp["wal_syncs"] = ws.Syncs
		resp["wal_checkpoints"] = ws.Checkpoints
		resp["wal_checkpoint_lsn"] = ws.LastCheckpointLSN
		resp["wal_replayed"] = ws.Replayed
		// Empty while healthy; the poisoning error once journal I/O has
		// failed (every write then 503s until the daemon restarts).
		walErr := ""
		if err := s.dur.Err(); err != nil {
			walErr = err.Error()
		}
		resp["wal_error"] = walErr
	}
	httpapi.WriteJSON(w, http.StatusOK, resp)
}

// handleCheckpoint serves POST /admin/checkpoint: force a full-state
// checkpoint and truncate WAL segments it covers. 409 when the daemon
// runs without -wal.
func (s *server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if s.rejectReadOnly(w) {
		return
	}
	if s.dur == nil {
		httpapi.Error(w, http.StatusConflict, errors.New("durability is disabled; start the daemon with -wal"))
		return
	}
	lsn, err := s.dur.Checkpoint()
	if err != nil {
		httpapi.Error(w, http.StatusInternalServerError, err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{"lsn": lsn})
}

// handleHealthz reports liveness — and, with -wal, writability: once the
// journal is poisoned by an I/O failure every write is failing, so
// answering 200 would keep load balancers routing ingest at a daemon
// that can only refuse it. In -follow mode it reports replication health
// instead: a follower that lost its primary, or whose record lag exceeds
// -max-lag, serves stale answers and must be rotated out of read pools.
//
// The body carries a stable machine-readable `reason` token
// (wal_poisoned, replication_disconnected, replication_lag) so operators
// and automation can branch on the cause without parsing prose, and
// `?verbose=1` adds a per-component breakdown (wal, replication,
// topology, slo). Every ok<->degraded flip is recorded in the flight
// recorder as a health_transition event.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	reason, errMsg := "", ""
	body := map[string]any{}
	if s.dur != nil {
		if err := s.dur.Err(); err != nil {
			reason, errMsg = "wal_poisoned", err.Error()
		}
	}
	var rs hotpaths.ReplicationStats
	if s.fol != nil {
		rs = s.fol.Replication()
		body["replication_lag_records"] = rs.LagRecords
		body["replication_lag_epochs"] = rs.LagEpochs
		if reason == "" {
			switch {
			case !rs.Connected:
				reason = "replication_disconnected"
				errMsg = "replication stream disconnected"
				if rs.LastError != "" {
					errMsg += ": " + rs.LastError
				}
			case s.maxLag > 0 && rs.LagRecords > s.maxLag:
				reason = "replication_lag"
				errMsg = fmt.Sprintf("replication lag %d records exceeds the %d threshold", rs.LagRecords, s.maxLag)
			}
		}
	}
	s.health.Answer(w, r, body, reason, errMsg, func() map[string]any {
		return s.healthComponents(rs, reason)
	})
}

// healthComponents is the ?verbose=1 breakdown: one entry per subsystem
// with its own ok/degraded verdict, so an operator sees which layer —
// journal, stream, slot assignment, or error budget — is the problem.
func (s *server) healthComponents(rs hotpaths.ReplicationStats, reason string) map[string]any {
	comps := map[string]any{}
	wal := map[string]any{"status": "disabled"}
	if s.dur != nil {
		wal["status"] = "ok"
		if reason == "wal_poisoned" {
			wal["status"] = "degraded"
			wal["error"] = s.dur.Err().Error()
		}
	}
	comps["wal"] = wal
	repl := map[string]any{"status": "disabled"}
	if s.fol != nil {
		repl = map[string]any{
			"status":      "ok",
			"primary":     rs.Primary,
			"connected":   rs.Connected,
			"lag_records": rs.LagRecords,
			"lag_epochs":  rs.LagEpochs,
		}
		if reason == "replication_disconnected" || reason == "replication_lag" {
			repl["status"] = "degraded"
		}
	}
	comps["replication"] = repl
	topo := map[string]any{"status": "ok", "partitioned": s.partN > 0}
	if s.partN > 0 {
		topo["partition_id"] = s.partID
		topo["partition_count"] = s.partN
	}
	comps["topology"] = topo
	comps["slo"] = httpapi.SLOComponent(s.slo)
	return comps
}

// handleReconnect serves POST /admin/reconnect on followers: drop the
// replication stream and resume from the applied LSN — the operational
// lever after a primary failover behind a stable URL, and what the e2e
// test uses to force a mid-run reconnect.
func (s *server) handleReconnect(w http.ResponseWriter, r *http.Request) {
	s.fol.Reconnect()
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{"reconnecting": true})
}
