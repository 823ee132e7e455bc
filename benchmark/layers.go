package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"

	"hotpaths"
	"hotpaths/internal/partition"
)

// The per-layer metrics come from three places, all outside the SUT's
// source: S1, timed calls into the library's public functions in this
// process, replaying the same stream under the workload's Config; S2,
// /metrics and /stats of the real processes, scraped around the measured
// phase; S3, /proc. README.md lists which end-to-end metric each one
// should move.

// ---- S2: /metrics and /stats ----------------------------------------------

// parseProm reads Prometheus text exposition into sample → value, the
// sample being the metric name with its label set as printed, e.g.
// `hotpaths_http_request_seconds_sum{route="/observe"}`.
func parseProm(text string) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// scrape is one reading of every process's counters: samples summed over
// the daemons (their /metrics and the numeric fields of their /stats,
// the latter prefixed "stats:"), and the gateway's /metrics.
type scrape struct {
	daemons, gateway map[string]float64
}

// httpGet fetches a URL outside the client's request accounting.
func httpGet(hc *http.Client, url string) ([]byte, error) {
	return roundTrip(hc, http.MethodGet, url, nil)
}

func scrapeAll(hc *http.Client, d *deployment) (scrape, error) {
	s := scrape{daemons: map[string]float64{}, gateway: map[string]float64{}}
	for _, p := range d.daemons {
		text, err := httpGet(hc, p.url+"/metrics")
		if err != nil {
			return s, err
		}
		for k, v := range parseProm(string(text)) {
			s.daemons[k] += v
		}
		body, err := httpGet(hc, p.url+"/stats")
		if err != nil {
			return s, err
		}
		var fields map[string]any
		if err := json.Unmarshal(body, &fields); err != nil {
			return s, fmt.Errorf("decode %s/stats: %w", p.url, err)
		}
		for k, v := range fields {
			if f, ok := v.(float64); ok {
				s.daemons["stats:"+k] += f
			}
		}
	}
	if d.gateway != nil {
		text, err := httpGet(hc, d.gateway.url+"/metrics")
		if err != nil {
			return s, err
		}
		s.gateway = parseProm(string(text))
	}
	return s, nil
}

// since returns after − before, sample by sample. A family a later commit
// renames is simply absent, and every metric built on it reads 0.
func since(after, before map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// sumPrefix adds up every sample whose name starts with prefix: a
// histogram's _sum or _count across all its label sets.
func sumPrefix(m map[string]float64, prefix string) float64 {
	var total float64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			total += v
		}
	}
	return total
}

// ---- S1: the library, in process -------------------------------------------

const (
	// replaySample is how many timestamps past the warm-up the Engine and
	// Durable replays time (fewer on a stream too short for that); the
	// oracle's System replay times all of them.
	replaySample = 300
	// allocSample timestamps after that are run under a malloc count.
	allocSample = 20
)

// mallocsDuring counts the heap allocations f makes, shard goroutines
// included; nothing else runs in this process meanwhile.
func mallocsDuring(f func() error) (float64, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err := f()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs - m0.Mallocs), err
}

// sampleEnd is the index one past the last timestamp the replays time.
func sampleEnd(w workload, st *stream) int {
	return w.warmup + min(replaySample, len(st.bodies)-w.warmup-allocSample)
}

func countObs(batches [][]hotpaths.Observation) (n int) {
	for _, b := range batches {
		n += len(b)
	}
	return n
}

// decodeBody does what hotpathsd's /observe handler does before it
// touches the engine.
func decodeBody(body []byte) ([]hotpaths.Observation, error) {
	var req observeRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return nil, err
	}
	batch := make([]hotpaths.Observation, len(req.Observations))
	for i, o := range req.Observations {
		batch[i] = o.Observation()
	}
	return batch, nil
}

// source is what the replays need of hotpaths.Engine and hotpaths.Durable.
type source interface {
	ObserveBatchCtx(ctx context.Context, batch []hotpaths.Observation) error
	TickCtx(ctx context.Context, now int64) error
}

// feedSource replays timestamps from+1..to into src; with a recorder,
// as <layer>.observe_batch and <layer>.tick / <layer>.epoch spans under
// a "batch" root, the body decoded first when decode is set.
func feedSource(src source, st *stream, from, to int, rec *recorder, layer string, decode bool) error {
	ctx := context.Background()
	for i := from; i < to; i++ {
		t := i + 1
		batch := st.batches[i]
		root := rec.start("batch", 0, t)
		if decode {
			sp := rec.start("wire.decode", root, t)
			var err error
			if batch, err = decodeBody(st.bodies[i]); err != nil {
				return err
			}
			rec.end(sp)
		}
		sp := rec.start(layer+".observe_batch", root, t)
		if err := src.ObserveBatchCtx(ctx, batch); err != nil {
			return err
		}
		rec.end(sp)
		name := layer + ".tick"
		if t%epochLen == 0 {
			name = layer + ".epoch"
		}
		sp = rec.start(name, root, t)
		if err := src.TickCtx(ctx, int64(t)); err != nil {
			return err
		}
		rec.end(sp)
		rec.end(root)
	}
	return nil
}

// engineReplay is what replayEngine measured beyond its spans.
type engineReplay struct {
	obs          int     // observations in the timed stretch
	allocsPerObs float64 // ObserveBatch + Tick, over allocSample timestamps
	indexSize    int     // paths in the index at the end: what a snapshot copies
}

// replayEngine drives a hotpaths.Engine the way the daemon does —
// decode, ObserveBatch, Tick, and after every epoch one read (snapshot
// copy, query, encode), alternating top-k and region.
func replayEngine(w workload, st *stream, box hotpaths.Rect, rec *recorder) (engineReplay, error) {
	var r engineReplay
	eng, err := hotpaths.NewEngine(hotpaths.EngineConfig{Config: w.config(st.bounds)})
	if err != nil {
		return r, err
	}
	defer eng.Close()
	if err := feedSource(eng, st, 0, w.warmup, nil, "engine", false); err != nil {
		return r, err
	}
	to := sampleEnd(w, st)
	nread := 0
	for i := w.warmup; i < to; i++ {
		if err := feedSource(eng, st, i, i+1, rec, "engine", true); err != nil {
			return r, err
		}
		if (i+1)%epochLen != 0 {
			continue
		}
		kind, q := "read.topk", hotpaths.Query{}.K(topK)
		if nread%2 == 1 {
			kind, q = "read.bbox", hotpaths.Query{}.Region(box)
		}
		root := rec.start(kind, 0, nread)
		sp := rec.start("snapshot.copy", root, nread)
		snap := eng.Snapshot()
		rec.end(sp)
		sp = rec.start("snapshot.query", root, nread)
		paths := snap.Query(q)
		rec.end(sp)
		sp = rec.start("wire.encode", root, nread)
		encodePaths(paths)
		rec.end(sp)
		// The same query again, now that the snapshot's grid exists.
		sp = rec.start("snapshot.query_warm", root, nread)
		snap.Query(q)
		rec.end(sp)
		rec.end(root)
		nread++
	}
	r.obs = countObs(st.batches[w.warmup:to])
	allocs, err := mallocsDuring(func() error {
		return feedSource(eng, st, to, to+allocSample, nil, "engine", false)
	})
	if err != nil {
		return r, err
	}
	r.allocsPerObs = allocs / float64(countObs(st.batches[to:to+allocSample]))
	r.indexSize = eng.Stats().IndexSize
	return r, nil
}

// replayDurable drives a hotpaths.Durable over the same stretch, with
// the daemon's group-commit interval and no checkpoints (the real
// process's checkpoints are measured from its /metrics), and returns the
// WAL bytes it wrote per observation.
func replayDurable(w workload, st *stream, rec *recorder) (bytesPerObs float64, err error) {
	dir, err := os.MkdirTemp(outDir, "replay.wal")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	dur, err := hotpaths.OpenDurable(dir, hotpaths.DurableConfig{
		Config: w.config(st.bounds), Concurrent: true, CheckpointEvery: -1,
	})
	if err != nil {
		return 0, err
	}
	defer dur.Close()
	if err := feedSource(dur, st, 0, w.warmup, nil, "durable", false); err != nil {
		return 0, err
	}
	to := sampleEnd(w, st)
	b0 := dur.WAL().Bytes
	if err := feedSource(dur, st, w.warmup, to, rec, "durable", false); err != nil {
		return 0, err
	}
	return float64(dur.WAL().Bytes-b0) / float64(countObs(st.batches[w.warmup:to])), nil
}

// replaySplit groups batches by owning partition the way the gateway's
// router does, and returns the largest partition's share of the
// observations over the mean share.
func replaySplit(w workload, st *stream, rec *recorder) float64 {
	n := max(w.partitions, 2)
	counts := make([]int, n)
	for i := w.warmup; i < sampleEnd(w, st); i++ {
		sp := rec.start("partition.split", 0, i+1)
		shares := make([][]hotpaths.Observation, n)
		for _, o := range st.batches[i] {
			p := partition.Index(o.ObjectID, n)
			shares[p] = append(shares[p], o)
		}
		rec.end(sp)
		for p, s := range shares {
			counts[p] += len(s)
		}
	}
	total, largest := 0, 0
	for _, c := range counts {
		total += c
		largest = max(largest, c)
	}
	return ratio(float64(largest), float64(total)/float64(n))
}

// ---- the per-layer metric set ----------------------------------------------

func sum(v []float64) (total float64) {
	for _, x := range v {
		total += x
	}
	return total
}

// perLayer are the metrics of single layers, named <module>.<metric>.
// Every workload reports every one; a layer that does no work on a
// workload (the WAL on ingest_mem, the gateway on a single daemon) reads 0.
func (x *measurement) perLayer() map[string]metric {
	rec, w, st := x.rec, x.w, x.st
	dm, gm := x.daemons, x.gw
	obs := float64(x.m.obs)
	timestamps := float64(x.m.next - w.warmup)
	bodyBytes := make([]float64, 0, len(st.bodies))
	batchObs := make([]float64, 0, len(st.bodies))
	for i, b := range st.bodies {
		bodyBytes = append(bodyBytes, float64(len(b)))
		batchObs = append(batchObs, float64(len(st.batches[i])))
	}
	// us and ns turn a total in ms into a mean per n.
	us := func(totalMS, n float64) float64 { return ratio(totalMS*1e3, n) }
	ns := func(totalMS, n float64) float64 { return ratio(totalMS*1e6, n) }
	histMeanMS := func(m map[string]float64, family, labels string) float64 {
		return 1e3 * ratio(m[family+"_sum"+labels], m[family+"_count"+labels])
	}

	// S1: the serial System (the oracle's replay of everything fed).
	oracleObs := float64(countObs(st.batches[w.warmup:x.m.next]))
	sysObserve := sum(rec.durations("", "raytrace.observe"))
	sysTick := sum(rec.durations("", "coordinator.tick")) + sum(rec.durations("", "coordinator.epoch"))
	// S1: Engine and Durable over the same replaySample timestamps.
	sampleObs := float64(x.engine.obs)
	engObserve := sum(rec.durations("batch", "engine.observe_batch"))
	engTick := sum(rec.durations("batch", "engine.tick")) + sum(rec.durations("batch", "engine.epoch"))
	durObserve := sum(rec.durations("batch", "durable.observe_batch"))
	durTick := sum(rec.durations("batch", "durable.tick")) + sum(rec.durations("batch", "durable.epoch"))

	// S2: the real processes.
	const httpHist = "hotpaths_http_request_seconds"
	observes := dm[httpHist+`_count{route="/observe"}`]
	handlerS := dm[httpHist+`_sum{route="/observe"}`] + dm[httpHist+`_sum{route="/tick"}`]
	engineS := dm["hotpaths_engine_observe_batch_seconds_sum"] + dm["hotpaths_engine_tick_seconds_sum"]
	durableS := dm["hotpaths_wal_append_seconds_sum"] + dm["hotpaths_checkpoint_seconds_sum"]
	clientMeanMS := (sum(x.m.observe) + sum(x.m.epoch)) / timestamps
	frontHandlerMS := histMeanMS(dm, httpHist, `{route="/observe"}`)
	if w.partitions > 0 {
		frontHandlerMS = histMeanMS(gm, "hotpathsgw_http_request_seconds", `{route="/observe"}`)
	}
	legs := sumPrefix(gm, "hotpathsgw_partition_request_seconds_count")

	spans := float64(len(rec.durations("", "http.observe")) + len(rec.durations("", "http.topk")) + len(rec.durations("", "http.bbox")))
	return map[string]metric{
		"loadgen.generate_s":          {st.generated.Seconds(), "s"},
		"loadgen.client_busy_frac":    {float64(x.selfCPU) / float64(x.m.wall), "ratio"},
		"loadgen.obs_per_batch_p50":   {median(batchObs), "count"},
		"loadgen.body_bytes_p50":      {median(bodyBytes), "bytes"},
		"loadgen.canary_drift_frac":   {x.canaryDrift, "ratio"},
		"loadgen.trace_overhead_frac": {spans * float64(perSpanCost()) / float64(x.m.wall), "ratio"},
		"loadgen.traced_obs_per_s":    {obs / x.m.wall.Seconds(), "1/s"},
		"loadgen.observe_p99_ms":      {percentile(x.m.observe, 99), "ms"},
		"loadgen.epoch_p95_ms":        {percentile(x.m.epoch, 95), "ms"},
		"loadgen.topk_p95_ms":         {percentile(x.m.topk, 95), "ms"},
		"loadgen.bbox_p95_ms":         {percentile(x.m.bbox, 95), "ms"},
		"loadgen.topk_quiet_p50_ms":   {median(x.quietTopk), "ms"},
		"loadgen.bbox_quiet_p50_ms":   {median(x.quietBbox), "ms"},
		"loadgen.measured_timestamps": {timestamps, "count"},
		"loadgen.host_steal_frac":     {x.steal, "ratio"},

		"wire.decode_us_per_obs":     {us(sum(rec.durations("batch", "wire.decode")), sampleObs), "us"},
		"wire.decode_allocs_per_obs": {x.decodeAllocs, "count"},
		"wire.encode_topk_us":        {1e3 * median(rec.durations("read.topk", "wire.encode")), "us"},
		"wire.encode_bbox_us":        {1e3 * median(rec.durations("read.bbox", "wire.encode")), "us"},

		"raytrace.observe_ns_per_obs": {ns(sysObserve, oracleObs), "ns"},
		"raytrace.report_ratio":       {ratio(dm["stats:reports"], dm["stats:observations"]), "ratio"},

		"coordinator.epoch_ms_p50":          {median(rec.durations("", "coordinator.epoch")), "ms"},
		"coordinator.tick_us_p50":           {1e3 * median(rec.durations("", "coordinator.tick")), "us"},
		"coordinator.reports_per_epoch_p50": {median(x.reportsPerEpoch), "count"},
		"coordinator.index_size":            {float64(x.got.stats.IndexSize), "count"},
		"coordinator.paths_created":         {dm["stats:paths_created"], "count"},
		"coordinator.paths_expired":         {dm["stats:paths_expired"], "count"},

		"engine.observe_ns_per_obs":   {ns(engObserve, sampleObs), "ns"},
		"engine.observe_batch_ms_p50": {median(rec.durations("batch", "engine.observe_batch")), "ms"},
		"engine.epoch_ms_p50":         {median(rec.durations("batch", "engine.epoch")), "ms"},
		"engine.allocs_per_obs":       {x.engine.allocsPerObs, "count"},
		"engine.shard_overhead_ratio": {ratio((engObserve+engTick)/sampleObs, (sysObserve+sysTick)/oracleObs), "ratio"},
		"engine.epoch_barrier_s":      {dm["hotpaths_engine_epoch_barrier_seconds_sum"], "s"},
		"engine.observe_batch_s":      {dm["hotpaths_engine_observe_batch_seconds_sum"], "s"},
		"engine.tick_s":               {dm["hotpaths_engine_tick_seconds_sum"], "s"},

		"durable.observe_batch_ms_p50":    {median(rec.durations("batch", "durable.observe_batch")), "ms"},
		"durable.wal_overhead_ns_per_obs": {ns(durObserve+durTick-engObserve-engTick, sampleObs), "ns"},
		"durable.checkpoint_ms_mean":      {histMeanMS(dm, "hotpaths_checkpoint_seconds", ""), "ms"},
		"durable.checkpoint_count":        {dm["hotpaths_checkpoint_seconds_count"], "count"},
		"durable.checkpoint_bytes_mean":   {ratio(dm["hotpaths_checkpoint_bytes_sum"], dm["hotpaths_checkpoint_bytes_count"]), "bytes"},
		"durable.recover_ms":              {ms(x.recover), "ms"},

		"wal.append_s":                  {dm["hotpaths_wal_append_seconds_sum"], "s"},
		"wal.fsync_s":                   {dm["hotpaths_wal_fsync_seconds_sum"], "s"},
		"wal.fsync_count":               {dm["hotpaths_wal_fsync_seconds_count"], "count"},
		"wal.commit_batch_records_mean": {ratio(dm["hotpaths_wal_commit_batch_records_sum"], dm["hotpaths_wal_commit_batch_records_count"]), "count"},
		"wal.bytes_per_obs":             {x.walBytesPerObs, "bytes"},

		"snapshot.copy_ms_p50":           {median(rec.durations("", "snapshot.copy")), "ms"},
		"snapshot.copy_ns_per_path":      {ns(median(rec.durations("", "snapshot.copy")), float64(x.engine.indexSize)), "ns"},
		"snapshot.query_topk_us":         {1e3 * median(rec.durations("read.topk", "snapshot.query")), "us"},
		"snapshot.query_region_first_ms": {median(rec.durations("read.bbox", "snapshot.query")), "ms"},
		"snapshot.query_region_warm_us":  {1e3 * median(rec.durations("read.bbox", "snapshot.query_warm")), "us"},

		"hotpathsd.observe_handler_ms_mean": {histMeanMS(dm, httpHist, `{route="/observe"}`), "ms"},
		"hotpathsd.topk_handler_ms_mean":    {histMeanMS(dm, httpHist, `{route="/topk"}`), "ms"},
		"hotpathsd.paths_handler_ms_mean":   {histMeanMS(dm, httpHist, `{route="/paths"}`), "ms"},
		"hotpathsd.observe_self_ms_mean":    {1e3 * ratio(handlerS-engineS-durableS, observes), "ms"},
		"hotpathsd.net_overhead_ms_mean":    {clientMeanMS - frontHandlerMS, "ms"},
		"hotpathsd.cpu_us_per_obs":          {float64(x.daemonCPU.Microseconds()) / obs, "us"},
		"hotpathsd.rss_peak_mb":             {x.daemonRSS, "MB"},

		"partition.split_ns_per_obs": {ns(sum(rec.durations("", "partition.split")), sampleObs), "ns"},
		"partition.skew":             {x.skew, "ratio"},

		"gateway.observe_handler_ms_mean":     {histMeanMS(gm, "hotpathsgw_http_request_seconds", `{route="/observe"}`), "ms"},
		"gateway.partition_leg_ms_mean":       {1e3 * ratio(sumPrefix(gm, "hotpathsgw_partition_request_seconds_sum"), legs), "ms"},
		"gateway.legs_per_write":              {ratio(legs, timestamps), "count"},
		"gateway.merge_ms_mean":               {histMeanMS(gm, "hotpathsgw_merge_seconds", ""), "ms"},
		"gateway.scatter_bytes_per_cold_read": {x.scatterBytes, "bytes"},
		"gateway.cpu_us_per_obs":              {float64(x.gwCPU.Microseconds()) / obs, "us"},
		"gateway.rss_peak_mb":                 {x.gwRSS, "MB"},
		"gateway.partial_responses":           {gm["hotpathsgw_partial_responses_total"], "count"},
	}
}
