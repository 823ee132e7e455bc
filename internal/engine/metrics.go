package engine

import "hotpaths/internal/metrics"

// Instrumentation for the ingestion pipeline. All instruments live in the
// process-global registry; observation cost is a handful of atomic ops, so
// the hooks are cheap enough for the ObserveBatch hot path (one time.Now
// pair per batch, never per observation).
var (
	mObserveBatch = metrics.Default.Histogram("hotpaths_engine_observe_batch_seconds",
		"Latency of ObserveBatch enqueue calls (sharding plus queue sends).",
		metrics.LatencyBuckets, nil)
	mTick = metrics.Default.Histogram("hotpaths_engine_tick_seconds",
		"Duration of epoch-boundary Tick processing (barrier, merge, coordinator batch, reseed).",
		metrics.LatencyBuckets, nil)
	mBarrier = metrics.Default.Histogram("hotpaths_engine_epoch_barrier_seconds",
		"Duration of the shard flush barrier inside an epoch-boundary Tick.",
		metrics.LatencyBuckets, nil)
	mQueueDepth = metrics.Default.Gauge("hotpaths_engine_queue_depth",
		"Observations waiting in shard queues, sampled at the start of each epoch-boundary Tick.",
		nil)
	mFilters = metrics.Default.Gauge("hotpaths_engine_filters",
		"Live RayTrace filters, one per object the shards' banks hold, sampled after each epoch barrier.",
		nil)
	mObservations = metrics.Default.Counter("hotpaths_engine_observations_total",
		"Observations accepted into the engine.", nil)
	mEpochs = metrics.Default.Counter("hotpaths_engine_epochs_total",
		"Epoch batches processed by the coordinator tier.", nil)
	mRefused = metrics.Default.Counter("hotpaths_engine_observations_refused_total",
		"Observations a shard's filter refused (a timestamp at or before the object's newest); each is dropped.", nil)
)
