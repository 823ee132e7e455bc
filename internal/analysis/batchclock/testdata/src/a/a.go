// Fixture for the batchclock analyzer: hot-path loops meter per batch,
// never per record.
package a

import (
	"context"
	"time"

	"hotpaths/internal/flightrec"
	"hotpaths/internal/metrics"
	"hotpaths/internal/tracing"
)

type record struct{ v float64 }

func perRecordClock(recs []record) time.Duration {
	var total time.Duration
	for range recs {
		start := time.Now()        // want `time\.Now inside a loop`
		total += time.Since(start) // want `time\.Since inside a loop`
	}
	return total
}

func perRecordObserve(recs []record, h *metrics.Histogram) {
	for _, r := range recs {
		h.Observe(r.v) // want `histogram Observe inside a loop`
	}
}

func perRecordObserveSince(recs []record, h *metrics.Histogram, t0 time.Time) {
	for i := 0; i < len(recs); i++ {
		h.ObserveSince(t0) // want `histogram ObserveSince inside a loop`
	}
}

func perRecordSpan(ctx context.Context, recs []record) {
	for range recs {
		tracing.Do(ctx, "record", func(context.Context, *tracing.Span) error { return nil }) // want `starting a span inside a loop`
	}
}

// Allowed: the contract's shape — one clock pair and one observation
// bracketing the whole batch.
func perBatch(recs []record, h *metrics.Histogram) {
	start := time.Now()
	var sum float64
	for _, r := range recs {
		sum += r.v
	}
	h.Observe(time.Since(start).Seconds())
	_ = sum
}

// Allowed: per-record counter increments are a single atomic add.
func perRecordCount(recs []record, c *metrics.Counter) {
	for range recs {
		c.Inc()
	}
}

// Allowed: a goroutine launched per shard times its own work at that
// coarser granularity (the gateway's scatter loop).
func perShard(shards []chan []record, h *metrics.Histogram) {
	for _, ch := range shards {
		ch := ch
		go func() {
			start := time.Now()
			<-ch
			h.ObserveSince(start)
		}()
	}
}

func perRecordEvent(recs []record, rec *flightrec.Recorder) {
	for range recs {
		rec.Record("record_ingested") // want `flight-recorder Record inside a loop`
	}
}

func perRecordEventCtx(ctx context.Context, recs []record, rec *flightrec.Recorder) {
	for _, r := range recs {
		rec.RecordCtx(ctx, "record_ingested", flightrec.KV("v", r.v)) // want `flight-recorder RecordCtx inside a loop`
	}
}

// Allowed: the recorder's contract — one event summarising the batch,
// emitted after the loop.
func perBatchEvent(ctx context.Context, recs []record, rec *flightrec.Recorder) {
	var sum float64
	for _, r := range recs {
		sum += r.v
	}
	rec.RecordCtx(ctx, "batch_ingested",
		flightrec.KV("records", len(recs)), flightrec.KV("sum", sum))
}

// Allowed: a reasoned suppression directive waives the finding.
func suppressed(recs []record) {
	for range recs {
		//hotpathsvet:ignore batchclock cold admin path iterating a handful of segments, not the record hot path
		_ = time.Now()
	}
}
