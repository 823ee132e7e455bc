package hotpaths

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

// flowWorkload builds a deterministic commuter flow: objects traverse the
// same two-leg route (east, then north) with small lateral offsets and
// staggered departures, going silent after arrival. Shared routes make
// crossings pile onto the same paths, so hotness climbs while flows run
// and decays as the window slides — exactly the Entered/Changed/Left
// churn the subscription tests need (pure random walks almost never cross
// the same path twice).
func flowWorkload(nObjects int, horizon, seed int64) [][]Observation {
	rng := rand.New(rand.NewSource(seed))
	const (
		legLen = 30   // steps per leg
		speed  = 12.0 // metres per step
	)
	depart := make([]int64, nObjects)
	offset := make([]float64, nObjects)
	for i := range depart {
		depart[i] = 1 + int64(rng.Intn(int(horizon-2*legLen)))
		offset[i] = rng.Float64()*6 - 3
	}
	out := make([][]Observation, 0, horizon)
	for t := int64(1); t <= horizon; t++ {
		var batch []Observation
		for i := range depart {
			s := t - depart[i]
			if s < 0 || s > 2*legLen+5 {
				continue // not departed yet / arrived and gone quiet
			}
			var x, y float64
			switch {
			case s <= legLen:
				x, y = float64(s)*speed, offset[i]
			case s <= 2*legLen:
				x, y = legLen*speed, offset[i]+float64(s-legLen)*speed
			default:
				x, y = legLen*speed, offset[i]+legLen*speed
			}
			batch = append(batch, Observation{ObjectID: i, X: x, Y: y, T: t})
		}
		if len(batch) == 0 {
			// Keep every timestamp's batch non-empty so the feed loops can
			// read the clock from batch[0].T.
			batch = append(batch, Observation{ObjectID: nObjects, X: 0, Y: 0, T: t})
		}
		out = append(out, batch)
	}
	return out
}

// recvDelta receives one delta or fails the test after a timeout, so a
// lost publication shows up as a clear failure instead of a hang.
func recvDelta(t *testing.T, sub *Subscription) Delta {
	t.Helper()
	select {
	case d, ok := <-sub.Deltas():
		if !ok {
			t.Fatal("subscription channel closed early")
		}
		return d
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for a delta")
	}
	panic("unreachable")
}

// subscriptionQueries are the standing-query shapes the golden tests run:
// a plain top-k, a hotness threshold, and a region query re-ranked by
// score — together they cover every Query feature.
func subscriptionQueries() []Query {
	return []Query{
		Query{}.K(5),
		Query{}.MinHotness(2),
		Query{}.Region(Rect{Min: Pt(50, -50), Max: Pt(370, 200)}).SortBy(ByScore).K(8),
	}
}

// runSubscribed feeds the deterministic engine workload into src while
// holding the given standing queries, checking after every epoch that the
// received delta, applied to the previous result, reproduces
// Snapshot().Query(q) exactly. It returns the full delta streams so the
// caller can compare deployments.
func runSubscribed(t *testing.T, src Source, queries []Query, batches [][]Observation) [][]Delta {
	t.Helper()
	subs := make([]*Subscription, len(queries))
	results := make([][]HotPath, len(queries))
	streams := make([][]Delta, len(queries))
	for i, q := range queries {
		sub, err := src.Subscribe(q)
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Close()
		subs[i] = sub
		// The baseline delta applies to nil and must equal the current
		// (empty) result.
		d := recvDelta(t, sub)
		streams[i] = append(streams[i], d)
		results[i] = d.Apply(nil)
		if got, want := results[i], src.Snapshot().Query(q); !reflect.DeepEqual(got, want) {
			t.Fatalf("baseline delta applies to %v, want %v", got, want)
		}
	}
	lastEpoch := src.Snapshot().Epoch()
	for _, batch := range batches {
		if err := observeAll(src, batch); err != nil {
			t.Fatal(err)
		}
		if err := src.Tick(batch[0].T); err != nil {
			t.Fatal(err)
		}
		snap := src.Snapshot()
		if snap.Epoch() == lastEpoch {
			continue // no boundary crossed: no deltas due
		}
		lastEpoch = snap.Epoch()
		for i, sub := range subs {
			d := recvDelta(t, sub)
			if d.Epoch != lastEpoch || d.Clock != snap.Clock() {
				t.Fatalf("delta stamped epoch=%d clock=%d, want epoch=%d clock=%d",
					d.Epoch, d.Clock, lastEpoch, snap.Clock())
			}
			streams[i] = append(streams[i], d)
			results[i] = d.Apply(results[i])
			if want := snap.Query(queries[i]); !reflect.DeepEqual(results[i], want) {
				t.Fatalf("query %d epoch %d: delta-applied result diverged:\n got %v\nwant %v",
					i, lastEpoch, results[i], want)
			}
		}
	}
	return streams
}

// observeAll feeds one timestamp's batch through the fastest path the
// deployment offers, mirroring how each is driven in production.
func observeAll(src Source, batch []Observation) error {
	type batcher interface {
		ObserveBatchCtx(ctx context.Context, batch []Observation) error
	}
	if b, ok := src.(batcher); ok {
		return b.ObserveBatchCtx(context.Background(), batch)
	}
	for _, o := range batch {
		if err := src.Observe(o.ObjectID, o.X, o.Y, o.T); err != nil {
			return err
		}
	}
	return nil
}

// Golden contract of the tentpole: every epoch's delta, applied to the
// previous result set, reproduces Snapshot().Query(q) exactly — on the
// System, the Engine and the Durable deployments — and all three emit
// bit-identical delta streams for the same trace. CI runs this under
// -race.
func TestSubscriptionMatchesSnapshots(t *testing.T) {
	cfg := engineTestConfig()
	batches := flowWorkload(48, 160, 42)

	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(EngineConfig{Config: cfg, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	dur, err := OpenDurable(t.TempDir(), DurableConfig{
		Config:        cfg,
		Shards:        4,
		FsyncInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dur.Close() })

	streams := map[string][][]Delta{
		"system":  runSubscribed(t, sys, subscriptionQueries(), batches),
		"engine":  runSubscribed(t, eng, subscriptionQueries(), batches),
		"durable": runSubscribed(t, dur, subscriptionQueries(), batches),
	}
	for _, name := range []string{"engine", "durable"} {
		if !reflect.DeepEqual(streams["system"], streams[name]) {
			t.Errorf("%s delta streams differ from system", name)
		}
	}
	// The workload must actually have exercised the delta surface.
	var entered, left, changed int
	for _, s := range streams["system"] {
		for _, d := range s {
			entered += len(d.Entered)
			changed += len(d.Changed)
			left += len(d.Left)
		}
	}
	if entered == 0 || changed == 0 || left == 0 {
		t.Fatalf("workload too tame: entered=%d changed=%d left=%d", entered, changed, left)
	}
}

// A consumer that stops reading must not block ingestion; when it resumes
// it is re-baselined by a reset delta whose Missed counter accounts for
// every dropped epoch, and applying the received stream still lands on
// the exact current result.
func TestSubscriptionSlowConsumerResets(t *testing.T) {
	cfg := engineTestConfig()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{}.K(8)
	sub, err := sys.Subscribe(q)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	// 300 timestamps = 30 epochs; with the baseline that is 31 deltas
	// against a buffer of 16, so condensation must kick in.
	const horizon = 300
	epochs := int64(0)
	for _, batch := range IngestWorkload(32, horizon, 7) {
		for _, o := range batch {
			if err := sys.Observe(o.ObjectID, o.X, o.Y, o.T); err != nil {
				t.Fatal(err)
			}
		}
		if err := sys.Tick(batch[0].T); err != nil {
			t.Fatal(err)
		}
	}
	epochs = sys.Snapshot().Epoch()

	var result []HotPath
	delivered, missed, resets := 0, 0, 0
	for {
		var d Delta
		select {
		case d = <-sub.Deltas():
		default:
			d = Delta{Clock: -1}
		}
		if d.Clock == -1 {
			break
		}
		delivered++
		missed += d.Missed
		if d.Missed > 0 {
			resets++
			if !d.Reset {
				t.Fatalf("delta with Missed=%d must be a reset: %+v", d.Missed, d)
			}
		}
		result = d.Apply(result)
	}
	if resets == 0 {
		t.Fatalf("expected a reset after %d undelivered epochs, got none (delivered %d)", epochs, delivered)
	}
	// Every published delta (baseline + one per epoch) is accounted for:
	// delivered as-is, or dropped and counted by a reset.
	if int64(delivered+missed) != epochs+1 {
		t.Fatalf("delivered %d + missed %d != %d epochs + baseline", delivered, missed, epochs)
	}
	if want := sys.Snapshot().Query(q); !reflect.DeepEqual(result, want) {
		t.Fatalf("re-baselined stream diverged:\n got %v\nwant %v", result, want)
	}
}

// Subscribe/Close must be safe while another goroutine ingests and ticks
// — the -race job leans on this test — and closing the source must close
// every remaining subscription channel.
func TestSubscribeConcurrentWithIngestion(t *testing.T) {
	cfg := engineTestConfig()
	eng, err := NewEngine(EngineConfig{Config: cfg, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sub, err := eng.Subscribe(Query{}.K(3))
				if err != nil {
					return // engine closed under us: also fine
				}
				var result []HotPath
				for i := 0; i < 3; i++ {
					select {
					case d, ok := <-sub.Deltas():
						if !ok {
							sub.Close() // must be safe after the hub closed it
							return
						}
						result = d.Apply(result)
					case <-stop:
						sub.Close()
						return
					}
				}
				sub.Close()
			}
		}()
	}

	// A subscription that outlives the churn, to check shutdown semantics.
	held, err := eng.Subscribe(Query{})
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range IngestWorkload(32, 120, 3) {
		if err := eng.ObserveBatchCtx(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
		if err := eng.Tick(batch[0].T); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	// Close drains: the held subscription's channel must end after its
	// buffered deltas.
	for i := 0; ; i++ {
		if _, ok := <-held.Deltas(); !ok {
			break
		}
		if i > subscriptionBuffer {
			t.Fatal("held subscription not closed by engine Close")
		}
	}
	if _, err := eng.Subscribe(Query{}); err == nil {
		t.Fatal("Subscribe after Close must fail")
	}
}

// The Tick contract forbids concurrent ticks, but the daemon's HTTP
// surface cannot enforce it — two producers POSTing /tick race. With a
// subscriber attached, the epoch fan-out must neither tear state (the
// snapshot is captured under the write lock) nor deliver epochs out of
// order (the hub drops stale views). The -race job leans on this test;
// losing tickers just get "time must advance" errors, which are fine.
func TestConcurrentTickersWithSubscriberStayOrdered(t *testing.T) {
	cfg := engineTestConfig()
	eng, err := NewEngine(EngineConfig{Config: cfg, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	sub, err := eng.Subscribe(Query{}.K(5))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	batches := flowWorkload(16, 200, 9)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, batch := range batches {
				_ = eng.ObserveBatchCtx(context.Background(), batch)
				_ = eng.Tick(batch[0].T) // the loser errors; that's the contract
			}
		}()
	}
	wg.Wait()
	eng.Close() // closes the channel so the drain below terminates

	last := int64(-1)
	for d := range sub.Deltas() {
		if d.Epoch <= last {
			t.Fatalf("epoch regressed in the delta stream: %d after %d", d.Epoch, last)
		}
		last = d.Epoch
	}
	if last < 1 {
		t.Fatal("no epochs reached the subscriber")
	}
}

// Regression for the overflow-drain race: while the hub drains a full
// buffer, the consumer may concurrently steal any prefix (or arbitrary
// subset — channel receives are not serialised with the drain) of the
// queued deltas and apply them first. The reset that follows must land
// the consumer on the exact current result regardless of which state it
// reached, because Apply on a reset discards the previous result.
func TestResetDeltaOverridesAnyPriorState(t *testing.T) {
	hp := func(id uint64, h int) HotPath {
		return HotPath{ID: id, Start: Pt(0, 0), End: Pt(float64(id), 0), Hotness: h}
	}
	full := []HotPath{hp(1, 6), hp(4, 2)}
	reset := Delta{Clock: 30, Epoch: 3, Entered: full, Reset: true, Missed: 3, Order: ByHotness}
	for _, prior := range [][]HotPath{
		nil,                  // consumer stole nothing
		{hp(9, 3)},           // stole a delta that entered a since-departed path
		{hp(1, 1), hp(9, 3)}, // stale hotness and a departed path
		full,                 // already current
	} {
		if got := reset.Apply(prior); !reflect.DeepEqual(got, full) {
			t.Errorf("reset over %v applied to %v, want %v", prior, got, full)
		}
	}
	// A reset's Entered must not alias the consumer's result slice.
	out := reset.Apply(nil)
	out[0].Hotness = 99
	if reset.Entered[0].Hotness == 99 {
		t.Error("Apply must copy the reset payload")
	}
}

// Non-finite measurements must be rejected at every ingestion surface
// before they can poison filter, shard or journal state.
func TestObserveRejectsNonFinite(t *testing.T) {
	cfg := engineTestConfig()
	cfg.Delta = 0.05
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(EngineConfig{Config: cfg, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	dur, err := OpenDurable(t.TempDir(), DurableConfig{Config: cfg, FsyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dur.Close() })

	nan, inf := math.NaN(), math.Inf(1)
	for _, src := range []Source{sys, eng, dur} {
		for _, bad := range [][2]float64{{nan, 1}, {1, nan}, {inf, 1}, {1, -inf}} {
			if err := src.Observe(1, bad[0], bad[1], 1); err == nil {
				t.Errorf("%T.Observe(%v, %v) accepted a non-finite coordinate", src, bad[0], bad[1])
			}
		}
	}
	type noisy interface {
		ObserveNoisy(objectID int, x, y, sigmaX, sigmaY float64, t int64) error
	}
	for _, src := range []Source{sys, eng, dur} {
		n := src.(noisy)
		if err := n.ObserveNoisy(1, nan, 0, 1, 1, 1); err == nil {
			t.Errorf("%T.ObserveNoisy accepted a NaN coordinate", src)
		}
		if err := n.ObserveNoisy(1, 0, 0, inf, 1, 1); err == nil {
			t.Errorf("%T.ObserveNoisy accepted an infinite sigma", src)
		}
		if err := n.ObserveNoisy(1, 0, 0, nan, 1, 1); err == nil {
			t.Errorf("%T.ObserveNoisy accepted a NaN sigma", src)
		}
	}
	for _, src := range []interface {
		ObserveBatchCtx(ctx context.Context, batch []Observation) error
	}{eng, dur} {
		err := src.ObserveBatchCtx(context.Background(), []Observation{
			{ObjectID: 1, X: 0, Y: 0, T: 1},
			{ObjectID: 2, X: nan, Y: 0, T: 1},
		})
		if err == nil {
			t.Errorf("%T.ObserveBatchCtx accepted a NaN coordinate", src)
		}
	}
	// The WAL must not have journaled any rejected record: recovery would
	// replay it into a fresh deployment.
	if n := dur.WAL().Records; n != 0 {
		t.Fatalf("rejected observations reached the journal: %d records", n)
	}
	// Valid observations still flow after the rejections.
	if err := sys.Observe(1, 10, 10, 1); err != nil {
		t.Fatal(err)
	}
}
