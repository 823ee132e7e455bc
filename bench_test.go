// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation (Section 6), micro-benchmarks of every substrate,
// the library's ingest, durability and query paths, and ablation benches
// for choices the paper leaves open.
//
// The figure benches run scaled-down workloads (see experiment.QuickBase),
// so each takes seconds; cmd/benchfigs runs the same sweeps at paper
// scale (about 19 s for all of them on 2 vCPUs). Alongside ns/op, each
// figure bench reports the paper's own metrics via b.ReportMetric: index
// sizes, top-k scores and coordinator time, for both SinglePath and the
// DP benchmark.
package hotpaths_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"testing"
	"time"

	"hotpaths"

	"hotpaths/internal/coordinator"
	"hotpaths/internal/dp"
	"hotpaths/internal/experiment"
	"hotpaths/internal/geom"
	"hotpaths/internal/gridindex"
	"hotpaths/internal/hotness"
	"hotpaths/internal/imai"
	"hotpaths/internal/motion"
	"hotpaths/internal/overlap"
	"hotpaths/internal/raytrace"
	"hotpaths/internal/replication"
	"hotpaths/internal/simulation"
	"hotpaths/internal/trajectory"
	"hotpaths/internal/uncertainty"
	"hotpaths/internal/workload"
)

// --- Figure 7: varying the number of objects (index size, score, time) ---

func BenchmarkFigure7(b *testing.B) {
	for _, n := range []int{500, 1000, 2500, 5000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			base, err := experiment.QuickBase(1)
			if err != nil {
				b.Fatal(err)
			}
			base.N = n
			var last *simulation.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := simulation.Run(base)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.StopTimer()
			reportFigureMetrics(b, last)
		})
	}
}

// --- Figure 8: varying the tolerance ---

func BenchmarkFigure8(b *testing.B) {
	for _, eps := range []float64{1, 2, 10, 20} {
		b.Run(fmt.Sprintf("eps=%g", eps), func(b *testing.B) {
			base, err := experiment.QuickBase(1)
			if err != nil {
				b.Fatal(err)
			}
			base.Eps = eps
			var last *simulation.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := simulation.Run(base)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.StopTimer()
			reportFigureMetrics(b, last)
		})
	}
}

func reportFigureMetrics(b *testing.B, res *simulation.Result) {
	b.Helper()
	if res == nil {
		return
	}
	b.ReportMetric(res.AvgIndexSize, "sp-index")
	b.ReportMetric(res.AvgDPIndexSize, "dp-index")
	b.ReportMetric(res.AvgTopKScore, "sp-score")
	b.ReportMetric(res.AvgDPTopKScore, "dp-score")
	b.ReportMetric(float64(res.AvgProcTime.Microseconds())/1000, "sp-ms/epoch")
	b.ReportMetric(float64(res.Comm.UpMessages), "msgs")
}

// --- Figures 9/10: qualitative renders (bench the full pipeline + render) ---

func BenchmarkFigure9Render(b *testing.B) {
	base, err := experiment.QuickBase(1)
	if err != nil {
		b.Fatal(err)
	}
	base.Duration = 100
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiment.Figure9(base); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure10Render(b *testing.B) {
	base, err := experiment.QuickBase(1)
	if err != nil {
		b.Fatal(err)
	}
	base.Duration = 100
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Figure10(base, 20); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 2 / communication ablation ---

func BenchmarkCommAblation(b *testing.B) {
	base, err := experiment.QuickBase(1)
	if err != nil {
		b.Fatal(err)
	}
	base.Duration = 100
	var rows []experiment.CommRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err = experiment.CommAblation(base, []float64{2, 10, 20})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if len(rows) == 3 {
		b.ReportMetric(rows[0].Ratio, "ratio-eps2")
		b.ReportMetric(rows[2].Ratio, "ratio-eps20")
	}
}

// --- Micro-benchmarks: substrates ---

func benchWalk(n int, seed int64) []trajectory.TimePoint {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]trajectory.TimePoint, n)
	cur := geom.Pt(0, 0)
	dir := geom.Pt(5, 0)
	for i := range pts {
		if rng.Float64() < 0.1 {
			dir = geom.Pt(rng.Float64()*10-5, rng.Float64()*10-5)
		}
		cur = cur.Add(dir).Add(geom.Pt(rng.Float64()-0.5, rng.Float64()-0.5))
		pts[i] = trajectory.TP(cur, trajectory.Time(i))
	}
	return pts
}

// BenchmarkRayTraceProcess measures the per-timepoint cost of the filter —
// the paper's O(1) claim.
func BenchmarkRayTraceProcess(b *testing.B) {
	pts := benchWalk(b.N+1, 3)
	f := raytrace.New(pts[0], 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, report, err := f.Process(pts[i+1])
		if err != nil {
			b.Fatal(err)
		}
		if report {
			if _, _, err := f.Respond(trajectory.TP(st.FSA.Centroid(), st.Te)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkGridInsertRemove(b *testing.B) {
	bounds := geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(10000, 10000)}
	g, err := gridindex.New(bounds, 64, 64)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	pts := make([]geom.Point, b.N)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*10000, rng.Float64()*10000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := gridindex.Entry{ID: motion.PathID(i), End: pts[i], Start: geom.Pt(0, 0)}
		g.Insert(e)
		if i >= 1000 {
			g.Remove(motion.PathID(i-1000), pts[i-1000])
		}
	}
}

func BenchmarkGridQuery(b *testing.B) {
	bounds := geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(10000, 10000)}
	g, _ := gridindex.New(bounds, 64, 64)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50000; i++ {
		g.Insert(gridindex.Entry{
			ID:  motion.PathID(i),
			End: geom.Pt(rng.Float64()*10000, rng.Float64()*10000),
		})
	}
	b.ResetTimer()
	found := 0
	for i := 0; i < b.N; i++ {
		lo := geom.Pt(rng.Float64()*9900, rng.Float64()*9900)
		q := geom.Rect{Lo: lo, Hi: lo.Add(geom.Pt(40, 40))}
		g.Query(q, func(gridindex.Entry) bool { found++; return true })
	}
	_ = found
}

func BenchmarkHotnessWindow(b *testing.B) {
	h, _ := hotness.New(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Cross(motion.PathID(i%1000), trajectory.Time(i))
		if i%10 == 0 {
			h.Advance(trajectory.Time(i), func(motion.PathID) {})
		}
	}
}

func BenchmarkOverlapDeepest(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	s, _ := overlap.NewSet(20)
	// A realistic epoch batch: 2000 FSAs clustered around 50 hotspots.
	for i := 0; i < 2000; i++ {
		cx := float64(rng.Intn(50)) * 200
		cy := float64(rng.Intn(50)) * 200
		lo := geom.Pt(cx+rng.Float64()*30, cy+rng.Float64()*30)
		s.Add(geom.Rect{Lo: lo, Hi: lo.Add(geom.Pt(20, 20))})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cx := float64(rng.Intn(50)) * 200
		q := geom.Rect{Lo: geom.Pt(cx, cx), Hi: geom.Pt(cx+60, cx+60)}
		s.DeepestWithin(q)
	}
}

func BenchmarkDPOpeningWindow(b *testing.B) {
	pts := benchWalk(b.N+1, 11)
	w, err := dp.NewOpeningWindow(5, dp.NOPW)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Process(pts[i]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUncertaintySolver(b *testing.B) {
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := uncertainty.MaxOffset(10, 0.05, 1+float64(i%5)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCoordinatorEpoch measures SinglePath's per-epoch batch cost.
func BenchmarkCoordinatorEpoch(b *testing.B) {
	for _, batch := range []int{100, 1000} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			runBody(b, coordinatorEpoch(batch))
		})
	}
}

// coordinatorEpoch returns the next epoch of batch random reports.
func coordinatorEpoch(batch int) func(testing.TB) func() {
	return func(tb testing.TB) func() {
		bounds := geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(10000, 10000)}
		c, err := coordinator.New(coordinator.Config{Bounds: bounds, W: 100, Eps: 10})
		if err != nil {
			tb.Fatal(err)
		}
		rng := rand.New(rand.NewSource(13))
		now := trajectory.Time(0)
		epoch := func() {
			reports := make([]coordinator.Report, batch)
			for j := range reports {
				s := geom.Pt(rng.Float64()*10000, rng.Float64()*10000)
				fsa := geom.RectAround(s.Add(geom.Pt(80, 20)), 10)
				reports[j] = coordinator.Report{
					ObjectID: j,
					State:    raytrace.State{Start: s, Ts: now, FSA: fsa, Te: now + 10},
				}
			}
			if _, err := c.ProcessEpoch(reports); err != nil {
				tb.Fatal(err)
			}
			now += 10
			c.Advance(now)
		}
		return epoch
	}
}

// BenchmarkCoordinatorSnapshot measures the copy a cold read takes under
// the engine's read lock, over a store with mixed_rw's churn history:
// ~60k paths created, 90% of them expired, ~6k live.
func BenchmarkCoordinatorSnapshot(b *testing.B) {
	bounds := geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(10000, 10000)}
	c, err := coordinator.New(coordinator.Config{Bounds: bounds, W: 60, Eps: 10})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	reports := make([]coordinator.Report, 1000)
	for now := trajectory.Time(0); c.Stats().PathsCreated < 60000; {
		for j := range reports {
			s := geom.Pt(rng.Float64()*10000, rng.Float64()*10000)
			reports[j] = coordinator.Report{ObjectID: j, State: raytrace.State{
				Start: s, Ts: now, FSA: geom.RectAround(s.Add(geom.Pt(80, 20)), 10), Te: now + 10,
			}}
		}
		if _, err := c.ProcessEpoch(reports); err != nil {
			b.Fatal(err)
		}
		now += 10
		c.Advance(now)
	}
	n := c.IndexSize()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSnap = c.Snapshot()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/path")
}

var benchSnap *coordinator.Snapshot

// --- The library case table: ingest, durability and queries ---

// allocBudget is one row of the library's case table. build sets up a
// workload and returns one operation on it: the Benchmark named by the
// row times that operation, and TestAllocBudgets counts its allocations
// against allocs. Wall-clock time end to end is benchmark/'s job; the
// allocation counts are what a library change can be held to exactly.
type allocBudget struct {
	name   string
	allocs float64 // pinned allocs/op
	build  func(testing.TB) func()
}

var allocBudgets = []allocBudget{
	// Every epoch runs through one core that refills its batch in place
	// (a System grew a fresh one each epoch) and boxes no span attribute
	// on an untraced context. Before: 4,755, 4,907, 5,256, 25,744, 5,034
	// and 5,590.
	{"SystemIngest", 4691, systemIngest},
	{"EngineIngest/shards=1", 4873, engineIngest(1)},
	{"EngineIngest/shards=4", 5224, engineIngest(4)},
	// A checkpoint is a flat binary body written into one buffer, not
	// gob, and its filter list is sized before it is filled. Before:
	// 25,705 and 3,094.
	{"WALAppend/shards=1", 5334, walAppend(1)},
	{"Recover/replay", 4998, recoverJournal(-1)},
	{"Recover/checkpoint", 1848, recoverJournal(0)},
	{"FollowerReplay", 5545, followerReplay},
	// One steady-state write: no count here may grow with the batch
	// (TestWarmWritesAllocateNothingPerObservation).
	{"EngineObserveBatch/warm", 0, observeWarm(false, warmBatch)},
	{"DurableObserveBatch/warm", 0, observeWarm(true, warmBatch)},
	// The second epoch of a fresh coordinator. The benchmark reports a
	// mean over b.N epochs, which falls as the stores warm up (74 at 300).
	{"CoordinatorEpoch/batch=1000", 1020, coordinatorEpoch(1000)},
	{"SnapshotCold/topk", 6, snapshotCold(hotpaths.Query{}.K(10))},
	{"SnapshotQuery/paths=10000/topk", 1, snapshotQuery(10_000, topK10)},
	{"SnapshotQuery/paths=10000/region-grid", 4, snapshotQuery(10_000, viewport)},
}

// TestAllocBudgets holds every row of allocBudgets to its pinned
// allocs/op: within 1% either way, and exactly below 100. It runs each
// operation once to warm up and counts the next. The counts are
// deterministic to a few allocations: testing.AllocsPerRun runs at
// GOMAXPROCS 1, so Recover and OpenFollower, which size their engine by
// it, run one shard on every machine, and -race moves no row by more
// than 0.7%. A change that moves a count, either way, re-pins its row
// and says why.
func TestAllocBudgets(t *testing.T) {
	for _, c := range allocBudgets {
		t.Run(c.name, func(t *testing.T) {
			got := countAllocs(c.build(t))
			tol := 0.0
			if c.allocs >= 100 {
				tol = c.allocs / 100
			}
			if math.Abs(got-c.allocs) > tol {
				// AllocsPerRun counts every goroutine's allocations: name
				// the goroutines that were running, in case one of them,
				// not the operation, allocated inside the count (the
				// runtime's own goroutines are not listed).
				var running bytes.Buffer
				pprof.Lookup("goroutine").WriteTo(&running, 1)
				t.Errorf("%v allocs/op, pinned at %v ± %v; goroutines after the count:\n%s", got, c.allocs, tol, &running)
			}
		})
	}
}

// countAllocs is testing.AllocsPerRun(1, op) with no garbage collection
// inside the count. Every cycle wakes the runtime's cleanup goroutine for
// the unique package's maps (net/netip makes one at init), and
// AllocsPerRun, which counts every goroutine's allocations, charged its
// two per cycle to whatever operation the cycle hit: SnapshotCold/topk,
// which copies 10k paths per operation, read 8 or 10 against its pin of 6
// under -race.
func countAllocs(op func()) float64 {
	runtime.GC() // the last cycle's cleanup runs now, before the count
	runtime.Gosched()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(1, op)
}

// runBody times the operation build returns, b.N times.
func runBody(b *testing.B, build func(testing.TB) func()) {
	body := build(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body()
	}
	b.StopTimer()
}

// offClock runs f with a benchmark's timer stopped. Under
// TestAllocBudgets tb is a *testing.T, and f's allocations count.
func offClock(tb testing.TB, f func()) {
	if b, ok := tb.(*testing.B); ok {
		b.StopTimer()
		defer b.StartTimer()
	}
	f()
}

// The ingest workload: ingestObjects seeded random walkers with
// occasional sharp turns over ingestHorizon timestamps, so the filter
// tier does real SSA work and periodically reports. It is the generator
// the Engine/System equivalence test uses (hotpaths.IngestWorkload).
const ingestObjects, ingestHorizon = 512, 60

func ingestBatches(nObjects int, horizon int64) [][]hotpaths.Observation {
	return hotpaths.IngestWorkload(nObjects, horizon, 21)
}

func ingestConfig() hotpaths.Config {
	return hotpaths.Config{
		Eps:    5,
		W:      100,
		Epoch:  10,
		K:      10,
		Bounds: hotpaths.Rect{Min: hotpaths.Pt(-3000, -3000), Max: hotpaths.Pt(4000, 4000)},
	}
}

// ingest feeds every batch to w, one tick per timestamp.
func ingest(tb testing.TB, w hotpaths.Writer, batches [][]hotpaths.Observation) {
	for _, batch := range batches {
		if err := w.ObserveBatchCtx(context.Background(), batch); err != nil {
			tb.Fatal(err)
		}
		if err := w.TickCtx(context.Background(), batch[0].T); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkSystemIngest is the single-threaded baseline: the full
// filter+coordinator pipeline driven through hotpaths.System.
func BenchmarkSystemIngest(b *testing.B) {
	runBody(b, systemIngest)
	reportObsRate(b, ingestObjects*ingestHorizon)
}

func systemIngest(tb testing.TB) func() {
	batches := ingestBatches(ingestObjects, ingestHorizon)
	return func() {
		sys, err := hotpaths.New(ingestConfig())
		if err != nil {
			tb.Fatal(err)
		}
		for _, batch := range batches {
			for _, o := range batch {
				if err := sys.Observe(o.ObjectID, o.X, o.Y, o.T); err != nil {
					tb.Fatal(err)
				}
			}
			if err := sys.Tick(batch[0].T); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// BenchmarkEngineIngest runs the same workload through a sharded Engine,
// from NewEngine to Close, at 1 and 4 shards and at GOMAXPROCS. Set
// against BenchmarkSystemIngest, shards=1 is the cost of the shard hop
// and the epoch barrier; the wider counts show what the filter tier
// gains in parallel on this machine, which is nothing on one core.
func BenchmarkEngineIngest(b *testing.B) {
	counts := []int{1, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 4 {
		counts = append(counts, p)
	}
	for _, shards := range counts {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			runBody(b, engineIngest(shards))
			reportObsRate(b, ingestObjects*ingestHorizon)
		})
	}
}

func engineIngest(shards int) func(testing.TB) func() {
	return func(tb testing.TB) func() {
		batches := ingestBatches(ingestObjects, ingestHorizon)
		return func() {
			eng, err := hotpaths.NewEngine(hotpaths.EngineConfig{Config: ingestConfig(), Shards: shards})
			if err != nil {
				tb.Fatal(err)
			}
			ingest(tb, eng, batches)
			if err := eng.Close(); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// --- Durable write path: journaled ingest and crash recovery ---

// BenchmarkWALAppend measures durable ingest: the BenchmarkEngineIngest
// workload pushed through OpenDurable at the default group-commit
// interval, so every observation and tick is journaled before it is
// applied. The acceptance bar for the durability subsystem is >=50% of
// the in-memory Engine's obs/s at the same shard count.
func BenchmarkWALAppend(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			runBody(b, walAppend(shards))
			reportObsRate(b, ingestObjects*ingestHorizon)
		})
	}
}

func walAppend(shards int) func(testing.TB) func() {
	return func(tb testing.TB) func() {
		batches := ingestBatches(ingestObjects, ingestHorizon)
		return func() {
			var dir string
			offClock(tb, func() { dir = tb.TempDir() }) // a fresh journal each time
			dur, err := hotpaths.OpenDurable(dir, hotpaths.DurableConfig{Config: ingestConfig(), Shards: shards})
			if err != nil {
				tb.Fatal(err)
			}
			ingest(tb, dur, batches)
			// The hard durability barrier is part of the measured cost;
			// the final checkpoint Close writes is shutdown cost, not
			// append cost, so it runs off the clock.
			if err := dur.Sync(); err != nil {
				tb.Fatal(err)
			}
			offClock(tb, func() {
				if err := dur.Close(); err != nil {
					tb.Fatal(err)
				}
			})
		}
	}
}

// journal writes the ingest workload into a fresh durable directory with
// no fsync and the given checkpoint cadence, and leaves it closed.
func journal(tb testing.TB, ckptEvery int64) string {
	tb.Helper()
	dir := tb.TempDir()
	dur, err := hotpaths.OpenDurable(dir, hotpaths.DurableConfig{
		Config:          ingestConfig(),
		FsyncInterval:   -1,
		CheckpointEvery: ckptEvery,
	})
	if err != nil {
		tb.Fatal(err)
	}
	ingest(tb, dur, ingestBatches(ingestObjects, ingestHorizon))
	if err := dur.Close(); err != nil {
		tb.Fatal(err)
	}
	return dir
}

// BenchmarkRecover measures both recovery paths: "replay" reconstructs
// purely from the WAL (no checkpoint — the worst case), "checkpoint"
// loads the final checkpoint plus an empty tail (the steady-state restart
// cost with default retention).
func BenchmarkRecover(b *testing.B) {
	b.Run("replay", func(b *testing.B) {
		runBody(b, recoverJournal(-1)) // no checkpoints: recovery replays every record
		reportObsRate(b, ingestObjects*ingestHorizon)
	})
	b.Run("checkpoint", func(b *testing.B) {
		runBody(b, recoverJournal(0)) // default cadence + final checkpoint on Close
		reportObsRate(b, ingestObjects*ingestHorizon)
	})
}

// recoverJournal returns one restart of a journal written at ckptEvery:
// Recover's Engine is started and closed, so a restart pays for both.
func recoverJournal(ckptEvery int64) func(testing.TB) func() {
	return func(tb testing.TB) func() {
		dir := journal(tb, ckptEvery)
		return func() {
			eng, err := hotpaths.Recover(dir)
			if err != nil {
				tb.Fatal(err)
			}
			got := eng.Stats().Observations
			if err := eng.Close(); err != nil {
				tb.Fatal(err)
			}
			if got != ingestObjects*ingestHorizon {
				tb.Fatal("short recovery")
			}
		}
	}
}

// BenchmarkFollowerReplay measures follower apply throughput: the
// BenchmarkRecover/replay workload, but arriving over a real (loopback)
// replication stream into hotpaths.OpenFollower instead of from local
// disk. The acceptance bar for the replication subsystem is staying
// within 2x of BenchmarkRecover's replay path — the follower pays HTTP
// framing and stream decode on top of the same deterministic replay, and
// batching the applies is what keeps that overhead in budget.
func BenchmarkFollowerReplay(b *testing.B) {
	runBody(b, followerReplay)
	reportObsRate(b, ingestObjects*ingestHorizon)
}

// followerReplay stops all it started before its row ends — cleanups run
// last registered first: the feed server, the follower client's idle
// connections to it, the durable log, and then waits for their
// goroutines to exit, so none of them allocates inside a later row's
// count.
func followerReplay(tb testing.TB) func() {
	running := runtime.NumGoroutine()
	tb.Cleanup(func() {
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > running && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	})
	dir := tb.TempDir()
	dur, err := hotpaths.OpenDurable(dir, hotpaths.DurableConfig{
		Config:          ingestConfig(),
		FsyncInterval:   -1,
		CheckpointEvery: -1, // no checkpoints: the follower replays every record
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { dur.Close() })
	ingest(tb, dur, ingestBatches(ingestObjects, ingestHorizon))
	if err := dur.Sync(); err != nil {
		tb.Fatal(err)
	}
	srv := httptest.NewServer(replicationFeed(dir, dur))
	tb.Cleanup(func() {
		srv.Close()
		// A follower dials through http.DefaultClient, whose transport
		// keeps the connections to the feed open after Close.
		http.DefaultClient.CloseIdleConnections()
	})
	return func() {
		f, err := hotpaths.OpenFollower(srv.URL, hotpaths.FollowerConfig{})
		if err != nil {
			tb.Fatal(err)
		}
		for f.Replication().AppliedLSN < dur.NextLSN() {
			time.Sleep(200 * time.Microsecond)
		}
		// Verification (an O(paths) snapshot) and teardown run off-clock;
		// the timed section is bootstrap + stream + apply only.
		offClock(tb, func() {
			if got := f.Snapshot().Stats().Observations; got != ingestObjects*ingestHorizon {
				tb.Fatalf("follower replayed %d observations, want %d", got, ingestObjects*ingestHorizon)
			}
			if err := f.Close(); err != nil {
				tb.Fatal(err)
			}
		})
	}
}

// --- Steady-state writes: one batch of known objects into a warm deployment ---

// warmBatch is the batch size of the pinned */warm rows.
const warmBatch = 2000

// BenchmarkEngineObserveBatch and BenchmarkDurableObserveBatch time one
// write once the deployment is warm: a batch of objects it has seen
// before, then the tick closing that timestamp (an epoch every tenth).
// Their objects drift along straight lines, so no filter reports and
// the write path is all there is to time.
func BenchmarkEngineObserveBatch(b *testing.B) {
	b.Run("warm", func(b *testing.B) {
		runBody(b, observeWarm(false, warmBatch))
		reportObsRate(b, warmBatch)
	})
}

func BenchmarkDurableObserveBatch(b *testing.B) {
	b.Run("warm", func(b *testing.B) {
		runBody(b, observeWarm(true, warmBatch))
		reportObsRate(b, warmBatch)
	})
}

// TestWarmWritesAllocateNothingPerObservation holds the */warm rows to
// their point: a 500- and a 2,000-observation write allocate alike.
func TestWarmWritesAllocateNothingPerObservation(t *testing.T) {
	for _, durable := range []bool{false, true} {
		small := countAllocs(observeWarm(durable, 500)(t))
		large := countAllocs(observeWarm(durable, 2000)(t))
		if small != large {
			t.Errorf("durable=%v: %v allocs/op at 500 observations, %v at 2,000", durable, small, large)
		}
	}
}

// observeWarm builds a 4-shard Engine, or a Durable without timed
// fsyncs, fed n drifting objects for three epochs, and returns the next
// timestamp's write: the batch, overwritten in place as a pooled request
// buffer is, and its tick. The operation after the build's is not at an
// epoch boundary, so TestAllocBudgets counts a write and a plain tick.
func observeWarm(durable bool, n int) func(testing.TB) func() {
	return func(tb testing.TB) func() {
		var w interface {
			hotpaths.Reader
			hotpaths.Writer
			Close() error
		}
		var err error
		if durable {
			w, err = hotpaths.OpenDurable(tb.TempDir(), hotpaths.DurableConfig{
				Config: ingestConfig(), Shards: 4, FsyncInterval: -1,
			})
		} else {
			w, err = hotpaths.NewEngine(hotpaths.EngineConfig{Config: ingestConfig(), Shards: 4})
		}
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { w.Close() })
		batch := make([]hotpaths.Observation, n)
		now := int64(0)
		write := func() {
			now++
			for i := range batch {
				// Rows of 50 objects 40 m apart, inside the config's
				// bounds, drifting 1 cm east per timestamp.
				batch[i] = hotpaths.Observation{ObjectID: i, X: float64(i%50)*40 - 1000 + 0.01*float64(now), Y: float64(i/50) * 40, T: now}
			}
			if err := w.ObserveBatchCtx(context.Background(), batch); err != nil {
				tb.Fatal(err)
			}
			if err := w.TickCtx(context.Background(), now); err != nil {
				tb.Fatal(err)
			}
		}
		for now < 30 {
			write()
		}
		if st := w.Stats(); st.Reports != 0 {
			tb.Fatalf("%d reports while warming up: the row would time the filter tier", st.Reports)
		}
		return write
	}
}

// replicationFeed is the handler NewReplicationFeed mounts, but a stream
// that has sent the whole log re-polls it after an hour instead of every
// 25 ms. The log is complete before the follower attaches, so the poll
// changes nothing the benchmark times; at 25 ms its directory reads
// would allocate for as long as the follower takes to apply, tying the
// row's count to the machine's speed (about +1.5% under -race).
func replicationFeed(dir string, dur *hotpaths.Durable) http.Handler {
	rs := &replication.Server{
		Dir: dir,
		Position: func() replication.Status {
			return replication.Status{NextLSN: dur.NextLSN(), Epoch: int64(dur.Stats().Epochs), Clock: dur.Clock()}
		},
		Poll: time.Hour,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+replication.StreamPath, rs.ServeStream)
	mux.HandleFunc("GET "+replication.CheckpointPath, rs.ServeCheckpoint)
	mux.HandleFunc("GET "+replication.MetaPath, rs.ServeMeta)
	return mux
}

// --- Snapshot query path: region scans and top-k over large snapshots ---

// benchSnapshot builds an n-path snapshot of short random paths spread
// over a 16 km square, hotness zipf-ish so sorting and min-hotness cuts
// have realistic shape.
func benchSnapshot(n int) hotpaths.Snapshot {
	rng := rand.New(rand.NewSource(31))
	bounds := hotpaths.Rect{Min: hotpaths.Pt(0, 0), Max: hotpaths.Pt(16000, 16000)}
	paths := make([]hotpaths.HotPath, n)
	for i := range paths {
		sx, sy := rng.Float64()*16000, rng.Float64()*16000
		paths[i] = hotpaths.HotPath{
			ID:      uint64(i),
			Start:   hotpaths.Pt(sx, sy),
			End:     hotpaths.Pt(sx+rng.Float64()*100-50, sy+rng.Float64()*100-50),
			Hotness: 1 + rng.Intn(64)/(1+rng.Intn(8)),
		}
	}
	return hotpaths.SnapshotOf(paths, bounds, 64, 64, 10)
}

// viewports are 64 seeded 200 m windows over benchSnapshot's square.
var viewports = func() []hotpaths.Rect {
	rng := rand.New(rand.NewSource(37))
	vs := make([]hotpaths.Rect, 64)
	for i := range vs {
		lo := hotpaths.Pt(rng.Float64()*15800, rng.Float64()*15800)
		vs[i] = hotpaths.Rect{Min: lo, Max: hotpaths.Pt(lo.X+200, lo.Y+200)}
	}
	return vs
}()

// The i-th query of each BenchmarkSnapshotQuery case.
func topK10(int) hotpaths.Query     { return hotpaths.Query{}.K(10) }
func viewport(i int) hotpaths.Query { return hotpaths.Query{}.Region(viewports[i%len(viewports)]) }
func viewportTopKScore(i int) hotpaths.Query {
	return viewport(i).SortBy(hotpaths.ByScore).K(10)
}

// BenchmarkSnapshotQuery measures the read side of the API: top-k and
// viewport (bbox) queries over 10k/100k-path snapshots. region-linear is
// the brute-force baseline the grid-index range scan must beat; its
// matches/op is also region-grid's.
func BenchmarkSnapshotQuery(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		for _, c := range []struct {
			name  string
			query func(int) hotpaths.Query
		}{{"topk", topK10}, {"region-grid", viewport}, {"region-topk-score", viewportTopKScore}} {
			b.Run(fmt.Sprintf("paths=%d/%s", n, c.name), func(b *testing.B) {
				runBody(b, snapshotQuery(n, c.query))
			})
		}
		b.Run(fmt.Sprintf("paths=%d/region-linear", n), func(b *testing.B) {
			all := benchSnapshot(n).HotPaths()
			b.ResetTimer()
			found := 0
			for i := 0; i < b.N; i++ {
				r := viewports[i%len(viewports)]
				for _, hp := range all {
					if hp.End.X >= r.Min.X && hp.End.X <= r.Max.X &&
						hp.End.Y >= r.Min.Y && hp.End.Y <= r.Max.Y {
						found++
					}
				}
			}
			b.ReportMetric(float64(found)/float64(b.N), "matches/op")
		})
	}
}

// snapshotQuery returns the next query of the sequence on an n-path
// snapshot whose lazy region index is already built.
func snapshotQuery(n int, query func(int) hotpaths.Query) func(testing.TB) func() {
	return func(testing.TB) func() {
		snap := benchSnapshot(n)
		snap.Query(viewport(0))
		i := 0
		return func() {
			benchPaths = snap.Query(query(i))
			i++
		}
	}
}

var benchPaths []hotpaths.HotPath

// BenchmarkSnapshotCold measures a cold read, which BenchmarkSnapshotQuery
// never sees: each iteration takes a fresh Snapshot of a System holding
// ≥10k live paths and runs one query on it — the top-k, a 1 km viewport,
// or every path in order. Only the last needs the whole store sorted.
func BenchmarkSnapshotCold(b *testing.B) {
	for _, c := range []struct {
		name string
		q    hotpaths.Query
	}{
		{"topk", hotpaths.Query{}.K(10)},
		{"region", hotpaths.Query{}.Region(hotpaths.Rect{Min: hotpaths.Pt(0, 1000), Max: hotpaths.Pt(1000, 2000)})},
		{"all", hotpaths.Query{}},
	} {
		b.Run(c.name, func(b *testing.B) {
			runBody(b, snapshotCold(c.q))
		})
	}
}

func snapshotCold(q hotpaths.Query) func(testing.TB) func() {
	return func(tb testing.TB) func() {
		sys := coldSystem(tb)
		return func() {
			if len(sys.Snapshot().Query(q)) == 0 {
				tb.Fatal("empty answer")
			}
		}
	}
}

// coldSystem replays 1,500 walkers over 100 timestamps under a window no
// path outlives, so the System ends with ≥10k live paths, the size of a
// busy daemon's index.
func coldSystem(tb testing.TB) *hotpaths.System {
	cfg := ingestConfig()
	cfg.W = 1000
	sys, err := hotpaths.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	ingest(tb, sys, ingestBatches(1500, 100))
	if n := sys.Snapshot().Len(); n < 10_000 {
		tb.Fatalf("cold system holds %d live paths, want ≥10k", n)
	}
	return sys
}

func reportObsRate(b *testing.B, obsPerIter int) {
	b.Helper()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(obsPerIter*b.N)/sec, "obs/s")
	}
}

// --- Ablation benches: choices the paper leaves open ---

// BenchmarkAblationImai compares the on-line RayTrace segment count against
// the offline anchored greedy on identical single-object inputs.
func BenchmarkAblationImai(b *testing.B) {
	pts := benchWalk(5000, 17)
	const eps = 5.0
	var offline, online int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		offline, err = imai.SegmentCount(pts, eps)
		if err != nil {
			b.Fatal(err)
		}
		f := raytrace.New(pts[0], eps)
		online = 0
		for _, p := range pts[1:] {
			st, report, err := f.Process(p)
			if err != nil {
				b.Fatal(err)
			}
			for report {
				online++
				st, report, err = f.Respond(trajectory.TP(st.FSA.Centroid(), st.Te))
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(offline), "offline-segs")
	b.ReportMetric(float64(online), "online-segs")
}

// BenchmarkAblationGridCell sweeps the coordinator grid resolution.
func BenchmarkAblationGridCell(b *testing.B) {
	for _, cells := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("grid=%dx%d", cells, cells), func(b *testing.B) {
			base, err := experiment.QuickBase(1)
			if err != nil {
				b.Fatal(err)
			}
			base.Duration = 100
			base.RunDP = false
			base.GridCols, base.GridRows = cells, cells
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := simulation.Run(base); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMovementModel quantifies the α-semantics ablation
// (internal/workload's package doc): the literal i.i.d. coin-flip
// realisation of agility versus the traffic-light (bursty) model.
func BenchmarkAblationMovementModel(b *testing.B) {
	for _, model := range []workload.MovementModel{workload.Bursty, workload.IID} {
		b.Run(model.String(), func(b *testing.B) {
			base, err := experiment.QuickBase(1)
			if err != nil {
				b.Fatal(err)
			}
			base.Duration = 100
			base.Model = model
			base.RunDP = false
			var last *simulation.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				last, err = simulation.Run(base)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if last != nil {
				b.ReportMetric(last.AvgIndexSize, "sp-index")
				b.ReportMetric(last.AvgTopKScore, "sp-score")
				b.ReportMetric(float64(last.Comm.UpMessages), "msgs")
			}
		})
	}
}

// BenchmarkAblationDPPolicy compares the two opening-window policies.
func BenchmarkAblationDPPolicy(b *testing.B) {
	for _, pol := range []dp.Policy{dp.NOPW, dp.BOPW} {
		b.Run(pol.String(), func(b *testing.B) {
			base, err := experiment.QuickBase(1)
			if err != nil {
				b.Fatal(err)
			}
			base.Duration = 100
			base.DPPolicy = pol
			var last *simulation.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				last, err = simulation.Run(base)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if last != nil {
				b.ReportMetric(last.AvgDPIndexSize, "dp-index")
				b.ReportMetric(last.AvgDPTopKScore, "dp-score")
			}
		})
	}
}
