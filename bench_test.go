// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation (Section 6), plus micro-benchmarks of every substrate
// and ablation benches for the design choices called out in DESIGN.md.
//
// The figure benches run scaled-down workloads (see experiment.QuickBase)
// so `go test -bench=.` completes in minutes; the cmd/benchfigs tool runs
// the same sweeps at paper scale. Alongside ns/op, each figure bench
// reports the paper's own metrics via b.ReportMetric: index sizes, top-k
// scores and coordinator time, for both SinglePath and the DP benchmark.
package hotpaths_test

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"runtime"
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
	b.Run("table", func(b *testing.B) {
		tab, err := uncertainty.NewTable(0.05, 0.5, 50, 2000)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := tab.MaxOffset(10, 1+float64(i%5)); !ok {
				b.Fatal("table miss")
			}
		}
	})
}

// BenchmarkCoordinatorEpoch measures SinglePath's per-epoch batch cost.
func BenchmarkCoordinatorEpoch(b *testing.B) {
	for _, batch := range []int{100, 1000} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			bounds := geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(10000, 10000)}
			c, err := coordinator.New(coordinator.Config{Bounds: bounds, W: 100, Eps: 10})
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(13))
			now := trajectory.Time(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
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
					b.Fatal(err)
				}
				now += 10
				c.Advance(now)
			}
		})
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

// --- Ingest throughput: single-threaded System vs sharded Engine ---

// ingestBatches precomputes a per-timestamp observation stream: nObjects
// seeded random walkers with occasional sharp turns, so the filter tier
// does real SSA work and periodically reports. It is the same generator
// the Engine/System equivalence test uses (hotpaths.IngestWorkload).
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

// BenchmarkSystemIngest is the single-threaded baseline: the full
// filter+coordinator pipeline driven through hotpaths.System.
func BenchmarkSystemIngest(b *testing.B) {
	const nObjects, horizon = 512, 60
	batches := ingestBatches(nObjects, horizon)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := hotpaths.New(ingestConfig())
		if err != nil {
			b.Fatal(err)
		}
		for _, batch := range batches {
			for _, o := range batch {
				if err := sys.Observe(o.ObjectID, o.X, o.Y, o.T); err != nil {
					b.Fatal(err)
				}
			}
			if err := sys.Tick(batch[0].T); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	reportObsRate(b, nObjects*horizon)
}

// BenchmarkEngineIngest sweeps the shard count over the same workload. At
// 4+ shards on a multi-core machine the sharded filter tier should beat
// the System baseline by >=2x; shards=1 measures the pipeline overhead.
func BenchmarkEngineIngest(b *testing.B) {
	const nObjects, horizon = 512, 60
	batches := ingestBatches(nObjects, horizon)
	counts := []int{1, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 4 {
		counts = append(counts, p)
	}
	for _, shards := range counts {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng, err := hotpaths.NewEngine(hotpaths.EngineConfig{
					Config: ingestConfig(),
					Shards: shards,
				})
				if err != nil {
					b.Fatal(err)
				}
				for _, batch := range batches {
					if err := eng.ObserveBatchCtx(context.Background(), batch); err != nil {
						b.Fatal(err)
					}
					if err := eng.TickCtx(context.Background(), batch[0].T); err != nil {
						b.Fatal(err)
					}
				}
				if err := eng.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportObsRate(b, nObjects*horizon)
		})
	}
}

// --- Durable write path: journaled ingest and crash recovery ---

// BenchmarkWALAppend measures durable ingest: the BenchmarkEngineIngest
// workload pushed through OpenDurable at the default group-commit
// interval, so every observation and tick is journaled before it is
// applied. The acceptance bar for the durability subsystem is >=50% of
// the in-memory Engine's obs/s at the same shard count.
func BenchmarkWALAppend(b *testing.B) {
	const nObjects, horizon = 512, 60
	batches := ingestBatches(nObjects, horizon)
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := b.TempDir() // fresh journal per iteration, not timed
				b.StartTimer()
				dur, err := hotpaths.OpenDurable(dir, hotpaths.DurableConfig{
					Config: ingestConfig(),
					Shards: shards,
				})
				if err != nil {
					b.Fatal(err)
				}
				for _, batch := range batches {
					if err := dur.ObserveBatchCtx(context.Background(), batch); err != nil {
						b.Fatal(err)
					}
					if err := dur.TickCtx(context.Background(), batch[0].T); err != nil {
						b.Fatal(err)
					}
				}
				// The hard durability barrier is part of the measured cost;
				// the final checkpoint Close writes is shutdown cost, not
				// append cost, so it runs off the clock.
				if err := dur.Sync(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := dur.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.StopTimer()
			reportObsRate(b, nObjects*horizon)
		})
	}
}

// BenchmarkRecover measures both recovery paths: "replay" reconstructs
// purely from the WAL (no checkpoint — the worst case), "checkpoint"
// loads the final checkpoint plus an empty tail (the steady-state restart
// cost with default retention).
func BenchmarkRecover(b *testing.B) {
	const nObjects, horizon = 512, 60
	batches := ingestBatches(nObjects, horizon)
	prepare := func(b *testing.B, ckptEvery int64) string {
		b.Helper()
		dir := b.TempDir()
		dur, err := hotpaths.OpenDurable(dir, hotpaths.DurableConfig{
			Config:          ingestConfig(),
			FsyncInterval:   -1,
			CheckpointEvery: ckptEvery,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, batch := range batches {
			if err := dur.ObserveBatchCtx(context.Background(), batch); err != nil {
				b.Fatal(err)
			}
			if err := dur.TickCtx(context.Background(), batch[0].T); err != nil {
				b.Fatal(err)
			}
		}
		if err := dur.Close(); err != nil {
			b.Fatal(err)
		}
		return dir
	}
	// Recover's Engine is started and closed inside the loop: a restart
	// pays for both.
	recoverLoop := func(b *testing.B, dir string) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng, err := hotpaths.Recover(dir)
			if err != nil {
				b.Fatal(err)
			}
			got := eng.Stats().Observations
			if err := eng.Close(); err != nil {
				b.Fatal(err)
			}
			if got != nObjects*horizon {
				b.Fatal("short recovery")
			}
		}
		b.StopTimer()
		reportObsRate(b, nObjects*horizon)
	}
	b.Run("replay", func(b *testing.B) {
		recoverLoop(b, prepare(b, -1)) // no checkpoints: recovery replays every record
	})
	b.Run("checkpoint", func(b *testing.B) {
		recoverLoop(b, prepare(b, 0)) // default cadence + final checkpoint on Close
	})
}

// BenchmarkFollowerReplay measures follower apply throughput: the
// BenchmarkRecover/replay workload, but arriving over a real (loopback)
// replication stream into hotpaths.OpenFollower instead of from local
// disk. The acceptance bar for the replication subsystem is staying
// within 2x of BenchmarkRecover's replay path — the follower pays HTTP
// framing and stream decode on top of the same deterministic replay, and
// batching the applies is what keeps that overhead in budget.
func BenchmarkFollowerReplay(b *testing.B) {
	const nObjects, horizon = 512, 60
	batches := ingestBatches(nObjects, horizon)
	dir := b.TempDir()
	dur, err := hotpaths.OpenDurable(dir, hotpaths.DurableConfig{
		Config:          ingestConfig(),
		FsyncInterval:   -1,
		CheckpointEvery: -1, // no checkpoints: the follower replays every record
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, batch := range batches {
		if err := dur.ObserveBatchCtx(context.Background(), batch); err != nil {
			b.Fatal(err)
		}
		if err := dur.TickCtx(context.Background(), batch[0].T); err != nil {
			b.Fatal(err)
		}
	}
	if err := dur.Sync(); err != nil {
		b.Fatal(err)
	}
	defer dur.Close()
	srv := httptest.NewServer(hotpaths.NewReplicationFeed(dur, nil))
	defer srv.Close()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := hotpaths.OpenFollower(srv.URL, hotpaths.FollowerConfig{})
		if err != nil {
			b.Fatal(err)
		}
		for f.Replication().AppliedLSN < dur.NextLSN() {
			time.Sleep(200 * time.Microsecond)
		}
		b.StopTimer()
		// Verification (an O(paths) snapshot) and teardown run off-clock;
		// the timed section is bootstrap + stream + apply only.
		if got := f.Snapshot().Stats().Observations; got != nObjects*horizon {
			b.Fatalf("follower replayed %d observations, want %d", got, nObjects*horizon)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	reportObsRate(b, nObjects*horizon)
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

// BenchmarkSnapshotQuery measures the read side of the API: top-k and
// viewport (bbox) queries over 10k/100k-path snapshots. region-linear is
// the brute-force baseline the grid-index range scan must beat.
func BenchmarkSnapshotQuery(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		snap := benchSnapshot(n)
		rng := rand.New(rand.NewSource(37))
		viewports := make([]hotpaths.Rect, 64)
		for i := range viewports {
			lo := hotpaths.Pt(rng.Float64()*15800, rng.Float64()*15800)
			viewports[i] = hotpaths.Rect{Min: lo, Max: hotpaths.Pt(lo.X+200, lo.Y+200)}
		}
		// Warm the lazy region index outside the timed sections.
		snap.Query(hotpaths.Query{}.Region(viewports[0]))
		all := snap.HotPaths()

		b.Run(fmt.Sprintf("paths=%d/topk", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got := snap.Query(hotpaths.Query{}.K(10)); len(got) != 10 {
					b.Fatalf("topk returned %d", len(got))
				}
			}
		})
		b.Run(fmt.Sprintf("paths=%d/region-grid", n), func(b *testing.B) {
			found := 0
			for i := 0; i < b.N; i++ {
				found += len(snap.Query(hotpaths.Query{}.Region(viewports[i%len(viewports)])))
			}
			reportMatchRate(b, found)
		})
		b.Run(fmt.Sprintf("paths=%d/region-linear", n), func(b *testing.B) {
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
			reportMatchRate(b, found)
		})
		b.Run(fmt.Sprintf("paths=%d/region-topk-score", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				snap.Query(hotpaths.Query{}.
					Region(viewports[i%len(viewports)]).
					SortBy(hotpaths.ByScore).
					K(10))
			}
		})
	}
}

// BenchmarkSnapshotCold measures a cold read, which BenchmarkSnapshotQuery
// never sees: each iteration takes a fresh Snapshot of a System holding
// ≥10k live paths and runs one query on it — the top-k, a 1 km viewport,
// or every path in order. Only the last needs the whole store sorted.
func BenchmarkSnapshotCold(b *testing.B) {
	sys := coldSystem(b)
	for _, c := range []struct {
		name string
		q    hotpaths.Query
	}{
		{"topk", hotpaths.Query{}.K(10)},
		{"region", hotpaths.Query{}.Region(hotpaths.Rect{Min: hotpaths.Pt(0, 1000), Max: hotpaths.Pt(1000, 2000)})},
		{"all", hotpaths.Query{}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(sys.Snapshot().Query(c.q)) == 0 {
					b.Fatal("empty answer")
				}
			}
		})
	}
}

// coldSystem replays 1,500 walkers over 100 timestamps under a window no
// path outlives, so the System ends with ≥10k live paths, the size of a
// busy daemon's index. internal/bench's snapshot_cold_topk mirrors it.
func coldSystem(b *testing.B) *hotpaths.System {
	cfg := ingestConfig()
	cfg.W = 1000
	sys, err := hotpaths.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, batch := range ingestBatches(1500, 100) {
		for _, o := range batch {
			if err := sys.Observe(o.ObjectID, o.X, o.Y, o.T); err != nil {
				b.Fatal(err)
			}
		}
		if err := sys.Tick(batch[0].T); err != nil {
			b.Fatal(err)
		}
	}
	if n := sys.Snapshot().Len(); n < 10_000 {
		b.Fatalf("cold system holds %d live paths, want ≥10k", n)
	}
	return sys
}

func reportMatchRate(b *testing.B, found int) {
	b.Helper()
	b.ReportMetric(float64(found)/float64(b.N), "matches/op")
}

func reportObsRate(b *testing.B, obsPerIter int) {
	b.Helper()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(obsPerIter*b.N)/sec, "obs/s")
	}
}

// --- Ablation benches (DESIGN.md Section 5) ---

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
// discussed in DESIGN.md/EXPERIMENTS.md: the literal i.i.d. coin-flip
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
