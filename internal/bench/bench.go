// Package bench runs the core benchmark suite outside `go test` and
// records the results as one point on the repository's bench trajectory.
//
// The suite mirrors the hot-path benchmarks in bench_test.go — ingest
// through System and Engine, durable ingest through the WAL, both crash
// recovery paths, follower replay over a loopback replication stream,
// and the snapshot query tier — driving the exact same workload
// generator (hotpaths.IngestWorkload / hotpaths.NewBenchSnapshot), so a
// point emitted by `hotpaths bench` is comparable to `go test -bench`
// output and, more importantly, to the previous checked-in point.
// Compare gates CI on that comparison.
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"hotpaths"
	"hotpaths/internal/flightrec"
)

// Point is one benchmark's measurement.
type Point struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	ObsPerSec   float64 `json:"obs_per_sec,omitempty"`
}

// Report is a full suite run plus enough environment to judge whether
// two points are comparable at all.
type Report struct {
	GoVersion string  `json:"go_version"`
	GOOS      string  `json:"goos"`
	GOARCH    string  `json:"goarch"`
	CPUs      int     `json:"cpus"`
	Points    []Point `json:"points"`
}

// The ingest benches replay the same scaled workload as bench_test.go:
// 512 objects over a 60-timestamp horizon, seed 21.
const (
	nObjects = 512
	horizon  = 60
	seed     = 21
)

func config() hotpaths.Config {
	return hotpaths.Config{
		Eps:    5,
		W:      100,
		Epoch:  10,
		K:      10,
		Bounds: hotpaths.Rect{Min: hotpaths.Pt(-3000, -3000), Max: hotpaths.Pt(4000, 4000)},
	}
}

// A benchCase couples a name with a function driven by testing.Benchmark.
// The function reports setup/verification failures through the returned
// error captured by the closure, not b.Fatal, because testing.Benchmark
// has no harness to surface a failure — it would silently yield a
// zero-iteration result.
type benchCase struct {
	name       string
	obsPerIter int // when >0, ObsPerSec is derived from ns/op
	run        func(b *testing.B) error
}

func cases() []benchCase {
	batches := hotpaths.IngestWorkload(nObjects, horizon, seed)
	ingested := nObjects * horizon

	cs := []benchCase{
		{"system_ingest", ingested, func(b *testing.B) error {
			for i := 0; i < b.N; i++ {
				sys, err := hotpaths.New(config())
				if err != nil {
					return err
				}
				for _, batch := range batches {
					for _, o := range batch {
						if err := sys.Observe(o.ObjectID, o.X, o.Y, o.T); err != nil {
							return err
						}
					}
					if err := sys.Tick(batch[0].T); err != nil {
						return err
					}
				}
			}
			return nil
		}},

		{"engine_ingest", ingested, func(b *testing.B) error {
			for i := 0; i < b.N; i++ {
				eng, err := hotpaths.NewEngine(hotpaths.EngineConfig{Config: config()})
				if err != nil {
					return err
				}
				for _, batch := range batches {
					if err := eng.ObserveBatchCtx(context.Background(), batch); err != nil {
						return err
					}
					if err := eng.TickCtx(context.Background(), batch[0].T); err != nil {
						return err
					}
				}
				if err := eng.Close(); err != nil {
					return err
				}
			}
			return nil
		}},

		{"wal_append", ingested, func(b *testing.B) error {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir, err := os.MkdirTemp("", "hotpaths-bench-")
				if err != nil {
					return err
				}
				b.StartTimer()
				dur, err := hotpaths.OpenDurable(dir, hotpaths.DurableConfig{Config: config()})
				if err != nil {
					return err
				}
				for _, batch := range batches {
					if err := dur.ObserveBatchCtx(context.Background(), batch); err != nil {
						return err
					}
					if err := dur.TickCtx(context.Background(), batch[0].T); err != nil {
						return err
					}
				}
				if err := dur.Sync(); err != nil {
					return err
				}
				b.StopTimer()
				if err := dur.Close(); err != nil {
					return err
				}
				os.RemoveAll(dir)
				b.StartTimer()
			}
			return nil
		}},

		{"recover_replay", ingested, recoverCase(batches, -1)},
		{"recover_checkpoint", ingested, recoverCase(batches, 0)},

		{"follower_replay", ingested, func(b *testing.B) error {
			dir, err := os.MkdirTemp("", "hotpaths-bench-")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			dur, err := hotpaths.OpenDurable(dir, hotpaths.DurableConfig{
				Config:          config(),
				FsyncInterval:   -1,
				CheckpointEvery: -1,
			})
			if err != nil {
				return err
			}
			defer dur.Close()
			for _, batch := range batches {
				if err := dur.ObserveBatchCtx(context.Background(), batch); err != nil {
					return err
				}
				if err := dur.TickCtx(context.Background(), batch[0].T); err != nil {
					return err
				}
			}
			if err := dur.Sync(); err != nil {
				return err
			}
			srv := httptest.NewServer(hotpaths.NewReplicationFeed(dur, nil))
			defer srv.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, err := hotpaths.OpenFollower(srv.URL, hotpaths.FollowerConfig{})
				if err != nil {
					return err
				}
				for f.Replication().AppliedLSN < dur.NextLSN() {
					time.Sleep(200 * time.Microsecond)
				}
				b.StopTimer()
				if got := f.Snapshot().Stats().Observations; got != nObjects*horizon {
					f.Close()
					return fmt.Errorf("follower replayed %d observations, want %d", got, nObjects*horizon)
				}
				if err := f.Close(); err != nil {
					return err
				}
				b.StartTimer()
			}
			return nil
		}},

		{"flightrec_record", 0, func(b *testing.B) error {
			// The flight recorder sits on the WAL rotation, epoch barrier,
			// and prober paths; this point bounds the cost of one Record so
			// the ingest benches above (which run with the recorder live, as
			// production does) can attribute any drift.
			rec := flightrec.New(1024)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec.Record(flightrec.EvEpochBarrier,
					flightrec.KV("epoch", "12"),
					flightrec.KV("clock", "120"),
					flightrec.KV("paths", "64"))
			}
			if got := len(rec.Snapshot("", time.Time{}, 0)); got == 0 {
				return fmt.Errorf("recorder ring empty after %d records", b.N)
			}
			return nil
		}},

		{"snapshot_query_topk", 0, func(b *testing.B) error {
			snap := benchSnapshot(10_000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := snap.Query(hotpaths.Query{}.K(10)); len(got) != 10 {
					return fmt.Errorf("topk returned %d paths, want 10", len(got))
				}
			}
			return nil
		}},

		{"snapshot_query_region", 0, func(b *testing.B) error {
			snap := benchSnapshot(10_000)
			viewports := benchViewports()
			snap.Query(hotpaths.Query{}.Region(viewports[0])) // warm the lazy index
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				snap.Query(hotpaths.Query{}.Region(viewports[i%len(viewports)]))
			}
			return nil
		}},
	}
	return append(cs, gatewayCases()...)
}

func recoverCase(batches [][]hotpaths.Observation, ckptEvery int64) func(b *testing.B) error {
	return func(b *testing.B) error {
		dir, err := os.MkdirTemp("", "hotpaths-bench-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		dur, err := hotpaths.OpenDurable(dir, hotpaths.DurableConfig{
			Config:          config(),
			FsyncInterval:   -1,
			CheckpointEvery: ckptEvery,
		})
		if err != nil {
			return err
		}
		for _, batch := range batches {
			if err := dur.ObserveBatchCtx(context.Background(), batch); err != nil {
				return err
			}
			if err := dur.TickCtx(context.Background(), batch[0].T); err != nil {
				return err
			}
		}
		if err := dur.Close(); err != nil {
			return err
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng, err := hotpaths.Recover(dir)
			if err != nil {
				return err
			}
			got := eng.Stats().Observations
			if err := eng.Close(); err != nil {
				return err
			}
			if got != nObjects*horizon {
				return fmt.Errorf("recovered %d observations, want %d", got, nObjects*horizon)
			}
		}
		return nil
	}
}

// benchSnapshot mirrors bench_test.go's generator: n short paths over a
// 16 km square with zipf-ish hotness, deterministic under seed 31.
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
	return hotpaths.NewBenchSnapshot(paths, bounds, 64, 64, 10)
}

func benchViewports() []hotpaths.Rect {
	rng := rand.New(rand.NewSource(37))
	viewports := make([]hotpaths.Rect, 64)
	for i := range viewports {
		lo := hotpaths.Pt(rng.Float64()*15800, rng.Float64()*15800)
		viewports[i] = hotpaths.Rect{Min: lo, Max: hotpaths.Pt(lo.X+200, lo.Y+200)}
	}
	return viewports
}

// Run executes the suite and assembles the trajectory point. An empty
// filter runs everything; otherwise only the named benches run. Progress
// goes to stderr so stdout can stay machine-readable.
func Run(filter []string, verbose bool) (Report, error) {
	want := make(map[string]bool, len(filter))
	for _, name := range filter {
		want[name] = true
	}
	rep := Report{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.GOMAXPROCS(0),
	}
	for _, c := range cases() {
		if len(want) > 0 && !want[c.name] {
			continue
		}
		var runErr error
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			if err := c.run(b); err != nil && runErr == nil {
				runErr = err
			}
		})
		if runErr != nil {
			return rep, fmt.Errorf("%s: %w", c.name, runErr)
		}
		if res.N == 0 {
			return rep, fmt.Errorf("%s: benchmark did not run", c.name)
		}
		p := Point{
			Name:        c.name,
			Iterations:  res.N,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		}
		if c.obsPerIter > 0 && p.NsPerOp > 0 {
			p.ObsPerSec = float64(c.obsPerIter) / (p.NsPerOp / 1e9)
		}
		rep.Points = append(rep.Points, p)
		if verbose {
			fmt.Fprintf(os.Stderr, "%-24s %10d ns/op %12.0f obs/s %8d B/op %6d allocs/op\n",
				c.name, int64(p.NsPerOp), p.ObsPerSec, p.BytesPerOp, p.AllocsPerOp)
		}
	}
	sort.Slice(rep.Points, func(i, j int) bool { return rep.Points[i].Name < rep.Points[j].Name })
	return rep, nil
}

// Names lists every bench in the suite, for -list and error messages.
func Names() []string {
	cs := cases()
	names := make([]string, len(cs))
	for i, c := range cs {
		names[i] = c.name
	}
	return names
}

// Load reads a previously written report.
func Load(path string) (Report, error) {
	var rep Report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// WriteFile serialises the report as indented JSON, newline-terminated
// so the artifact diffs cleanly in git.
func (r Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Compare checks current against baseline and returns one line per
// regression: a bench whose ns/op grew by more than maxRegress (0.25 =
// 25%). Benches present on only one side are noted but never fail the
// gate — the suite is allowed to grow. Throughput jitter on shared CI
// runners is why the gate is deliberately loose.
func Compare(baseline, current Report, maxRegress float64) (regressions, notes []string) {
	base := make(map[string]Point, len(baseline.Points))
	for _, p := range baseline.Points {
		base[p.Name] = p
	}
	seen := make(map[string]bool, len(current.Points))
	for _, p := range current.Points {
		seen[p.Name] = true
		bp, ok := base[p.Name]
		if !ok {
			notes = append(notes, fmt.Sprintf("%s: new bench, no baseline", p.Name))
			continue
		}
		if bp.NsPerOp <= 0 {
			continue
		}
		ratio := p.NsPerOp / bp.NsPerOp
		if ratio > 1+maxRegress {
			regressions = append(regressions, fmt.Sprintf(
				"%s: %.0f ns/op vs baseline %.0f ns/op (%+.1f%%, limit %+.0f%%)",
				p.Name, p.NsPerOp, bp.NsPerOp, (ratio-1)*100, maxRegress*100))
		}
	}
	for _, p := range baseline.Points {
		if !seen[p.Name] {
			notes = append(notes, fmt.Sprintf("%s: in baseline but not run", p.Name))
		}
	}
	return regressions, notes
}
