package simulation_test

import (
	"reflect"
	"testing"

	"hotpaths"
	"hotpaths/internal/experiment"
	"hotpaths/internal/simulation"
	"hotpaths/internal/trajectory"
	"hotpaths/internal/workload"
)

// The evaluation's numbers are the shipped pipeline's: Run's final paths
// and counters equal a plain System fed the same measurement stream. The
// configuration is one where a private filter → epoch → SinglePath loop
// that skips System.Tick's post-epoch expiry keeps stale paths alive.
func TestRunMatchesSystemReplay(t *testing.T) {
	cfg, err := experiment.QuickBase(21)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Eps = 2.5
	cfg.RunDP = false
	res, err := simulation.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	world, err := workload.New(cfg.Net, workload.Config{
		N: cfg.N, Agility: cfg.Agility, Step: cfg.Step, Err: cfg.Err,
		Seed: cfg.Seed, Model: cfg.Model, StopProb: cfg.StopProb,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := cfg.Net.Bounds().Expand(2 * cfg.Eps)
	sys, err := hotpaths.New(hotpaths.Config{
		Eps: cfg.Eps, W: int64(cfg.W), Epoch: int64(cfg.Epoch), K: cfg.K,
		Bounds:   hotpaths.Rect{Min: hotpaths.Pt(b.Lo.X, b.Lo.Y), Max: hotpaths.Pt(b.Hi.X, b.Hi.Y)},
		GridCols: cfg.GridCols, GridRows: cfg.GridRows,
	})
	if err != nil {
		t.Fatal(err)
	}
	for now := trajectory.Time(1); now <= cfg.Duration; now++ {
		for _, m := range world.Tick(now) {
			if err := sys.Observe(m.ObjectID, m.TP.P.X, m.TP.P.Y, int64(m.TP.T)); err != nil {
				t.Fatal(err)
			}
		}
		if err := sys.Tick(int64(now)); err != nil {
			t.Fatal(err)
		}
	}

	if got, want := res.Stats, sys.Stats(); got != want {
		t.Errorf("Result.Stats = %+v\nSystem.Stats() = %+v", got, want)
	}
	want := sys.HotPaths()
	if len(res.AllPaths) != len(want) {
		t.Fatalf("Result.AllPaths has %d paths, System.HotPaths() %d", len(res.AllPaths), len(want))
	}
	got := make([]hotpaths.HotPath, len(res.AllPaths))
	for i, hp := range res.AllPaths {
		got[i] = hotpaths.HotPath{
			ID:      uint64(hp.Path.ID),
			Start:   hotpaths.Pt(hp.Path.S.X, hp.Path.S.Y),
			End:     hotpaths.Pt(hp.Path.E.X, hp.Path.E.Y),
			Hotness: hp.Hotness,
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("Result.AllPaths differs from System.HotPaths()")
	}
}
