package simulation

import (
	"testing"

	"hotpaths/internal/roadnet"
	"hotpaths/internal/trajectory"
)

// smallConfig returns a laptop-fast configuration over a small network.
func smallConfig(t *testing.T) Config {
	t.Helper()
	net, err := roadnet.Generate(roadnet.GenConfig{
		GridCols: 8, GridRows: 8, Size: 2000, Jitter: 0.2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Net:      net,
		N:        200,
		Eps:      10,
		Err:      1,
		Agility:  0.5,
		Step:     10,
		W:        100,
		Epoch:    10,
		Duration: 120,
		K:        10,
		Seed:     5,
	}
}

func TestRunRequiresNetwork(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("nil network must error")
	}
}

func TestApplyDefaults(t *testing.T) {
	var c Config
	c.ApplyDefaults()
	if c.N != 20000 || c.Eps != 10 || c.Err != 1 || c.Agility != 0.1 ||
		c.Step != 10 || c.W != 100 || c.Epoch != 10 || c.Duration != 250 || c.K != 10 {
		t.Errorf("defaults = %+v", c)
	}
}

func TestRunProducesPaths(t *testing.T) {
	res, err := Run(smallConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerEpoch) != 12 {
		t.Errorf("epochs = %d want 12", len(res.PerEpoch))
	}
	if len(res.AllPaths) == 0 {
		t.Error("no motion paths discovered")
	}
	if len(res.TopK) == 0 || len(res.TopK) > 10 {
		t.Errorf("topk size = %d", len(res.TopK))
	}
	if res.AvgIndexSize <= 0 {
		t.Error("avg index size must be positive")
	}
	if res.Comm.UpMessages == 0 || res.Comm.DownMessages == 0 {
		t.Errorf("communication counters empty: %+v", res.Comm)
	}
	bounds := res.Config.Net.Bounds().Expand(res.Config.Eps * 4)
	if err := res.VerifyTopKWithin(bounds); err != nil {
		t.Error(err)
	}
	// Top-k must be sorted by hotness descending.
	for i := 1; i < len(res.TopK); i++ {
		if res.TopK[i].Hotness > res.TopK[i-1].Hotness {
			t.Error("topk not sorted")
		}
	}
}

func TestRayTraceSavesCommunication(t *testing.T) {
	res, err := Run(smallConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Comm.UpMessages >= res.Comm.Measurements {
		t.Errorf("filtering sent %d messages for %d measurements; expected substantial suppression",
			res.Comm.UpMessages, res.Comm.Measurements)
	}
	if ratio := res.CompressionRatio(); ratio < 1.5 {
		t.Errorf("compression ratio = %v, expected > 1.5", ratio)
	}
}

func TestRunWithDPBaseline(t *testing.T) {
	cfg := smallConfig(t)
	cfg.RunDP = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DPAll) == 0 {
		t.Error("DP produced no segments")
	}
	if res.AvgDPIndexSize <= 0 {
		t.Error("DP avg index size must be positive")
	}
	last := res.PerEpoch[len(res.PerEpoch)-1]
	if last.DPIndexSize == 0 {
		t.Error("DP per-epoch stats missing")
	}
}

func TestDeterministicRuns(t *testing.T) {
	cfg := smallConfig(t)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Comm != b.Comm {
		t.Errorf("comm differs: %+v vs %+v", a.Comm, b.Comm)
	}
	if len(a.AllPaths) != len(b.AllPaths) {
		t.Errorf("path counts differ: %d vs %d", len(a.AllPaths), len(b.AllPaths))
	}
	for i := range a.PerEpoch {
		if a.PerEpoch[i].IndexSize != b.PerEpoch[i].IndexSize ||
			a.PerEpoch[i].TopKScore != b.PerEpoch[i].TopKScore {
			t.Fatalf("epoch %d differs", i)
		}
	}
}

func TestWindowBoundsIndexSize(t *testing.T) {
	// With a short window, old paths must expire: index size late in the
	// run should not keep growing linearly with time.
	cfg := smallConfig(t)
	cfg.Duration = 200
	cfg.W = 40
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mid := res.PerEpoch[len(res.PerEpoch)/2].IndexSize
	last := res.PerEpoch[len(res.PerEpoch)-1].IndexSize
	if mid == 0 {
		t.Skip("no paths at mid-run")
	}
	if float64(last) > 3*float64(mid) {
		t.Errorf("index size grows unboundedly: mid=%d last=%d", mid, last)
	}
}

func TestLargerToleranceFewerReports(t *testing.T) {
	small := smallConfig(t)
	small.Eps = 2
	large := smallConfig(t)
	large.Eps = 25
	rs, err := Run(small)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := Run(large)
	if err != nil {
		t.Fatal(err)
	}
	if rl.Comm.UpMessages >= rs.Comm.UpMessages {
		t.Errorf("eps=25 sent %d messages vs eps=2's %d; larger tolerance must suppress more",
			rl.Comm.UpMessages, rs.Comm.UpMessages)
	}
}

func TestHotnessConservation(t *testing.T) {
	// Total hotness in the window equals crossings minus expiries.
	res, err := Run(smallConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, hp := range res.AllPaths {
		total += hp.Hotness
	}
	if total <= 0 {
		t.Fatal("no live hotness at end of run")
	}
	if total > res.Stats.Crossings {
		t.Errorf("live hotness %d exceeds total crossings %d", total, res.Stats.Crossings)
	}
}

func TestEpochCadence(t *testing.T) {
	cfg := smallConfig(t)
	cfg.Duration = 95 // not a multiple of the epoch
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerEpoch) != 9 {
		t.Errorf("epochs = %d want 9 (t=10..90)", len(res.PerEpoch))
	}
	for i, e := range res.PerEpoch {
		if e.Now != trajectory.Time((i+1)*10) {
			t.Errorf("epoch %d at t=%d", i, e.Now)
		}
	}
}

func TestCaseMixCoversEveryReport(t *testing.T) {
	// Every processed report takes exactly one branch of SinglePath.
	res, err := Run(smallConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	reports := 0
	for _, e := range res.PerEpoch {
		if got := e.Case1 + e.Case2 + e.Case3; got != e.Reports {
			t.Errorf("epoch %d: cases sum to %d, %d reports", e.Epoch, got, e.Reports)
		}
		reports += e.Reports
	}
	st := res.Stats
	if got := st.Case1 + st.Case2 + st.Case3; got != reports {
		t.Errorf("Case1+Case2+Case3 = %d, Σ PerEpoch.Reports = %d", got, reports)
	}
	if st.Case1 == 0 || st.Case3 == 0 {
		t.Errorf("case mix too tame to be meaningful: %+v", st)
	}
}
