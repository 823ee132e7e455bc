// Package simulation drives the paper's evaluation setting (Section 3.2)
// through hotpaths.System: N moving objects stream noisy measurements over
// a road network into one System, which runs the RayTrace filters, answers
// the reports at epoch boundaries (every Λ timestamps) with SinglePath and
// keeps the hotness window. The harness only generates the stream and
// reads the per-epoch figures back from the System's counters and
// snapshots, so the numbers it reports are the shipped pipeline's.
//
// The harness also runs the paper's DP benchmark (opening-window
// Douglas-Peucker + hot-segment store) on the same measurement stream when
// enabled, so every experiment reports both methods under identical input.
// Message and byte counts account the communication the distributed setting
// would incur; the naive upload volume (every measurement shipped) is
// tracked alongside for the communication-savings ablation.
package simulation

import (
	"fmt"
	"time"

	"hotpaths"
	"hotpaths/internal/dp"
	"hotpaths/internal/geom"
	"hotpaths/internal/motion"
	"hotpaths/internal/raytrace"
	"hotpaths/internal/roadnet"
	"hotpaths/internal/trajectory"
	"hotpaths/internal/workload"
)

// Config collects all experiment parameters; zero fields take the paper's
// defaults (Table 2) via ApplyDefaults.
type Config struct {
	Net *roadnet.Network // road network (required)

	N       int     // objects
	Eps     float64 // tolerance ε, metres
	Err     float64 // positional noise, metres
	Agility float64 // α
	Step    float64 // displacement s, metres
	// Model selects the movement realisation of α: workload.Bursty
	// (default; traffic lights at crossroads) or workload.IID (the paper's
	// literal per-timestamp coin flip). See the workload package.
	Model workload.MovementModel
	// StopProb is the red-light probability for the Bursty model.
	StopProb float64

	W        trajectory.Time // sliding window length, timestamps
	Epoch    trajectory.Time // epoch length Λ, timestamps
	Duration trajectory.Time // simulation length, timestamps
	K        int             // top-k

	Seed int64

	GridCols, GridRows int // coordinator grid resolution

	RunDP    bool      // run the DP benchmark alongside
	DPPolicy dp.Policy // opening-window policy for DP
}

// ApplyDefaults fills zero fields with the paper's Table 2 defaults.
func (c *Config) ApplyDefaults() {
	if c.N == 0 {
		c.N = 20000
	}
	if c.Eps == 0 {
		c.Eps = 10
	}
	if c.Err == 0 {
		c.Err = 1
	}
	if c.Agility == 0 {
		c.Agility = 0.1
	}
	if c.Step == 0 {
		c.Step = 10
	}
	if c.W == 0 {
		c.W = 100
	}
	if c.Epoch == 0 {
		c.Epoch = 10
	}
	if c.Duration == 0 {
		c.Duration = 250
	}
	if c.K == 0 {
		c.K = 10
	}
	if c.GridCols == 0 {
		c.GridCols = 64
	}
	if c.GridRows == 0 {
		c.GridRows = 64
	}
}

// EpochStats are the per-epoch metrics the paper's evaluation plots.
type EpochStats struct {
	Epoch     int
	Now       trajectory.Time
	Reports   int     // state messages processed this epoch
	Responses int     // responses sent
	IndexSize int     // motion paths stored after processing
	TopKScore float64 // avg hotness×length of the top-k set
	// ProcTime is the wall time of the boundary Tick: SinglePath plus
	// delivering the responses to the filters.
	ProcTime            time.Duration
	Case1, Case2, Case3 int     // this epoch's reports per SinglePath case
	DPIndexSize         int     // DP segments stored (if RunDP)
	DPTopKScore         float64 // DP top-k score (if RunDP)
}

// Comm tallies communication volume.
type Comm struct {
	UpMessages   int // state messages objects→coordinator
	UpBytes      int64
	DownMessages int // responses coordinator→objects
	DownBytes    int64
	Measurements int   // total measurements taken (naive up-messages)
	NaiveUpBytes int64 // bytes the naive ship-everything scheme would use
}

// Result aggregates a complete run.
type Result struct {
	Config   Config
	PerEpoch []EpochStats
	Comm     Comm
	TopK     []motion.HotPath // final top-k set
	AllPaths []motion.HotPath // all live paths at the end
	DPTopK   []motion.HotPath
	DPAll    []motion.HotPath
	Stats    hotpaths.Stats // the System's counters at the end

	// Averages per epoch (the paper's reported quantities).
	AvgIndexSize   float64
	AvgTopKScore   float64
	AvgProcTime    time.Duration
	AvgDPIndexSize float64
	AvgDPTopKScore float64
}

// measurementBytes is the naive per-measurement wire size: a point plus a
// timestamp.
const measurementBytes = 2*8 + 8

// Run executes the simulation and returns the collected metrics.
func Run(cfg Config) (*Result, error) {
	if cfg.Net == nil {
		return nil, fmt.Errorf("simulation: Config.Net is required")
	}
	cfg.ApplyDefaults()

	world, err := workload.New(cfg.Net, workload.Config{
		N:        cfg.N,
		Agility:  cfg.Agility,
		Step:     cfg.Step,
		Err:      cfg.Err,
		Seed:     cfg.Seed,
		Model:    cfg.Model,
		StopProb: cfg.StopProb,
	})
	if err != nil {
		return nil, err
	}
	b := cfg.Net.Bounds().Expand(cfg.Eps * 2)
	sys, err := hotpaths.New(hotpaths.Config{
		Eps:      cfg.Eps,
		W:        int64(cfg.W),
		Epoch:    int64(cfg.Epoch),
		K:        cfg.K,
		Bounds:   hotpaths.Rect{Min: hotpaths.Pt(b.Lo.X, b.Lo.Y), Max: hotpaths.Pt(b.Hi.X, b.Hi.Y)},
		GridCols: cfg.GridCols,
		GridRows: cfg.GridRows,
	})
	if err != nil {
		return nil, err
	}

	var dpWins []*dp.OpeningWindow
	var dpStore *dp.HotSegments
	if cfg.RunDP {
		dpWins = make([]*dp.OpeningWindow, cfg.N)
		dpStore, err = dp.NewHotSegments(cfg.Eps, cfg.W)
		if err != nil {
			return nil, err
		}
	}

	res := &Result{Config: cfg}
	// batched is Stats().Reports just before the previous boundary's Tick:
	// everything raised since joins the next batch, including the reports
	// that boundary's own responses raised.
	batched := 0
	for now := trajectory.Time(1); now <= cfg.Duration; now++ {
		for _, m := range world.Tick(now) {
			if err := sys.Observe(m.ObjectID, m.TP.P.X, m.TP.P.Y, int64(m.TP.T)); err != nil {
				return nil, fmt.Errorf("t=%d: %w", now, err)
			}
			if !cfg.RunDP {
				continue
			}
			if dpWins[m.ObjectID] == nil {
				dpWins[m.ObjectID], err = dp.NewOpeningWindow(cfg.Eps, cfg.DPPolicy)
				if err != nil {
					return nil, err
				}
			}
			ems, err := dpWins[m.ObjectID].Process(m.TP)
			if err != nil {
				return nil, fmt.Errorf("dp object %d at t=%d: %w", m.ObjectID, now, err)
			}
			for _, em := range ems {
				dpStore.Offer(em.Seg, em.Te)
			}
		}
		if cfg.RunDP {
			dpStore.Advance(now)
		}

		before := sys.Stats()
		start := time.Now()
		if err := sys.Tick(int64(now)); err != nil {
			return nil, fmt.Errorf("t=%d: %w", now, err)
		}
		procTime := time.Since(start)
		after := sys.Stats()
		if after.Epochs == before.Epochs {
			continue
		}
		es := EpochStats{
			Epoch:     len(res.PerEpoch) + 1,
			Now:       now,
			Reports:   before.Reports - batched,
			Responses: after.Responses - before.Responses,
			IndexSize: after.IndexSize,
			TopKScore: sys.Snapshot().Score(),
			ProcTime:  procTime,
			Case1:     after.Case1 - before.Case1,
			Case2:     after.Case2 - before.Case2,
			Case3:     after.Case3 - before.Case3,
		}
		batched = before.Reports
		if cfg.RunDP {
			es.DPIndexSize = dpStore.IndexSize()
			es.DPTopKScore = dpStore.Score(cfg.K)
		}
		res.PerEpoch = append(res.PerEpoch, es)
	}

	snap := sys.Snapshot()
	res.AllPaths = motionPaths(snap.HotPaths()) // hottest first
	res.TopK = res.AllPaths[:min(cfg.K, len(res.AllPaths))]
	res.Stats = snap.Stats()
	res.Comm = Comm{
		UpMessages:   res.Stats.Reports,
		UpBytes:      int64(res.Stats.Reports) * raytrace.StateBytes,
		DownMessages: res.Stats.Responses,
		DownBytes:    int64(res.Stats.Responses) * raytrace.ResponseBytes,
		Measurements: res.Stats.Observations,
		NaiveUpBytes: int64(res.Stats.Observations) * measurementBytes,
	}
	if cfg.RunDP {
		res.DPTopK = dpStore.TopK(cfg.K)
		res.DPAll = dpStore.TopK(0)
	}
	res.computeAverages()
	return res, nil
}

// motionPaths converts the System's hot paths to the internal form the
// SVG and GeoJSON renderers take.
func motionPaths(in []hotpaths.HotPath) []motion.HotPath {
	out := make([]motion.HotPath, len(in))
	for i, hp := range in {
		p := motion.Path{ID: motion.PathID(hp.ID), S: geom.Pt(hp.Start.X, hp.Start.Y), E: geom.Pt(hp.End.X, hp.End.Y)}
		out[i] = motion.HotPath{Path: p, Hotness: hp.Hotness}
	}
	return out
}

func (r *Result) computeAverages() {
	n := len(r.PerEpoch)
	if n == 0 {
		return
	}
	var size, score, dpSize, dpScore float64
	var proc time.Duration
	for _, e := range r.PerEpoch {
		size += float64(e.IndexSize)
		score += e.TopKScore
		proc += e.ProcTime
		dpSize += float64(e.DPIndexSize)
		dpScore += e.DPTopKScore
	}
	fn := float64(n)
	r.AvgIndexSize = size / fn
	r.AvgTopKScore = score / fn
	r.AvgProcTime = proc / time.Duration(n)
	r.AvgDPIndexSize = dpSize / fn
	r.AvgDPTopKScore = dpScore / fn
}

// CompressionRatio returns naive bytes divided by filtered up-bytes; higher
// is better. It returns 0 when nothing was sent.
func (r *Result) CompressionRatio() float64 {
	if r.Comm.UpBytes == 0 {
		return 0
	}
	return float64(r.Comm.NaiveUpBytes) / float64(r.Comm.UpBytes)
}

// VerifyTopKWithin checks a basic sanity invariant used in tests: every
// reported hot path has positive hotness and its endpoints lie within the
// expanded network bounds.
func (r *Result) VerifyTopKWithin(bounds geom.Rect) error {
	for _, hp := range r.TopK {
		if hp.Hotness <= 0 {
			return fmt.Errorf("path %d has non-positive hotness %d", hp.Path.ID, hp.Hotness)
		}
		if !bounds.Contains(hp.Path.S) || !bounds.Contains(hp.Path.E) {
			return fmt.Errorf("path %d endpoints outside bounds", hp.Path.ID)
		}
	}
	return nil
}
