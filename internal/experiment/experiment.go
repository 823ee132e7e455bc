// Package experiment regenerates the paper's evaluation (Section 6):
// one parameter sweep per figure, each producing the same rows/series the
// paper plots, plus the qualitative network-recovery renders.
//
//	Figure 7 (a,b,c): index size, top-k score and coordinator time while
//	                  varying the number of objects N, at ε=10.
//	Figure 8 (a,b,c): the same metrics varying the tolerance ε, at N=20k.
//	Figure 9:         all discovered motion paths (SVG).
//	Figure 10:        the top-20 hottest paths in the city centre (SVG).
//	Table 2:          the experimental parameters.
//
// Absolute numbers differ from the paper (different hardware, language and
// synthetic network); the reproduced quantity is the SHAPE of each series —
// who wins, by what rough factor, and where trends reverse.
package experiment

import (
	"fmt"
	"io"
	"time"

	"hotpaths/internal/geom"
	"hotpaths/internal/roadnet"
	"hotpaths/internal/simulation"
	"hotpaths/internal/stats"
	"hotpaths/internal/svg"
)

// Row is one point of a sweep: the averaged per-epoch metrics for both
// methods at one parameter value.
type Row struct {
	Param        float64       // the swept value (N or ε)
	SPIndexSize  float64       // SinglePath: avg motion paths stored
	DPIndexSize  float64       // DP benchmark: avg segments stored
	SPScore      float64       // SinglePath: avg top-k score
	DPScore      float64       // DP benchmark: avg top-k score
	SPTime       time.Duration // SinglePath: avg per-epoch processing time
	UpMessages   int           // filtered messages sent by RayTrace
	Measurements int           // naive message count for comparison
	// Case1, Case2 and Case3 count the reports SinglePath answered with
	// each case over the run (hotpaths.Stats).
	Case1, Case2, Case3 int
}

// Base returns the paper's default configuration (Table 2) over the
// synthetic Athens network.
func Base(seed int64) (simulation.Config, error) {
	net, err := roadnet.GenerateAthens(seed)
	if err != nil {
		return simulation.Config{}, err
	}
	cfg := simulation.Config{Net: net, Seed: seed, RunDP: true}
	cfg.ApplyDefaults()
	return cfg, nil
}

// QuickBase returns a scaled-down configuration (smaller network, fewer
// objects, shorter run) with the same parameter ratios, for tests and
// benchmarks that must finish in seconds.
func QuickBase(seed int64) (simulation.Config, error) {
	net, err := roadnet.Generate(roadnet.GenConfig{
		GridCols: 12, GridRows: 12, Size: 3000, Jitter: 0.25, Seed: seed,
	})
	if err != nil {
		return simulation.Config{}, err
	}
	cfg := simulation.Config{
		Net:      net,
		N:        1000,
		Duration: 150,
		// Higher agility than the paper default compensates for the short
		// run: objects reach several turns, so both methods emit segments.
		Agility: 0.5,
		Seed:    seed,
		RunDP:   true,
	}
	cfg.ApplyDefaults()
	return cfg, nil
}

// SweepN runs the Figure 7 sweep: vary the number of objects.
func SweepN(base simulation.Config, ns []int) ([]Row, error) {
	rows := make([]Row, 0, len(ns))
	for _, n := range ns {
		cfg := base
		cfg.N = n
		res, err := simulation.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiment: N=%d: %w", n, err)
		}
		rows = append(rows, rowFrom(float64(n), res))
	}
	return rows, nil
}

// SweepEps runs the Figure 8 sweep: vary the tolerance ε.
func SweepEps(base simulation.Config, epss []float64) ([]Row, error) {
	rows := make([]Row, 0, len(epss))
	for _, e := range epss {
		cfg := base
		cfg.Eps = e
		res, err := simulation.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiment: eps=%v: %w", e, err)
		}
		rows = append(rows, rowFrom(e, res))
	}
	return rows, nil
}

func rowFrom(param float64, res *simulation.Result) Row {
	return Row{
		Param:        param,
		SPIndexSize:  res.AvgIndexSize,
		DPIndexSize:  res.AvgDPIndexSize,
		SPScore:      res.AvgTopKScore,
		DPScore:      res.AvgDPTopKScore,
		SPTime:       res.AvgProcTime,
		UpMessages:   res.Comm.UpMessages,
		Measurements: res.Comm.Measurements,
		Case1:        res.Stats.Case1,
		Case2:        res.Stats.Case2,
		Case3:        res.Stats.Case3,
	}
}

// WriteRows renders a sweep as the three paper sub-figures in one table.
func WriteRows(w io.Writer, paramName string, rows []Row) error {
	var tb stats.Table
	tb.AddRow(paramName,
		"sp-index", "dp-index", // (a)
		"sp-score", "dp-score", // (b)
		"sp-time-ms", // (c): the boundary Tick, SinglePath plus response delivery
		"msgs", "naive-msgs",
		"case1", "case2", "case3")
	for _, r := range rows {
		tb.AddRow(
			fmt.Sprintf("%g", r.Param),
			fmt.Sprintf("%.0f", r.SPIndexSize),
			fmt.Sprintf("%.0f", r.DPIndexSize),
			fmt.Sprintf("%.0f", r.SPScore),
			fmt.Sprintf("%.0f", r.DPScore),
			fmt.Sprintf("%.3f", float64(r.SPTime.Microseconds())/1000),
			fmt.Sprintf("%d", r.UpMessages),
			fmt.Sprintf("%d", r.Measurements),
			fmt.Sprintf("%d", r.Case1),
			fmt.Sprintf("%d", r.Case2),
			fmt.Sprintf("%d", r.Case3),
		)
	}
	_, err := tb.WriteTo(w)
	return err
}

// Figure9 runs the default configuration and renders every discovered path
// (hotness > 0) as SVG, together with the source network for visual
// comparison (Figure 6).
func Figure9(base simulation.Config) (pathsSVG, networkSVG string, err error) {
	res, err := simulation.Run(base)
	if err != nil {
		return "", "", err
	}
	bounds := base.Net.Bounds()
	pathsSVG = svg.RenderHotPaths(res.AllPaths, bounds, svg.Options{WidthPx: 900})
	networkSVG = svg.RenderNetwork(base.Net, svg.Options{WidthPx: 900})
	return pathsSVG, networkSVG, nil
}

// Figure10 renders the top-k hottest paths restricted to the central
// quarter of the map.
func Figure10(base simulation.Config, k int) (string, error) {
	cfg := base
	cfg.K = k
	res, err := simulation.Run(cfg)
	if err != nil {
		return "", err
	}
	b := base.Net.Bounds()
	// The conversions round each product before Add's sum (see
	// geom.Point.Lerp).
	centre := geom.Rect{
		Lo: b.Lo.Add(geom.Pt(float64(b.Width()*0.3), float64(b.Height()*0.3))),
		Hi: b.Lo.Add(geom.Pt(float64(b.Width()*0.7), float64(b.Height()*0.7))),
	}
	return svg.RenderHotPaths(res.TopK, b, svg.Options{WidthPx: 900, Crop: centre}), nil
}

// Table2 renders the experimental-parameter table.
func Table2(w io.Writer, cfg simulation.Config) error {
	var tb stats.Table
	tb.AddRow("parameter", "value")
	tb.AddRowf("objects (N)", cfg.N)
	tb.AddRowf("tolerance (eps, m)", cfg.Eps)
	tb.AddRowf("positional error (err, m)", cfg.Err)
	tb.AddRowf("agility (alpha)", cfg.Agility)
	tb.AddRowf("displacement (s, m)", cfg.Step)
	tb.AddRowf("window size (W, ts)", cfg.W)
	tb.AddRowf("epoch (ts)", cfg.Epoch)
	tb.AddRowf("duration (ts)", cfg.Duration)
	tb.AddRowf("k", cfg.K)
	tb.AddRowf("network nodes", len(cfg.Net.Nodes))
	tb.AddRowf("network links", len(cfg.Net.Links))
	_, err := tb.WriteTo(w)
	return err
}

// CommRow is one point of the communication ablation: messages sent with
// RayTrace filtering versus the naive ship-everything policy.
type CommRow struct {
	Eps          float64
	UpMessages   int
	Measurements int
	Ratio        float64
}

// CommAblation sweeps ε and reports the communication savings RayTrace
// achieves over naive streaming (the motivation of Section 1/3.2).
func CommAblation(base simulation.Config, epss []float64) ([]CommRow, error) {
	out := make([]CommRow, 0, len(epss))
	for _, e := range epss {
		cfg := base
		cfg.Eps = e
		cfg.RunDP = false
		res, err := simulation.Run(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, CommRow{
			Eps:          e,
			UpMessages:   res.Comm.UpMessages,
			Measurements: res.Comm.Measurements,
			Ratio:        res.CompressionRatio(),
		})
	}
	return out, nil
}

// WriteCommRows renders the communication ablation table.
func WriteCommRows(w io.Writer, rows []CommRow) error {
	var tb stats.Table
	tb.AddRow("eps", "raytrace-msgs", "naive-msgs", "compression")
	for _, r := range rows {
		tb.AddRow(
			fmt.Sprintf("%g", r.Eps),
			fmt.Sprintf("%d", r.UpMessages),
			fmt.Sprintf("%d", r.Measurements),
			fmt.Sprintf("%.1fx", r.Ratio),
		)
	}
	_, err := tb.WriteTo(w)
	return err
}
