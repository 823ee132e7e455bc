// Command renderpaths runs a simulation and renders the discovered motion
// paths (and the underlying road network) as SVG, reproducing the paper's
// qualitative figures.
//
// Usage:
//
//	renderpaths [-topk 0] [-crop] [-out .] [-n 20000] [-eps 10] [-seed 1]
//	            [-duration 250] [-quick]
//
// -topk 0 renders every live path (Figure 9); -topk 20 -crop renders the
// paper's Figure 10. The network itself is always written alongside
// (Figure 6) for visual comparison.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"hotpaths/internal/experiment"
	"hotpaths/internal/geojson"
	"hotpaths/internal/geom"
	"hotpaths/internal/simulation"
	"hotpaths/internal/svg"
	"hotpaths/internal/trajectory"
)

func main() {
	var (
		topk     = flag.Int("topk", 0, "render only the k hottest paths (0 = all)")
		crop     = flag.Bool("crop", false, "crop to the central 40% of the map")
		out      = flag.String("out", ".", "output directory")
		n        = flag.Int("n", 20000, "number of objects")
		eps      = flag.Float64("eps", 10, "tolerance, metres")
		seed     = flag.Int64("seed", 1, "random seed")
		duration = flag.Int64("duration", 250, "simulation length, timestamps")
		quick    = flag.Bool("quick", false, "scaled-down workload")
		asGeo    = flag.Bool("geojson", false, "also write paths.geojson and network.geojson")
	)
	flag.Parse()

	var cfg simulation.Config
	var err error
	if *quick {
		cfg, err = experiment.QuickBase(*seed)
	} else {
		cfg, err = experiment.Base(*seed)
		cfg.N = *n
	}
	if err != nil {
		fatal(err)
	}
	cfg.Eps = *eps
	cfg.Duration = trajectory.Time(*duration)
	cfg.RunDP = false

	res, err := simulation.Run(cfg)
	if err != nil {
		fatal(err)
	}
	paths := res.AllPaths // hottest first
	if *topk > 0 && *topk < len(paths) {
		paths = paths[:*topk]
	}

	bounds := cfg.Net.Bounds()
	opts := svg.Options{WidthPx: 900}
	if *crop {
		opts.Crop = geom.Rect{
			Lo: bounds.Lo.Add(geom.Pt(bounds.Width()*0.3, bounds.Height()*0.3)),
			Hi: bounds.Lo.Add(geom.Pt(bounds.Width()*0.7, bounds.Height()*0.7)),
		}
	}
	if err := write(*out, "paths.svg", svg.RenderHotPaths(paths, bounds, opts)); err != nil {
		fatal(err)
	}
	if err := write(*out, "network.svg", svg.RenderNetwork(cfg.Net, opts)); err != nil {
		fatal(err)
	}
	if *asGeo {
		if err := writeGeo(*out, "paths.geojson", geojson.FromHotPaths(paths)); err != nil {
			fatal(err)
		}
		if err := writeGeo(*out, "network.geojson", geojson.FromNetwork(cfg.Net)); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("rendered %d paths (of %d live) discovered by %d objects\n",
		len(paths), len(res.AllPaths), cfg.N)
}

func writeGeo(dir, name string, fc geojson.FeatureCollection) error {
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := geojson.Write(f, fc); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}

func write(dir, name, content string) error {
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "renderpaths:", err)
	os.Exit(1)
}
