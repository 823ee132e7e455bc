// Command benchfigs regenerates every table and figure of the paper's
// evaluation (Section 6) and prints the corresponding rows/series.
//
// Usage:
//
//	benchfigs -fig 7            # Figure 7: sweep N (index size, score, time)
//	benchfigs -fig 8            # Figure 8: sweep eps
//	benchfigs -fig 9 -out dir   # Figure 9: all discovered paths (SVG)
//	benchfigs -fig 10 -out dir  # Figure 10: top-20 in the city centre (SVG)
//	benchfigs -fig comm         # communication ablation (naive vs RayTrace)
//	benchfigs -table 2          # Table 2: parameters
//	benchfigs -all -out dir     # everything
//
// Every run uses the paper's Section 6 parameters (experiment.Base).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"hotpaths/internal/experiment"
)

func main() {
	var (
		fig   = flag.String("fig", "", "figure to regenerate: 7, 8, 9, 10, comm")
		table = flag.String("table", "", "table to regenerate: 2")
		all   = flag.Bool("all", false, "regenerate everything")
		out   = flag.String("out", ".", "output directory for SVG figures")
		seed  = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	base, err := experiment.Base(*seed)
	if err != nil {
		fatal(err)
	}

	if *all || *table == "2" {
		fmt.Println("== Table 2: experimental parameters ==")
		if err := experiment.Table2(os.Stdout, base); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
	if *all || *fig == "7" {
		fmt.Println("== Figure 7: varying the number of objects (eps fixed) ==")
		rows, err := experiment.SweepN(base, []int{10000, 20000, 50000, 100000})
		if err != nil {
			fatal(err)
		}
		if err := experiment.WriteRows(os.Stdout, "N", rows); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
	if *all || *fig == "8" {
		fmt.Println("== Figure 8: varying the tolerance (N fixed) ==")
		rows, err := experiment.SweepEps(base, []float64{1, 2, 10, 20})
		if err != nil {
			fatal(err)
		}
		if err := experiment.WriteRows(os.Stdout, "eps", rows); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
	if *all || *fig == "9" {
		fmt.Println("== Figure 9: discovered network (SVG) ==")
		paths, network, err := experiment.Figure9(base)
		if err != nil {
			fatal(err)
		}
		if err := write(*out, "figure9_paths.svg", paths); err != nil {
			fatal(err)
		}
		if err := write(*out, "figure6_network.svg", network); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
	if *all || *fig == "10" {
		fmt.Println("== Figure 10: top-20 hottest paths, city centre (SVG) ==")
		svg, err := experiment.Figure10(base, 20)
		if err != nil {
			fatal(err)
		}
		if err := write(*out, "figure10_top20.svg", svg); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
	if *all || *fig == "comm" {
		fmt.Println("== Communication ablation: RayTrace vs naive streaming ==")
		rows, err := experiment.CommAblation(base, []float64{1, 2, 10, 20})
		if err != nil {
			fatal(err)
		}
		if err := experiment.WriteCommRows(os.Stdout, rows); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
	if !*all && *fig == "" && *table == "" {
		flag.Usage()
		os.Exit(2)
	}
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
	fmt.Fprintln(os.Stderr, "benchfigs:", err)
	os.Exit(1)
}
