package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// spec is the part of BENCHMARK.json this program reads back: the bound
// of each end-to-end metric, and the names a test holds the code to.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec() (spec, error) {
	var s spec
	b, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return s, nil
}

// runSelfcheck is the A/A check: every workload twice on the same code,
// alternating so slow drift of the host hits both sides alike, and each
// end-to-end metric's relative difference beside its bound. Two single
// runs differ by more than two medians of ten do, so this is the quick
// form of the check the driver makes; it exits non-zero when a bound is
// exceeded.
func runSelfcheck(selected []workload, opt options) int {
	sp, err := loadSpec()
	if err != nil {
		return fail(err)
	}
	runs := make(map[string][]*report, len(selected))
	for pass := range 2 {
		for _, w := range selected {
			rep, err := runSteady(w, opt)
			if err != nil {
				return fail(fmt.Errorf("%s: %w", w.name, err))
			}
			if !rep.correct {
				rep.print(os.Stderr)
				return 1
			}
			fmt.Fprintf(os.Stderr, "pass %d: %s done\n", pass+1, w.name)
			runs[w.name] = append(runs[w.name], rep)
		}
	}
	code := 0
	fmt.Printf("%-10s %-20s %14s %14s %8s %6s\n", "workload", "metric", "run A", "run B", "diff", "bound")
	for _, w := range selected {
		a, b := runs[w.name][0].endToEnd, runs[w.name][1].endToEnd
		for _, m := range sp.EndToEnd {
			va, vb := a[m.Name].Value, b[m.Name].Value
			diff := ratio(math.Abs(va-vb), (va+vb)/2)
			verdict := ""
			if diff > m.Bound {
				verdict = "  EXCEEDED"
				code = 1
			}
			fmt.Printf("%-10s %-20s %14.4f %14.4f %7.1f%% %5.0f%%%s\n", w.name, m.Name, va, vb, 100*diff, 100*m.Bound, verdict)
		}
	}
	return code
}
