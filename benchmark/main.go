// Command benchmark is the repository's end-to-end benchmark: it builds
// the real hotpathsd and hotpathsgw binaries, drives them over loopback
// in a closed loop with a pre-generated stream, checks their final
// answers against an in-process hotpaths.System fed the same stream, and
// prints every metric by name and unit. README.md defines the workloads,
// the metrics and how the per-layer ones relate to the end-to-end ones.
//
// Usage (from the repository root):
//
//	go run -C benchmark hotpaths/benchmark --workload ingest_mem --seed 1 --seconds 10 --trace 0
//	go run -C benchmark hotpaths/benchmark --workload all
//	go run -C benchmark hotpaths/benchmark --selfcheck
//	go run -C benchmark hotpaths/benchmark --smoke
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/debug"
	"slices"
	"syscall"
	"time"
)

// metric is one measured value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the driver reads: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	seed    int64
	seconds int
	trace   bool
	objects int
	smoke   bool
}

func main() {
	var (
		name      = flag.String("workload", "all", "workload to run: ingest_mem, ingest_wal, mixed_rw, fleet_gw or all")
		seed      = flag.Int64("seed", 1, "seed of the input stream")
		seconds   = flag.Int("seconds", 10, "length of the measured phase")
		trace     = flag.Int("trace", 0, "1 records spans and prints the per-layer metrics in place of the end-to-end ones")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice, alternating, and compare the two against the bounds")
		smoke     = flag.Bool("smoke", false, "a one-second pass over a 500-object, 60-timestamp stream: checks the harness, measures nothing worth keeping")
	)
	flag.Parse()
	// This process's heap is the pre-generated stream: large, pointer-free
	// and static. Collecting at 20 % growth, not 100 %, keeps its peak under
	// 1 GB at the cost of a few more cycles while generating.
	debug.SetGCPercent(20)
	opt := options{seed: *seed, seconds: *seconds, trace: *trace != 0, objects: population, smoke: *smoke}
	if flag.NArg() > 0 || opt.seconds < 1 {
		fmt.Fprintln(os.Stderr, "usage: go run -C benchmark hotpaths/benchmark [--workload NAME|all] [--seed N] [--seconds N] [--trace 0|1] [--selfcheck] [--smoke]")
		os.Exit(2)
	}
	os.Exit(run(*name, opt, *selfcheck))
}

func run(name string, opt options, selfcheck bool) int {
	selected := slices.Clone(workloads)
	if name != "all" {
		w, ok := workloadByName(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", name)
			return 2
		}
		selected = []workload{w}
	}
	if opt.smoke {
		opt.objects, opt.seconds = 500, 1
		for i, w := range selected {
			selected[i] = w.smoke()
		}
	}
	if err := buildSUT(); err != nil {
		return fail(err)
	}
	// SUT processes are killed on every exit path: runWorkload stops its
	// deployment when it returns, and an interrupt ends the process here
	// only after the live deployment has been stopped.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopLive()
		os.Exit(130)
	}()

	if selfcheck {
		return runSelfcheck(selected, opt)
	}
	code := 0
	for _, w := range selected {
		rep, err := runSteady(w, opt)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", w.name, err))
		}
		rep.print(os.Stderr)
		line, err := json.Marshal(rep.result(opt.trace))
		if err != nil {
			return fail(err)
		}
		fmt.Println(string(line))
		if !rep.correct {
			code = 1
		}
	}
	return code
}

// runSteady is runWorkload, repeated up to twice when the run broke on
// something that is the host's and not the program's: a process that did
// not come up, a /proc file that could not be read, a request that did
// not get through (which voids the run's answers as well). It says so on
// standard error. A wrong answer with every request answered is never
// tried again. A run is repeated only in the first 100 s, so
// that the last one still ends within the 180 s a run may take.
func runSteady(w workload, opt options) (rep *report, err error) {
	start := time.Now()
	for attempt := 1; ; attempt++ {
		rep, err = runWorkload(w, opt)
		broken := err != nil || rep.failed > 0
		if !broken || attempt == 3 || time.Since(start) > 100*time.Second {
			return rep, err
		}
		if err == nil {
			err = fmt.Errorf("%d of %d requests failed, the last: %w", rep.failed, rep.attempted, rep.lastErr)
		}
		fmt.Fprintf(os.Stderr, "benchmark: %s: attempt %d broke, running it again: %v\n", w.name, attempt, err)
	}
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 1
}
