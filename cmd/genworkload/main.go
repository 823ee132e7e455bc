// Command genworkload generates the synthetic road network and, optionally,
// a trace of moving-object measurements, writing both to files for external
// tooling or reproducible runs.
//
// Usage:
//
//	genworkload -net network.txt [-trace trace.txt] [-seed 1]
//	            [-n 1000] [-duration 250] [-agility 0.1] [-step 10] [-err 1]
//
// The trace is written in internal/trace's format, one measurement per
// line:
//
//	<timestamp> <objectID> <x> <y>
package main

import (
	"flag"
	"fmt"
	"os"

	"hotpaths/internal/roadnet"
	"hotpaths/internal/trace"
	"hotpaths/internal/trajectory"
	"hotpaths/internal/workload"
)

func main() {
	var (
		netFile   = flag.String("net", "network.txt", "output network file")
		traceFile = flag.String("trace", "", "optional output measurement trace")
		seed      = flag.Int64("seed", 1, "random seed")
		n         = flag.Int("n", 1000, "objects for the trace")
		duration  = flag.Int64("duration", 250, "trace length, timestamps")
		agility   = flag.Float64("agility", 0.1, "moving fraction per timestamp")
		step      = flag.Float64("step", 10, "displacement per move, metres")
		errAmp    = flag.Float64("err", 1, "noise amplitude, metres")
	)
	flag.Parse()

	net, err := roadnet.GenerateAthens(*seed)
	if err != nil {
		fatal(err)
	}
	if err := writeNetwork(net, *netFile); err != nil {
		fatal(err)
	}
	counts := net.ClassCounts()
	fmt.Printf("wrote %s: %d nodes, %d links (%d motorway, %d highway, %d primary, %d secondary)\n",
		*netFile, len(net.Nodes), len(net.Links),
		counts[roadnet.Motorway], counts[roadnet.Highway],
		counts[roadnet.Primary], counts[roadnet.Secondary])

	if *traceFile == "" {
		return
	}
	sim, err := workload.New(net, workload.Config{
		N: *n, Agility: *agility, Step: *step, Err: *errAmp, Seed: *seed,
	})
	if err != nil {
		fatal(err)
	}
	f, err := os.Create(*traceFile)
	if err != nil {
		fatal(err)
	}
	w := trace.NewWriter(f)
	for now := trajectory.Time(1); now <= trajectory.Time(*duration); now++ {
		for _, m := range sim.Tick(now) {
			if err := w.WriteMeasurement(m); err != nil {
				fatal(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s: %d measurements from %d objects over %d timestamps\n",
		*traceFile, w.Count(), *n, *duration)
}

func writeNetwork(net *roadnet.Network, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = net.WriteTo(f)
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "genworkload:", err)
	os.Exit(1)
}
