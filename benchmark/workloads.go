package main

import (
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"hotpaths"
)

// workload is one traffic mix against one deployment. BENCHMARK.json
// repeats each name with the reason it exists.
type workload struct {
	name string

	// The deployment: one hotpathsd, or `partitions` of them with -wal
	// behind a hotpathsgw.
	eps        float64
	window     int64
	wal        bool
	partitions int
	// gomaxprocs, when positive, is set in the processes' environment.
	// Only fleet_gw sets it: three Go runtimes of two Ps each on two cores
	// spend a quarter of their CPU spinning and yielding to each other and
	// made every metric swing 10–15 % from run to run; with one P each the
	// fleet is a third faster and as steady as a single daemon.
	gomaxprocs int

	// warmup timestamps fill the hotness window before anything is timed.
	warmup int
	// readEvery n issues one read (alternating /topk and /paths?bbox)
	// after every n-th write of the measured phase. Every read is the
	// first after a write, so it pays for a fresh view. The ingest
	// workloads read after every other epoch: often enough for a median,
	// rarely enough that reads stay under 3 % of their wall time.
	readEvery int
	// rate is the timestamps per second the seed commit sustains on a
	// 2-core box. It only sizes the pre-generated stream: a measured
	// phase ends at its deadline, or early if the stream runs out.
	rate int
}

const (
	epochLen = 10 // -epoch: coordinator cadence in timestamps
	topK     = 10 // -k
	gridSize = 64 // -grid

	// headroom is how much faster than workload.rate a later commit may
	// get before a measured phase ends early for lack of input.
	headroom = 1.3
	// quietReads is how often each read is repeated after ingestion stops.
	quietReads = 500
	// setupReps is how many times a run boots and warms the deployment;
	// setup_s is the median.
	setupReps = 3
	// fsyncInterval is the daemon's default -fsync group-commit cadence.
	fsyncInterval = 25 * time.Millisecond
)

var workloads = []workload{
	{name: "ingest_mem", eps: 10, window: 100, warmup: 250, readEvery: 20, rate: 235},
	{name: "ingest_wal", eps: 10, window: 100, wal: true, warmup: 250, readEvery: 20, rate: 195},
	{name: "mixed_rw", eps: 5, window: 200, warmup: 300, readEvery: 1, rate: 113},
	{name: "fleet_gw", eps: 10, window: 100, wal: true, partitions: 2, gomaxprocs: 1, warmup: 250, readEvery: 5, rate: 105},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// smoke shrinks the workload to a stream of about 60 timestamps, for the
// end-to-end test of the harness itself.
func (w workload) smoke() workload {
	w.warmup, w.rate = 20, 30
	return w
}

// timestamps is the length of the stream a run of the given measured
// duration needs.
func (w workload) timestamps(seconds int) int {
	return w.warmup + int(float64(w.rate*seconds)*headroom)
}

// config is the hotpaths.Config the daemon flags below produce; the
// oracle and the in-process layer replays run under it.
func (w workload) config(bounds hotpaths.Rect) hotpaths.Config {
	return hotpaths.Config{
		Eps: w.eps, W: w.window, Epoch: epochLen, K: topK,
		Bounds: bounds, GridCols: gridSize, GridRows: gridSize,
	}
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

func fmtRect(r hotpaths.Rect) string {
	return strings.Join([]string{fmtFloat(r.Min.X), fmtFloat(r.Min.Y), fmtFloat(r.Max.X), fmtFloat(r.Max.Y)}, ",")
}

// deployment is a booted SUT: its processes, the URL the client talks
// to, and the WAL directories to remove afterwards.
type deployment struct {
	daemons []*proc
	gateway *proc // nil for a single daemon
	base    string
	walDirs []string
}

// gateways is the gateway as a list: empty for a single daemon.
func (d *deployment) gateways() []*proc {
	if d.gateway == nil {
		return nil
	}
	return []*proc{d.gateway}
}

func (d *deployment) procs() []*proc {
	return append(append([]*proc(nil), d.daemons...), d.gateways()...)
}

// stop kills every process and removes the WAL directories.
func (d *deployment) stop() {
	for _, p := range d.procs() {
		p.kill()
	}
	for _, dir := range d.walDirs {
		os.RemoveAll(dir)
	}
}

// env is what the deployment's processes get on top of this process's
// environment.
func (w workload) env() []string {
	if w.gomaxprocs > 0 {
		return []string{"GOMAXPROCS=" + strconv.Itoa(w.gomaxprocs)}
	}
	return nil
}

// daemonArgs are the flags of daemon i of the workload's deployment.
// Shards, buffer and fsync keep their defaults.
func (w workload) daemonArgs(bounds hotpaths.Rect, walDir string, i int) []string {
	args := []string{
		"-eps", fmtFloat(w.eps), "-w", strconv.FormatInt(w.window, 10),
		"-epoch", strconv.Itoa(epochLen), "-k", strconv.Itoa(topK), "-grid", strconv.Itoa(gridSize),
		"-bounds=" + fmtRect(bounds),
	}
	if w.wal {
		args = append(args, "-wal", walDir)
	}
	if w.partitions > 0 {
		args = append(args, "-partition-count", strconv.Itoa(w.partitions), "-partition-id", strconv.Itoa(i))
	}
	return args
}

// boot starts the workload's deployment and returns once every process
// answers /healthz. On error nothing is left running.
func (w workload) boot(c *http.Client, bounds hotpaths.Rect) (d *deployment, err error) {
	d = &deployment{}
	defer func() {
		if err != nil {
			d.stop()
			d = nil
		}
	}()
	n := max(w.partitions, 1)
	var urls []string
	for i := range n {
		walDir := ""
		if w.wal {
			if walDir, err = os.MkdirTemp(outDir, w.name+".wal"); err != nil {
				return d, err
			}
			d.walDirs = append(d.walDirs, walDir)
		}
		p, err := startHealthy(c, 10*time.Second, "hotpathsd", fmt.Sprintf("%s.hotpathsd%d.log", w.name, i), w.env(), w.daemonArgs(bounds, walDir, i)...)
		if err != nil {
			return d, err
		}
		d.daemons = append(d.daemons, p)
		urls = append(urls, p.url)
	}
	d.base = d.daemons[0].url
	if w.partitions > 0 {
		// The gateway probes its partitions once at start-up, so it boots
		// after they are healthy.
		gw, err := startHealthy(c, 10*time.Second, "hotpathsgw", w.name+".hotpathsgw.log", w.env(),
			"-partitions", strings.Join(urls, ","), "-k", strconv.Itoa(topK))
		if err != nil {
			return d, err
		}
		d.gateway = gw
		d.base = gw.url
	}
	return d, nil
}

// restart boots daemon 0 again on its existing WAL directory after a
// kill, on a fresh port, and returns how long exec → /healthz 200 took.
func (w workload) restart(c *http.Client, d *deployment, bounds hotpaths.Rect) (time.Duration, error) {
	t0 := time.Now()
	p, err := startHealthy(c, 30*time.Second, "hotpathsd", w.name+".hotpathsd0.log", w.env(), w.daemonArgs(bounds, d.walDirs[0], 0)...)
	if err != nil {
		return 0, err
	}
	d.daemons[0] = p
	d.base = p.url
	return time.Since(t0), nil
}
