package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// report is everything one run of one workload measured.
type report struct {
	workload  string
	seed      int64
	digest    string // SHA-256 of the input stream
	correct   bool
	mismatch  string // what the oracle or the durability check objected to
	attempted int
	failed    int
	lastErr   error
	disturbed bool // the canary drifted by more than 10 %, or more than 2 % of CPU time was stolen
	endToEnd  map[string]metric
	perLayer  map[string]metric
}

func (r *report) result(trace bool) result {
	res := result{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: r.endToEnd}
	if trace {
		res.Metrics = r.perLayer
	}
	return res
}

// print writes the human-readable form: provenance, then every metric by
// name and unit.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  stream sha256 %s\n", r.workload, r.seed, r.digest)
	fmt.Fprintf(w, "  commit %s  %s  nproc %d  disturbed %v\n", commit(), runtime.Version(), runtime.NumCPU(), r.disturbed)
	fmt.Fprintf(w, "  correct %v  attempted %d  failed %d\n", r.correct, r.attempted, r.failed)
	if r.mismatch != "" {
		fmt.Fprintf(w, "  MISMATCH %s\n", r.mismatch)
	}
	if r.lastErr != nil {
		fmt.Fprintf(w, "  last request error: %v\n", r.lastErr)
	}
	for _, set := range []map[string]metric{r.endToEnd, r.perLayer} {
		names := make([]string, 0, len(set))
		for name := range set {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "  %-40s %14.4f %s\n", name, set[name].Value, set[name].Unit)
		}
	}
}

// commit is the checkout's commit, or "unknown" outside a git repository
// (the driver's checkouts are not one).
func commit() string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = repoRoot
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// canary times a fixed CPU-bound loop, SHA-256 over 64 MB, so a run can
// tell whether the host got slower or faster around it.
func canary() time.Duration {
	block := make([]byte, 1<<20)
	h := sha256.New()
	t0 := time.Now()
	for range 64 {
		h.Write(block)
	}
	h.Sum(nil)
	return time.Since(t0)
}

// sumOver adds up f(pid) over the processes.
func sumOver[T float64 | time.Duration](ps []*proc, f func(pid int) (T, error)) (T, error) {
	var total T
	for _, p := range ps {
		v, err := f(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// usage is the CPU time spent so far by the parties to a measured phase.
type usage struct {
	self, daemons, gateway time.Duration
	steal                  time.Duration // by the hypervisor, from the whole machine
}

func readUsage(d *deployment) (usage, error) {
	var (
		u    usage
		errs [4]error
	)
	u.self, errs[0] = cpuTime(os.Getpid())
	u.daemons, errs[1] = sumOver(d.daemons, cpuTime)
	u.gateway, errs[2] = sumOver(d.gateways(), cpuTime)
	u.steal, errs[3] = hostSteal()
	return u, errors.Join(errs[:]...)
}

// measurement is the raw material of both metric sets.
type measurement struct {
	w  workload
	st *stream

	setups               []float64 // seconds, one per set-up repetition
	m                    phase     // the measured phase
	quietTopk, quietBbox []float64
	daemonCPU, gwCPU     time.Duration // over the measured phase
	selfCPU              time.Duration // this process, over the measured phase
	daemonRSS, gwRSS     float64       // MB, peak
	recover              time.Duration // exec → /healthz 200 after the kill (ingest_wal)
	canaryDrift          float64
	steal                float64 // share of the machine's CPU time stolen during the measured phase
	got                  answers

	// Traced runs only.
	rec             *recorder
	daemons, gw     map[string]float64 // /metrics and /stats, after − before
	scatterBytes    float64            // the partitions' /paths bodies, summed
	reportsPerEpoch []float64
	engine          engineReplay
	walBytesPerObs  float64
	skew            float64
	decodeAllocs    float64 // per observation
}

// runWorkload runs one workload start to finish: generate the stream,
// boot and warm the deployment setupReps times, measure, take the quiet
// reads, check the answers, tear down, replay in process.
func runWorkload(w workload, opt options) (*report, error) {
	st, err := generate(opt.seed, opt.objects, w.timestamps(opt.seconds))
	if err != nil {
		return nil, err
	}
	rep := &report{workload: w.name, seed: opt.seed, digest: st.digest()}
	x := &measurement{w: w, st: st}
	if opt.trace {
		x.rec = newRecorder()
	}
	box := st.centreBox(2000)
	q := reads{topk: "/topk", bbox: "/paths?bbox=" + fmtRect(box)}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	c := &client{http: hc}
	canary0 := canary()

	// Set-up: exec → every /healthz 200 → warm-up acknowledged. It is
	// repeated so setup_s is a median; the last deployment is measured.
	var d *deployment
	for range setupReps {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		if d, err = w.boot(hc, st.bounds); err != nil {
			return nil, err
		}
		c.base = d.base
		c.feed(st, 0, w.warmup, time.Time{}, 0, q)
		x.setups = append(x.setups, time.Since(t0).Seconds())
	}
	defer func() { d.stop() }()

	// The measured phase. Client spans are recorded only here.
	var before scrape
	if opt.trace {
		if before, err = scrapeAll(hc, d); err != nil {
			return nil, err
		}
	}
	u0, err := readUsage(d)
	if err != nil {
		return nil, err
	}
	c.rec = x.rec
	x.m = c.feed(st, w.warmup, len(st.bodies), time.Now().Add(time.Duration(opt.seconds)*time.Second), w.readEvery, q)
	c.rec = nil
	u1, err := readUsage(d)
	if err != nil {
		return nil, err
	}
	x.selfCPU, x.daemonCPU, x.gwCPU = u1.self-u0.self, u1.daemons-u0.daemons, u1.gateway-u0.gateway
	x.steal = float64(u1.steal-u0.steal) / (float64(x.m.wall) * float64(runtime.NumCPU()))
	if opt.trace {
		after, err := scrapeAll(hc, d)
		if err != nil {
			return nil, err
		}
		x.daemons, x.gw = since(after.daemons, before.daemons), since(after.gateway, before.gateway)
	}
	if x.m.obs == 0 {
		return nil, errors.New("the measured phase fed nothing")
	}

	fed := x.m.next
	x.quietTopk = c.quiet("http.topk_quiet", q.topk, quietReads)
	x.quietBbox = c.quiet("http.bbox_quiet", q.bbox, quietReads)

	if x.got, err = fetchAnswers(c, q); err != nil {
		return nil, err
	}
	if opt.trace && d.gateway != nil {
		for _, p := range d.daemons {
			body, err := httpGet(hc, p.url+"/paths")
			if err != nil {
				return nil, err
			}
			x.scatterBytes += float64(len(body))
		}
	}
	if x.daemonRSS, err = sumOver(d.daemons, rssPeakMB); err != nil {
		return nil, err
	}
	if x.gwRSS, err = sumOver(d.gateways(), rssPeakMB); err != nil {
		return nil, err
	}
	if w.wal && w.partitions == 0 {
		// Durability: everything acknowledged more than one group-commit
		// interval ago must survive a SIGKILL.
		waitCommitted(hc, d.daemons[0])
		d.daemons[0].kill()
		if x.recover, err = w.restart(hc, d, st.bounds); err != nil {
			return nil, fmt.Errorf("restart after kill: %w", err)
		}
		c.base = d.base
		back, err := fetchAnswers(c, q)
		if err != nil {
			return nil, err
		}
		if diff := back.unsigned().diff(x.got.unsigned()); diff != "" {
			rep.mismatch = "after kill and restart: " + diff
		}
	}
	d.stop()
	canary1 := canary()
	x.canaryDrift = math.Abs(float64(canary1-canary0)) / float64(canary0)
	rep.disturbed = x.canaryDrift > 0.10 || x.steal > 0.02

	want, reports, err := oracle(w, st, fed, box, x.rec)
	if err != nil {
		return nil, err
	}
	x.reportsPerEpoch = reports
	if diff := x.got.diff(want); diff != "" && rep.mismatch == "" {
		rep.mismatch = "against the oracle: " + diff
	}
	rep.attempted, rep.failed, rep.lastErr = c.attempted, c.failed, c.lastErr
	rep.correct = rep.mismatch == "" && rep.failed == 0
	rep.endToEnd = x.endToEnd()

	if opt.trace {
		if x.engine, err = replayEngine(w, st, box, x.rec); err != nil {
			return nil, fmt.Errorf("engine replay: %w", err)
		}
		if x.walBytesPerObs, err = replayDurable(w, st, x.rec); err != nil {
			return nil, fmt.Errorf("durable replay: %w", err)
		}
		x.skew = replaySplit(w, st, x.rec)
		sample := st.bodies[w.warmup : w.warmup+allocSample]
		allocs, err := mallocsDuring(func() error {
			for _, body := range sample {
				if _, err := decodeBody(body); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		x.decodeAllocs = allocs / float64(countObs(st.batches[w.warmup:w.warmup+allocSample]))
		rep.perLayer = x.perLayer()
		if err := x.rec.write(filepath.Join(outDir, w.name+".trace.json")); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// waitCommitted sleeps two group-commit intervals, which is all the
// daemon promises to need, and then up to two seconds more until its
// /metrics say that every record appended to the WAL has been part of a
// commit. The second wait is for a host that stalled the daemon's commit
// loop; where a later commit has renamed the two families it is skipped.
func waitCommitted(hc *http.Client, p *proc) {
	time.Sleep(2 * fsyncInterval)
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(fsyncInterval) {
		text, err := httpGet(hc, p.url+"/metrics")
		if err != nil {
			return
		}
		m := parseProm(string(text))
		appended, ok := m["hotpaths_wal_records_total"]
		if !ok || m["hotpaths_wal_commit_batch_records_sum"] >= appended {
			return
		}
	}
}

// endToEnd are the metrics a user of the deployment sees. BENCHMARK.json
// gives each its bound; README.md defines them.
func (x *measurement) endToEnd() map[string]metric {
	obs := float64(x.m.obs)
	return map[string]metric{
		"setup_s":          {median(x.setups), "s"},
		"ingest_obs_per_s": {obs / x.m.wall.Seconds(), "1/s"},
		"observe_p50_ms":   {median(x.m.observe), "ms"},
		"observe_p95_ms":   {percentile(x.m.observe, 95), "ms"},
		"epoch_p50_ms":     {median(x.m.epoch), "ms"},
		"topk_p50_ms":      {median(x.m.topk), "ms"},
		"bbox_p50_ms":      {median(x.m.bbox), "ms"},
		"cpu_us_per_obs":   {float64((x.daemonCPU + x.gwCPU).Microseconds()) / obs, "us"},
		"rss_peak_mb":      {x.daemonRSS + x.gwRSS, "MB"},
	}
}
