package main

import (
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	digest := func(seed int64) string {
		st, err := generate(seed, 200, 30)
		if err != nil {
			t.Fatal(err)
		}
		return st.digest()
	}
	a, again, b := digest(1), digest(1), digest(2)
	if a != again {
		t.Errorf("seed 1 gave two streams: %s and %s", a, again)
	}
	if a == b {
		t.Errorf("seeds 1 and 2 gave the same stream %s", a)
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	ten := func() []float64 { return []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1} }
	for _, c := range []struct {
		p    float64
		want float64
	}{
		{50, 5},   // rank ceil(0.50 × 10) = 5
		{90, 9},   // rank 9
		{91, 10},  // rank ceil(9.1) = 10
		{99, 10},  // rank 10
		{100, 10}, // rank 10
		{1, 1},    // rank ceil(0.1) = 1
	} {
		if got := percentile(ten(), c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
}

func TestParseProcStat(t *testing.T) {
	// A command name with spaces and parentheses, as the kernel prints it.
	const stat = "4242 (hot) paths d) S 1 4242 4242 0 -1 4194560 1234 0 0 0 731 269 0 0 20 0 9 0 100 200 300"
	got, err := parseProcStat(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := time.Duration(731+269) * clockTick; got != want {
		t.Errorf("cpu time = %v, want %v", got, want)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 (x) S 1 2 3 4 5 6 7 8 9 10 eleven 12"} {
		if _, err := parseProcStat(bad); err == nil {
			t.Errorf("parseProcStat(%q) succeeded", bad)
		}
	}
}

func TestParseSteal(t *testing.T) {
	const stat = "cpu  407324 0 57052 655540 5862 0 13635 1732 0 0\ncpu0 203000 0 28000 327000 2900 0 6800 866 0 0\n"
	got, err := parseSteal(stat)
	if err != nil || got != 1732*clockTick {
		t.Errorf("steal = %v, %v; want %v", got, err, 1732*clockTick)
	}
	if _, err := parseSteal("intr 1 2 3\n"); err == nil {
		t.Error("a file without a cpu line was accepted")
	}
}

func TestParseProcStatusKB(t *testing.T) {
	const status = "Name:\thotpathsd\nVmPeak:\t 1239000 kB\nVmHWM:\t   31764 kB\nVmRSS:\t   30000 kB\n"
	got, err := parseProcStatusKB(status, "VmHWM")
	if err != nil || got != 31764 {
		t.Errorf("VmHWM = %d, %v; want 31764", got, err)
	}
	if _, err := parseProcStatusKB(status, "VmSwap"); err == nil {
		t.Error("a missing key was found")
	}
	if _, err := parseProcStatusKB("VmHWM:\t31764\n", "VmHWM"); err == nil {
		t.Error("a line without a unit was accepted")
	}
}

func TestParseProm(t *testing.T) {
	const text = `# HELP hotpaths_http_request_seconds HTTP request duration by route.
# TYPE hotpaths_http_request_seconds histogram
hotpaths_http_request_seconds_bucket{route="/observe",le="0.005"} 40
hotpaths_http_request_seconds_bucket{route="/observe",le="+Inf"} 50
hotpaths_http_request_seconds_sum{route="/observe"} 0.21
hotpaths_http_request_seconds_count{route="/observe"} 50
hotpaths_http_request_seconds_sum{route="/topk"} 0.004
hotpaths_http_request_seconds_count{route="/topk"} 10
# TYPE hotpaths_engine_epochs_total counter
hotpaths_engine_epochs_total 7

not a sample
`
	m := parseProm(text)
	for k, want := range map[string]float64{
		`hotpaths_http_request_seconds_sum{route="/observe"}`:              0.21,
		`hotpaths_http_request_seconds_count{route="/observe"}`:            50,
		`hotpaths_http_request_seconds_bucket{route="/observe",le="+Inf"}`: 50,
		`hotpaths_engine_epochs_total`:                                     7,
	} {
		if m[k] != want {
			t.Errorf("%s = %v, want %v", k, m[k], want)
		}
	}
	if got := sumPrefix(m, "hotpaths_http_request_seconds_count"); got != 60 {
		t.Errorf("requests over all routes = %v, want 60", got)
	}
	later := parseProm(`hotpaths_engine_epochs_total 9` + "\n" + `hotpaths_renamed_total 3` + "\n")
	d := since(later, m)
	if d["hotpaths_engine_epochs_total"] != 2 || d["hotpaths_renamed_total"] != 3 {
		t.Errorf("since = %v", d)
	}
	if got := ratio(d["hotpaths_gone_sum"], d["hotpaths_gone_count"]); got != 0 {
		t.Errorf("a family that is gone reads %v, want 0", got)
	}
}

func TestRecorderSelfTime(t *testing.T) {
	r := &recorder{}
	r.spans = []span{
		{Name: "batch", ID: 1, Start: 0, End: 100e6},
		{Name: "wire.decode", ID: 2, Parent: 1, Start: 0, End: 60e6},
		{Name: "engine.observe_batch", ID: 3, Parent: 1, Start: 60e6, End: 90e6},
		{Name: "read.topk", ID: 4, Start: 100e6, End: 110e6},
		{Name: "wire.decode", ID: 5, Parent: 4, Start: 100e6, End: 101e6},
	}
	self := r.selfMillis()
	if self["batch"] != 10 || self["wire.decode"] != 61 || self["read.topk"] != 9 {
		t.Errorf("self times = %v", self)
	}
	if got := r.durations("batch", "wire.decode"); len(got) != 1 || got[0] != 60 {
		t.Errorf("wire.decode under batch = %v, want [60]", got)
	}
	if got := r.durations("", "wire.decode"); len(got) != 2 {
		t.Errorf("wire.decode under anything = %v, want two", got)
	}
	var none *recorder
	none.end(none.start("ignored", 0, 0)) // a nil recorder records nothing
}

func TestUnsignedAnswersIgnoreTheSignOfZero(t *testing.T) {
	before := answers{topk: []byte(`[{"start":{"x":-0,"y":-0.5},"end":{"x":-10,"y":-0}}]`), paths: []byte("x")}
	after := answers{topk: []byte(`[{"start":{"x":0,"y":-0.5},"end":{"x":-10,"y":0}}]`), paths: []byte("y")}
	if diff := before.diff(after); diff == "" {
		t.Error("the answers are byte-equal")
	}
	if diff := before.unsigned().diff(after.unsigned()); diff != "" {
		t.Errorf("unsigned answers differ: %s", diff)
	}
}

// TestBootFailureSaysWhy starts a daemon that refuses its flags: the
// error must come at once, not after the 10 s a healthy boot may take,
// and carry what the daemon logged.
func TestBootFailureSaysWhy(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the real binaries")
	}
	if err := buildSUT(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stopLive)
	t0 := time.Now()
	_, err := startHealthy(newHTTPClient(), 10*time.Second, "hotpathsd", "test.boot.log", nil, "-eps", "-1")
	if err == nil {
		t.Fatal("a daemon with -eps -1 came up")
	}
	if time.Since(t0) > 5*time.Second {
		t.Errorf("the failure took %v to notice", time.Since(t0))
	}
	if !strings.Contains(err.Error(), "its log:") || !strings.Contains(err.Error(), "Eps must be positive") {
		t.Errorf("the error does not carry the daemon's log: %v", err)
	}
}

// TestSmoke runs every workload end to end against freshly built
// binaries on a tiny stream — oracle, kill-and-restart check, per-layer
// replays and all — and holds the metric names to BENCHMARK.json.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the real binaries")
	}
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if err := buildSUT(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stopLive)
	var specWorkloads []string
	for _, w := range sp.Workloads {
		specWorkloads = append(specWorkloads, w.Name)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
		// One traced run gives both metric sets.
		rep, err := runWorkload(w.smoke(), options{seed: 1, seconds: 1, trace: true, objects: 500})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !rep.correct || rep.failed != 0 || rep.attempted == 0 {
			t.Errorf("%s: correct %v, failed %d of %d: %s %v", w.name, rep.correct, rep.failed, rep.attempted, rep.mismatch, rep.lastErr)
		}
		want := map[string]string{}
		for _, m := range sp.EndToEnd {
			want[m.Name] = m.Unit
		}
		sameMetrics(t, w.name+" end_to_end", rep.endToEnd, want)
		want = map[string]string{}
		for _, m := range sp.PerLayer {
			want[m.Name] = m.Unit
		}
		sameMetrics(t, w.name+" per_layer", rep.perLayer, want)
	}
	sort.Strings(names)
	sort.Strings(specWorkloads)
	if !slices.Equal(names, specWorkloads) {
		t.Errorf("workloads %v, BENCHMARK.json has %v", names, specWorkloads)
	}
}

func sameMetrics(t *testing.T, what string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("%s: %s is in BENCHMARK.json but not reported", what, name)
		} else if m.Unit != unit {
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", what, name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: %s is reported but not in BENCHMARK.json", what, name)
		}
	}
}
