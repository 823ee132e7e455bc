package metrics

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// Bucket boundaries are inclusive upper bounds: an observation exactly on
// a bound lands in that bound's bucket, and exposition is cumulative.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_hist_seconds", "h", []float64{1, 2, 5}, nil)
	for _, v := range []float64{0.5, 1, 1.0000001, 2, 4.9, 5, 100} {
		h.Observe(v)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`test_hist_seconds_bucket{le="1"} 2`,    // 0.5, 1
		`test_hist_seconds_bucket{le="2"} 4`,    // + 1.0000001, 2
		`test_hist_seconds_bucket{le="5"} 6`,    // + 4.9, 5
		`test_hist_seconds_bucket{le="+Inf"} 7`, // + 100
		`test_hist_seconds_count 7`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if got, want := h.Sum(), 0.5+1+1.0000001+2+4.9+5+100; math.Abs(got-want) > 1e-9 {
		t.Errorf("Sum() = %v, want %v", got, want)
	}
}

func TestHistogramRejectsBadBuckets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-increasing buckets did not panic")
		}
	}()
	NewRegistry().Histogram("bad_seconds", "h", []float64{1, 1}, nil)
}

// Registration is idempotent: same name+labels yields the same instance,
// different labels yield siblings in one family.
func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("reqs_total", "requests", Labels{"route": "/topk"})
	b := r.Counter("reqs_total", "requests", Labels{"route": "/topk"})
	c := r.Counter("reqs_total", "requests", Labels{"route": "/paths"})
	if a != b {
		t.Error("same name+labels returned distinct counters")
	}
	if a == c {
		t.Error("different labels returned the same counter")
	}
	a.Add(3)
	c.Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `reqs_total{route="/topk"} 3`) || !strings.Contains(out, `reqs_total{route="/paths"} 1`) {
		t.Errorf("label sets not exposed independently:\n%s", out)
	}
	if strings.Count(out, "# TYPE reqs_total counter") != 1 {
		t.Errorf("family header repeated:\n%s", out)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Gauge("x_seconds", "x", nil)
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "registered as gauge and histogram") {
			t.Errorf("re-registering a gauge as a histogram: recovered %q, want a kind clash panic", msg)
		}
	}()
	r.Histogram("x_seconds", "x", LatencyBuckets, nil)
}

// A new family that breaks the naming rules is refused at registration.
func TestRegistrationRefusesBadNames(t *testing.T) {
	for _, tc := range []struct {
		name     string
		register func(r *Registry)
		want     string
	}{
		{"not a base name", func(r *Registry) { r.Counter("Bad-name_total", "h", nil) }, "is not a base name"},
		{"counter without _total", func(r *Registry) { r.Counter("requests", "h", nil) }, "counter without the _total suffix"},
		{"gauge with _total", func(r *Registry) { r.Gauge("depth_total", "h", nil) }, "gauge with the counter suffix"},
		{"func gauge with _total", func(r *Registry) { r.GaugeFunc("depth_total", "h", nil, func() float64 { return 0 }) }, "gauge with the counter suffix"},
		{"histogram without a unit", func(r *Registry) { r.Histogram("latency", "h", LatencyBuckets, nil) }, "histogram without a unit suffix"},
		{"empty help", func(r *Registry) { r.Gauge("depth", "", nil) }, "has no help string"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, tc.want) {
					t.Errorf("recovered %q, want a panic saying %q", msg, tc.want)
				}
			}()
			tc.register(NewRegistry())
		})
	}
}

// GaugeFunc re-registration must repoint the closure (a reopened engine
// replaces a closed one) and expose the fresh value.
func TestGaugeFuncReplace(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("depth", "d", nil, func() float64 { return 1 })
	r.GaugeFunc("depth", "d", nil, func() float64 { return 42 })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "depth 42\n") {
		t.Errorf("GaugeFunc not replaced:\n%s", b.String())
	}
}

// The exposition text must parse as the Prometheus 0.0.4 format: every
// non-comment line is `name[{labels}] value`, every family has exactly
// one TYPE line, histograms end with _sum/_count.
func TestExpositionWellFormed(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "with \"quotes\" and\nnewline", Labels{"p": `v"\x`}).Inc()
	r.Gauge("b", "b", nil).Set(-5)
	r.Histogram("lat_seconds", "latency", LatencyBuckets, Labels{"route": "/x"}).Observe(0.003)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	checkExposition(t, b.String())
}

// checkExposition is a minimal 0.0.4 parser shared with the daemon's
// /metrics golden test via this package's test helpers.
func checkExposition(t *testing.T, out string) {
	t.Helper()
	types := map[string]string{}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if line == "" {
			t.Fatalf("blank line in exposition")
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			if _, dup := types[parts[2]]; dup {
				t.Fatalf("duplicate TYPE for %s", parts[2])
			}
			types[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unknown comment line %q", line)
		}
		name, rest := line, ""
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name, rest = line[:i], line[i:]
		}
		if name == "" {
			t.Fatalf("sample with no name: %q", line)
		}
		if strings.HasPrefix(rest, "{") {
			end := strings.LastIndex(rest, "}")
			if end < 0 {
				t.Fatalf("unterminated label set: %q", line)
			}
			rest = rest[end+1:]
		}
		val := strings.TrimSpace(rest)
		if val == "" {
			t.Fatalf("sample with no value: %q", line)
		}
		if val != "+Inf" && val != "-Inf" && val != "NaN" {
			if _, err := parseFloat(val); err != nil {
				t.Fatalf("sample value %q does not parse: %v", val, err)
			}
		}
		// The sample must belong to a declared family (histogram samples
		// carry the _bucket/_sum/_count suffixes).
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if bn := strings.TrimSuffix(name, suf); bn != name {
				if _, ok := types[bn]; ok {
					base = bn
				}
			}
		}
		if _, ok := types[base]; !ok {
			t.Fatalf("sample %q precedes or lacks its TYPE line", name)
		}
	}
}

func parseFloat(s string) (float64, error) {
	var f float64
	_, err := fmt.Sscanf(s, "%g", &f)
	return f, err
}

// One registry hammered from concurrent writers and scrapers: the -race
// test the ISSUE calls for. Correctness of the final counts is asserted
// too — atomics must not lose increments.
func TestConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	const writers, perWriter = 8, 5000
	var wg, scrapers sync.WaitGroup
	stop := make(chan struct{})
	// Scrapers run the whole time, including during registration of new
	// label children.
	for i := 0; i < 2; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var b strings.Builder
				if err := r.WritePrometheus(&b); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := r.Counter("hammer_total", "h", nil)
			h := r.Histogram("hammer_seconds", "h", LatencyBuckets, nil)
			g := r.Gauge("hammer_depth", "h", nil)
			lab := r.Counter("hammer_labeled_total", "h", Labels{"w": fmt.Sprint(id)})
			t0 := time.Now()
			for j := 0; j < perWriter; j++ {
				c.Inc()
				h.ObserveSince(t0)
				g.Set(int64(j))
				lab.Inc()
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	scrapers.Wait()
	if got := r.Counter("hammer_total", "", nil).Value(); got != writers*perWriter {
		t.Errorf("counter lost increments: %d, want %d", got, writers*perWriter)
	}
	if got := r.Histogram("hammer_seconds", "", LatencyBuckets, nil).Count(); got != writers*perWriter {
		t.Errorf("histogram lost observations: %d, want %d", got, writers*perWriter)
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(0.001, 10, 4)
	want := []float64{0.001, 0.01, 0.1, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
}
