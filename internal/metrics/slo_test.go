package metrics

import (
	"math"
	"strings"
	"testing"
	"time"
)

func sloFixture() (*Registry, SLOOptions) {
	return NewRegistry(), SLOOptions{
		RequestsTotal:  "hotpaths_http_requests_total",
		LatencySeconds: "hotpaths_http_request_seconds",
	}
}

// newTestSLO is an SLO without the background sampler: tests call Sample
// themselves.
func newTestSLO(reg *Registry, o SLOOptions) *SLO {
	return &SLO{reg: reg, o: o, samples: newSLORing()}
}

func TestSLOAvailabilityBurn(t *testing.T) {
	reg, o := sloFixture()
	ok := reg.Counter(o.RequestsTotal, "req", Labels{"route": "/observe", "code": "2xx"})
	bad := reg.Counter(o.RequestsTotal, "req", Labels{"route": "/observe", "code": "5xx"})
	s := newTestSLO(reg, o)
	s.Sample() // zero baseline

	ok.Add(999)
	bad.Add(1)
	st := s.Status()
	// 1/1000 errors against a 99.9% objective is exactly budget rate.
	if math.Abs(st.AvailabilityFast-1.0) > 1e-9 {
		t.Fatalf("availability fast burn = %g, want 1.0", st.AvailabilityFast)
	}
	// One retained sample serves both windows early in life.
	if st.AvailabilityFast != st.AvailabilitySlow {
		t.Fatalf("fast %g != slow %g with a single baseline", st.AvailabilityFast, st.AvailabilitySlow)
	}

	bad.Add(9) // 10/1009 ≈ 9.9x budget
	st = s.Status()
	if st.AvailabilityFast < 9 || st.AvailabilityFast > 11 {
		t.Fatalf("availability burn = %g, want ~9.9", st.AvailabilityFast)
	}
	if st.Max() != st.AvailabilityFast {
		t.Fatalf("Max() = %g, want worst burn %g", st.Max(), st.AvailabilityFast)
	}
}

func TestSLOLatencyBurn(t *testing.T) {
	reg, o := sloFixture()
	h := reg.Histogram(o.LatencySeconds, "latency", LatencyBuckets, Labels{"route": "/topk"})
	s := newTestSLO(reg, o)
	s.Sample()

	for i := 0; i < 99; i++ {
		h.Observe(0.001) // under the 0.25s threshold
	}
	h.Observe(1.5) // over it
	st := s.Status()
	// 1/100 slow against a 99% objective is exactly budget rate.
	if math.Abs(st.LatencyFast-1.0) > 1e-9 {
		t.Fatalf("latency burn = %g, want 1.0", st.LatencyFast)
	}
	if st.AvailabilityFast != 0 {
		t.Fatalf("no requests counted, availability burn = %g, want 0", st.AvailabilityFast)
	}
}

func TestSLOThresholdSnapsToBucket(t *testing.T) {
	reg, o := sloFixture()
	// The 0.25s threshold lies between the 0.1 and 0.5 bounds: it snaps
	// down to 0.1.
	h := reg.Histogram(o.LatencySeconds, "latency", []float64{0.1, 0.5, 1}, nil)
	s := newTestSLO(reg, o)
	s.Sample()
	h.Observe(0.2) // over 0.1, under 0.25: counts as slow after snapping
	if st := s.Status(); st.LatencyFast == 0 {
		t.Fatalf("0.2s observation should burn against a snapped 0.1s threshold, burn = %g", st.LatencyFast)
	}
}

func TestSLOWindowSelection(t *testing.T) {
	reg, o := sloFixture()
	s := newTestSLO(reg, o)
	now := time.Now()
	// Hand-plant a history: an hour-old sample and a 2-minute-old one.
	for _, sm := range []sloSample{
		{t: now.Add(-time.Hour), total: 0, errs: 0},
		{t: now.Add(-2 * time.Minute), total: 1000, errs: 0},
	} {
		s.samples.Put(func(uint64) sloSample { return sm })
	}
	retained := s.samples.All()
	if got := at(retained, now.Add(-fastWindow)); got.total != 0 {
		t.Fatalf("fast window (5m) should reach past the 2m sample to the 1h one, got total=%d", got.total)
	}
	if got := at(retained, now.Add(-time.Minute)); got.total != 1000 {
		t.Fatalf("1m lookback should pick the 2m-old sample, got total=%d", got.total)
	}
}

func TestSLOZeroTraffic(t *testing.T) {
	reg, o := sloFixture()
	s := newTestSLO(reg, o)
	s.Sample()
	st := s.Status()
	if st.Max() != 0 {
		t.Fatalf("zero traffic must burn nothing, got %+v", st)
	}
}

func TestSLOGaugeExposition(t *testing.T) {
	reg, o := sloFixture()
	c := reg.Counter(o.RequestsTotal, "req", Labels{"route": "/paths", "code": "5xx"})
	s := StartSLO(reg, o)
	defer s.Stop()
	c.Add(5)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`hotpaths_slo_availability_burn_ratio{window="fast"}`,
		`hotpaths_slo_availability_burn_ratio{window="slow"}`,
		`hotpaths_slo_latency_burn_ratio{window="fast"}`,
		`hotpaths_slo_latency_burn_ratio{window="slow"}`,
		"hotpaths_slo_availability_objective_ratio 0.999",
		"hotpaths_slo_latency_objective_ratio 0.99",
		"hotpaths_slo_latency_threshold_seconds 0.25",
		"# TYPE hotpaths_slo_availability_burn_ratio gauge",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// All-5xx traffic: fast burn must expose well above budget rate
	// (~1000x; float rendering keeps it just under).
	if !strings.Contains(out, `hotpaths_slo_availability_burn_ratio{window="fast"} 99`) {
		t.Fatalf("100%% errors against 99.9%% objective should expose burn ~1000:\n%s", out)
	}
}
