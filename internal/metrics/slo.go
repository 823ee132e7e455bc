package metrics

import (
	"strings"
	"sync"
	"time"

	"hotpaths/internal/ringbuf"
)

// SLOOptions names the instruments, already held by a registry, that
// multi-window SLO burn-rate derivation reads: the per-route request
// counters and latency histograms the HTTP layers register. Derivation is
// pure scrape-side arithmetic: nothing new is recorded on the request
// path.
type SLOOptions struct {
	// RequestsTotal names the counter family carrying one counter per
	// {route, code} with code a status class ("2xx".."5xx"). Requests in
	// the "5xx" class spend availability error budget.
	RequestsTotal string
	// LatencySeconds names the histogram family carrying one latency
	// histogram per route. Observations over latencyThreshold spend
	// latency error budget.
	LatencySeconds string
}

// The objectives, windows and sampling cadence every SLO derives with.
const (
	// availabilityObjective is the target fraction of non-5xx requests.
	availabilityObjective = 0.999
	// latencyObjective is the target fraction of requests under
	// latencyThreshold seconds. The threshold is snapped down to a bucket
	// bound at evaluation, since bucket counts are the only
	// sub-histogram resolution available.
	latencyObjective = 0.99
	latencyThreshold = 0.25

	// fastWindow catches fast burn (an incident in progress); slowWindow
	// catches slow burn (budget leaking away). sampleInterval is the
	// sampling cadence that bounds window resolution.
	fastWindow     = 5 * time.Minute
	slowWindow     = time.Hour
	sampleInterval = 10 * time.Second
)

// sloSample is one cumulative reading of the SLO inputs.
type sloSample struct {
	t                 time.Time
	total, errs       uint64 // requests, 5xx requests
	latTotal, latGood uint64 // latency observations, under-threshold ones
}

// SLOStatus is one evaluation of every burn gauge, for /healthz
// component breakdowns and tests.
type SLOStatus struct {
	AvailabilityFast float64 `json:"availability_burn_fast"`
	AvailabilitySlow float64 `json:"availability_burn_slow"`
	LatencyFast      float64 `json:"latency_burn_fast"`
	LatencySlow      float64 `json:"latency_burn_slow"`
}

// Max returns the worst burn across objectives and windows.
func (s SLOStatus) Max() float64 {
	m := s.AvailabilityFast
	for _, v := range []float64{s.AvailabilitySlow, s.LatencyFast, s.LatencySlow} {
		if v > m {
			m = v
		}
	}
	return m
}

// SLO derives multi-window burn rates from a registry's own instruments.
// A burn rate of 1.0 means error budget is being spent exactly as fast
// as the objective allows over that window; an alert rule pages on
// sustained fast-window burn well above 1 (see the README's starter
// expressions).
type SLO struct {
	reg     *Registry
	o       SLOOptions
	samples *ringbuf.Ring[sloSample] // oldest overwritten

	stop     chan struct{}
	stopOnce sync.Once
}

// StartSLO registers the hotpaths_slo_* gauge families on reg and starts
// the background sampler feeding them. The gauges are computed at scrape
// time from retained samples; the request path pays nothing.
func StartSLO(reg *Registry, o SLOOptions) *SLO {
	s := &SLO{reg: reg, o: o, samples: newSLORing(), stop: make(chan struct{})}
	s.Sample()

	reg.GaugeFunc("hotpaths_slo_availability_objective_ratio",
		"configured availability SLO: target fraction of non-5xx requests",
		nil, func() float64 { return availabilityObjective })
	reg.GaugeFunc("hotpaths_slo_latency_objective_ratio",
		"configured latency SLO: target fraction of requests under the threshold",
		nil, func() float64 { return latencyObjective })
	reg.GaugeFunc("hotpaths_slo_latency_threshold_seconds",
		"latency SLO threshold (snapped down to a histogram bucket bound)",
		nil, func() float64 { return latencyThreshold })
	reg.GaugeFunc("hotpaths_slo_availability_burn_ratio",
		"availability error-budget burn rate over the window (1.0 = spending budget exactly at the objective rate)",
		Labels{"window": "fast"}, func() float64 { return s.Status().AvailabilityFast })
	reg.GaugeFunc("hotpaths_slo_availability_burn_ratio",
		"availability error-budget burn rate over the window (1.0 = spending budget exactly at the objective rate)",
		Labels{"window": "slow"}, func() float64 { return s.Status().AvailabilitySlow })
	reg.GaugeFunc("hotpaths_slo_latency_burn_ratio",
		"latency error-budget burn rate over the window (1.0 = spending budget exactly at the objective rate)",
		Labels{"window": "fast"}, func() float64 { return s.Status().LatencyFast })
	reg.GaugeFunc("hotpaths_slo_latency_burn_ratio",
		"latency error-budget burn rate over the window (1.0 = spending budget exactly at the objective rate)",
		Labels{"window": "slow"}, func() float64 { return s.Status().LatencySlow })

	go s.run()
	return s
}

// newSLORing holds one slow window of samples plus two, so the start of
// the slow window always has a retained sample at or before it.
func newSLORing() *ringbuf.Ring[sloSample] {
	return ringbuf.New[sloSample](int(slowWindow/sampleInterval) + 2)
}

func (s *SLO) run() {
	t := time.NewTicker(sampleInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.Sample()
		}
	}
}

// Stop halts the background sampler. The gauges keep answering from
// retained samples.
func (s *SLO) Stop() { s.stopOnce.Do(func() { close(s.stop) }) }

// Sample takes one cumulative reading now. The background sampler calls
// it on its cadence; tests call it directly to advance time-free.
func (s *SLO) Sample() {
	sm := s.collect()
	s.samples.Put(func(uint64) sloSample { return sm })
}

// collect reads the cumulative SLO inputs from the registry's live
// instruments.
func (s *SLO) collect() sloSample {
	sm := sloSample{t: time.Now()}
	s.reg.mu.Lock()
	defer s.reg.mu.Unlock()
	if f, ok := s.reg.families[s.o.RequestsTotal]; ok && f.kind == kindCounter {
		for key, m := range f.metrics {
			c, ok := m.(*Counter)
			if !ok {
				continue
			}
			v := c.Value()
			sm.total += v
			if isErrorClass(key) {
				sm.errs += v
			}
		}
	}
	if f, ok := s.reg.families[s.o.LatencySeconds]; ok && f.kind == kindHistogram {
		for _, m := range f.metrics {
			h, ok := m.(*Histogram)
			if !ok {
				continue
			}
			sm.latTotal += h.Count()
			var under uint64
			for i, b := range h.bounds {
				if b > latencyThreshold {
					break
				}
				under += h.counts[i].Load()
			}
			sm.latGood += under
		}
	}
	return sm
}

// isErrorClass reports whether a rendered label key carries code="5xx".
// Label keys are rendered with sorted names and quoted values, so a
// substring probe is exact.
func isErrorClass(renderedLabels string) bool {
	return strings.Contains(renderedLabels, `code="5xx"`)
}

// Status evaluates every burn gauge now.
func (s *SLO) Status() SLOStatus {
	cur := s.collect()
	retained := s.samples.All()
	fast := at(retained, cur.t.Add(-fastWindow))
	slow := at(retained, cur.t.Add(-slowWindow))
	return SLOStatus{
		AvailabilityFast: burn(cur.total-fast.total, cur.errs-fast.errs, availabilityObjective),
		AvailabilitySlow: burn(cur.total-slow.total, cur.errs-slow.errs, availabilityObjective),
		LatencyFast:      burn(cur.latTotal-fast.latTotal, (cur.latTotal-cur.latGood)-(fast.latTotal-fast.latGood), latencyObjective),
		LatencySlow:      burn(cur.latTotal-slow.latTotal, (cur.latTotal-cur.latGood)-(slow.latTotal-slow.latGood), latencyObjective),
	}
}

// at returns the newest of the retained samples (oldest first) at or
// before t, or the oldest when none is old enough (early in process life,
// every window degrades to "since start", which is the honest answer).
func at(retained []sloSample, t time.Time) sloSample {
	if len(retained) == 0 {
		return sloSample{}
	}
	best := retained[0]
	for _, sm := range retained[1:] {
		if sm.t.After(t) {
			break
		}
		best = sm
	}
	return best
}

// burn turns a windowed (total, bad) delta into an error-budget burn
// rate against the objective: badFraction / (1 - objective). No traffic
// burns nothing.
func burn(total, bad uint64, objective float64) float64 {
	if total == 0 {
		return 0
	}
	return (float64(bad) / float64(total)) / (1 - objective)
}
