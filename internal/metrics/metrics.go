// Package metrics is a zero-dependency metrics registry with Prometheus
// text-format exposition. It backs the observability layer of every hot
// subsystem — engine ingest, WAL, replication, subscriptions and the
// hotpathsd HTTP surface.
//
// # Model
//
// A Registry holds named metric families; each family holds one metric
// per label set. Three kinds exist, mirroring the Prometheus data model:
//
//   - Counter: a monotone uint64, updated with a single atomic add.
//   - Gauge: an int64 that can move both ways, plus GaugeFunc for values
//     computed at scrape time (e.g. queue depths, subscriber counts).
//   - Histogram: fixed upper-bound buckets with cumulative exposition
//     ("le" labels, +Inf, _sum, _count). Buckets are chosen at creation
//     and never reallocated, so Observe is a binary search plus two
//     atomic adds — cheap enough for per-batch ingest instrumentation.
//
// # Concurrency
//
// Registration (Counter/Gauge/Histogram/GaugeFunc) takes the registry
// mutex and is idempotent: the same name+labels returns the same
// instance, so packages may re-register from every constructor without
// leaking families. Updates on the returned handles are lock-free
// atomics, safe under -race from any number of goroutines concurrently
// with exposition. WritePrometheus takes the mutex only to snapshot the
// family list; values are read with atomic loads, so a scrape observes
// each metric at one instant but the scrape as a whole is not a
// transaction (standard Prometheus semantics).
//
// A new family must follow the Prometheus naming conventions: counters
// end in _total, nothing else does, histograms carry a unit suffix, and
// every family has a help string. Registration panics otherwise, as it
// does when a name is registered again as another kind.
//
// Metrics are process-global by design (the Default registry): two
// engines in one process share families exactly as two libraries
// sharing a Prometheus default registerer would.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Labels attaches dimension values to a metric within its family
// (e.g. {"route": "/topk"}). Nil means no labels.
type Labels map[string]string

// kind is the family's exposition TYPE line.
type kind string

const (
	kindCounter   kind = "counter"
	kindGauge     kind = "gauge"
	kindHistogram kind = "histogram"
)

// Registry is a set of metric families. The zero value is not usable;
// call NewRegistry (or use Default).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

type family struct {
	name, help string
	kind       kind
	metrics    map[string]metric // keyed by rendered label string
	order      []string          // registration order, for stable exposition
}

// metric is anything a family can expose.
type metric interface {
	write(w io.Writer, name, labelStr string) error
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Default is the process-wide registry every package-level metric
// registers with; Handler exposes it.
var Default = NewRegistry()

// family returns (creating if needed) the named family. It panics on a
// programming error: a new family whose name or help breaks the naming
// rules (see checkFamily), or a name registered again as another kind.
// Every registration runs at package init or in a constructor under
// test, so a bad name fails the tests of every package that links it.
func (r *Registry) family(name, help string, k kind) *family {
	f, ok := r.families[name]
	if !ok {
		checkFamily(name, help, k)
		f = &family{name: name, help: help, kind: k, metrics: make(map[string]metric)}
		r.families[name] = f
		return f
	}
	if f.kind != k {
		panic(fmt.Sprintf("metrics: %s registered as %s and %s", name, f.kind, k))
	}
	return f
}

// checkFamily panics unless a new family follows the Prometheus naming
// conventions dashboards and alerts key on: a base name matching
// ^[a-z][a-z0-9_]*$, the _total suffix on counters and only there, a unit
// suffix (_seconds, _bytes or _records) on histograms, and a help string.
func checkFamily(name, help string, k kind) {
	problem := ""
	switch {
	case !baseName.MatchString(name):
		problem = "is not a base name matching ^[a-z][a-z0-9_]*$"
	case k == kindCounter && !strings.HasSuffix(name, "_total"):
		problem = "is a counter without the _total suffix"
	case k != kindCounter && strings.HasSuffix(name, "_total"):
		problem = fmt.Sprintf("is a %s with the counter suffix _total", k)
	case k == kindHistogram && !strings.HasSuffix(name, "_seconds") &&
		!strings.HasSuffix(name, "_bytes") && !strings.HasSuffix(name, "_records"):
		problem = "is a histogram without a unit suffix (_seconds, _bytes or _records)"
	case help == "":
		problem = "has no help string"
	}
	if problem != "" {
		panic(fmt.Sprintf("metrics: %s %s", name, problem))
	}
}

var baseName = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// get returns the family's metric for the label set, creating it with
// mk when absent.
func (f *family) get(labels Labels, mk func() metric) metric {
	key := renderLabels(labels)
	m, ok := f.metrics[key]
	if !ok {
		m = mk()
		f.metrics[key] = m
		f.order = append(f.order, key)
	}
	return m
}

// Counter returns the named counter, registering it on first use.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.family(name, help, kindCounter).get(labels, func() metric { return &Counter{} })
	c, ok := m.(*Counter)
	if !ok {
		panic(fmt.Sprintf("metrics: %s%s is not a counter", name, renderLabels(labels)))
	}
	return c
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.family(name, help, kindGauge).get(labels, func() metric { return &Gauge{} })
	g, ok := m.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("metrics: %s%s is not a settable gauge", name, renderLabels(labels)))
	}
	return g
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time — for values the owner already tracks (queue depths, map sizes)
// where mirroring into a stored gauge would just add a write path.
// Re-registering the same name+labels replaces fn, so a reconstructed
// owner (a reopened engine) repoints the gauge at its live state instead
// of scraping a dead closure.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kindGauge)
	key := renderLabels(labels)
	if m, ok := f.metrics[key]; ok {
		gf, ok := m.(*gaugeFunc)
		if !ok {
			panic(fmt.Sprintf("metrics: %s%s is not a func gauge", name, key))
		}
		gf.fn.Store(&fn)
		return
	}
	gf := &gaugeFunc{}
	gf.fn.Store(&fn)
	f.metrics[key] = gf
	f.order = append(f.order, key)
}

// Histogram returns the named histogram, registering it on first use
// with the given bucket upper bounds (strictly increasing; +Inf is
// implicit). Later calls for the same name+labels return the existing
// histogram and ignore buckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels Labels) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.family(name, help, kindHistogram).get(labels, func() metric { return newHistogram(buckets) })
	h, ok := m.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("metrics: %s%s is not a histogram", name, renderLabels(labels)))
	}
	return h
}

// Counter is a monotonically increasing value.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) write(w io.Writer, name, labelStr string) error {
	_, err := fmt.Fprintf(w, "%s%s %d\n", name, labelStr, c.v.Load())
	return err
}

// Gauge is a value that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (negative to subtract).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) write(w io.Writer, name, labelStr string) error {
	_, err := fmt.Fprintf(w, "%s%s %d\n", name, labelStr, g.v.Load())
	return err
}

type gaugeFunc struct {
	fn atomic.Pointer[func() float64]
}

func (g *gaugeFunc) write(w io.Writer, name, labelStr string) error {
	v := 0.0
	if fn := g.fn.Load(); fn != nil {
		v = (*fn)()
	}
	_, err := fmt.Fprintf(w, "%s%s %s\n", name, labelStr, formatFloat(v))
	return err
}

// Histogram counts observations into fixed buckets. Observe is safe for
// concurrent use; the exposition is cumulative per Prometheus convention
// (a bucket's count includes every smaller bucket, le is inclusive).
type Histogram struct {
	bounds []float64       // upper bounds, strictly increasing
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Uint64
	sum    atomicFloat
}

func newHistogram(buckets []float64) *Histogram {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("metrics: histogram buckets not strictly increasing at %g", buckets[i]))
		}
	}
	bounds := append([]float64(nil), buckets...)
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// SearchFloat64s finds the first bound >= v only via >=: it returns
	// the insertion point for v, which lands on the bucket whose bound
	// equals v (le is inclusive) or the next greater one.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
}

// ObserveSince records the seconds elapsed since t0 — the one-line form
// for latency instrumentation.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0).Seconds()) }

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.load() }

func (h *Histogram) write(w io.Writer, name, labelStr string) error {
	// Merge the le label into any existing label set.
	prefix := "{"
	if labelStr != "" {
		prefix = labelStr[:len(labelStr)-1] + ","
	}
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket%sle=%q} %d\n", name, prefix, formatFloat(b), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket%sle=\"+Inf\"} %d\n", name, prefix, cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, labelStr, formatFloat(h.sum.load())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labelStr, h.count.Load())
	return err
}

// atomicFloat accumulates float64 values with a CAS loop.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// ExpBuckets returns n strictly increasing buckets starting at start,
// each factor times the previous.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("metrics: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LatencyBuckets spans 10µs to ~20s in 1-2.5-5 steps — wide enough for
// both an in-memory batch enqueue and a cold checkpoint write.
var LatencyBuckets = []float64{
	10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5, 10, 20,
}

// SizeBuckets is a power-of-two ladder for batch sizes and byte counts.
var SizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536}

// WritePrometheus writes every family in name order in the Prometheus
// text exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	// Snapshot each family's metric list under the lock; values are read
	// atomically afterwards, so a long scrape never blocks registration.
	type snap struct {
		f    *family
		keys []string
	}
	snaps := make([]snap, len(fams))
	for i, f := range fams {
		snaps[i] = snap{f: f, keys: append([]string(nil), f.order...)}
	}
	r.mu.Unlock()
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].f.name < snaps[j].f.name })

	for _, s := range snaps {
		if s.f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", s.f.name, escapeHelp(s.f.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.f.name, s.f.kind); err != nil {
			return err
		}
		for _, key := range s.keys {
			r.mu.Lock()
			m := s.f.metrics[key]
			r.mu.Unlock()
			if m == nil {
				continue
			}
			if err := m.write(w, s.f.name, key); err != nil {
				return err
			}
		}
	}
	return nil
}

// Handler serves the Default registry as a Prometheus scrape target.
func Handler() http.Handler { return HandlerFor(Default) }

// HandlerFor serves r as a Prometheus scrape target.
func HandlerFor(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// Errors past the header are client disconnects; nothing to do.
		_ = r.WritePrometheus(w)
	})
}

// renderLabels serialises a label set as {k="v",...} with sorted keys, or
// "" for no labels — the canonical per-family metric key.
func renderLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(labels[k]))
	}
	b.WriteByte('}')
	return b.String()
}

// formatFloat renders a float the way Prometheus clients do: shortest
// representation that round-trips.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
