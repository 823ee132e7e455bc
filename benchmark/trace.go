package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Trace: the timestamp a write carries, or the index of a read.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
	ID     int    `json:"id"`     // 1-based
	Parent int    `json:"parent"` // 0 for a root
	Trace  int    `json:"trace"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so traced and untraced runs share one code path.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span and returns its id, 0 on a nil recorder.
func (r *recorder) start(name string, parent, trace int) int {
	if r == nil {
		return 0
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Trace: trace, Start: int64(time.Since(r.t0))})
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id-1].End = int64(time.Since(r.t0))
}

// durations returns, in ms, the length of every span called name whose
// parent is called under ("" matches any parent, roots included).
func (r *recorder) durations(under, name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name != name {
			continue
		}
		if under != "" && (s.Parent == 0 || r.spans[s.Parent-1].Name != under) {
			continue
		}
		out = append(out, ms(time.Duration(s.End-s.Start)))
	}
	return out
}

// selfMillis is each span name's total self time in ms: its spans'
// durations minus the part their child spans cover.
func (r *recorder) selfMillis() map[string]float64 {
	self := make([]int64, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.End - s.Start
		if s.Parent != 0 {
			self[s.Parent-1] -= s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range r.spans {
		out[s.Name] += ms(time.Duration(self[i]))
	}
	return out
}

// perSpanCost times the recorder itself, for loadgen.trace_overhead_frac.
func perSpanCost() time.Duration {
	const n = 100000
	r := newRecorder()
	t0 := time.Now()
	for i := range n {
		r.end(r.start("calibrate", 0, i))
	}
	return time.Since(t0) / n
}

// write stores the spans and the per-name self times as JSON.
func (r *recorder) write(path string) error {
	b, err := json.Marshal(map[string]any{"self_ms": r.selfMillis(), "spans": r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
