package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"hotpaths"
	"hotpaths/internal/partition"
)

// counters are the /stats fields the oracle can vouch for.
type counters struct {
	Observations int `json:"observations"`
	Reports      int `json:"reports"`
	Epoch        int `json:"epoch"`
	IndexSize    int `json:"index_size"`
}

// answers is the final state of a deployment as its clients see it.
type answers struct {
	topk, bbox, paths []byte
	stats             counters
}

// fetchAnswers reads the deployment's final answers over HTTP.
func fetchAnswers(c *client, q reads) (answers, error) {
	a := answers{topk: c.get(q.topk), bbox: c.get(q.bbox), paths: c.get("/paths")}
	if err := json.Unmarshal(c.get("/stats"), &a.stats); err != nil {
		return a, fmt.Errorf("decode /stats: %w (last request error: %v)", err, c.lastErr)
	}
	return a, nil
}

// unsigned returns the answers to the two queries with every "-0"
// coordinate written "0", and no /paths. A daemon that recovered from a
// checkpoint serves the same numbers as before the kill but not the same
// bytes: a checkpoint is a gob, gob leaves out a float that compares equal
// to zero, and so a vertex at y = -0 comes back as 0. (The full /paths is
// checked against the oracle, on the daemon that never restarted.)
func (a answers) unsigned() answers {
	unsign := func(b []byte) []byte {
		b = bytes.ReplaceAll(b, []byte(":-0,"), []byte(":0,"))
		return bytes.ReplaceAll(b, []byte(":-0}"), []byte(":0}"))
	}
	return answers{topk: unsign(a.topk), bbox: unsign(a.bbox), stats: a.stats}
}

// diff names the first answer that differs, or returns "".
func (a answers) diff(want answers) string {
	switch {
	case a.stats != want.stats:
		return fmt.Sprintf("/stats: got %+v, want %+v", a.stats, want.stats)
	case !bytes.Equal(a.topk, want.topk):
		return fmt.Sprintf("/topk: got %d bytes %.200q, want %d bytes %.200q", len(a.topk), a.topk, len(want.topk), want.topk)
	case !bytes.Equal(a.bbox, want.bbox):
		return fmt.Sprintf("/paths?bbox: got %d bytes, want %d bytes", len(a.bbox), len(want.bbox))
	case !bytes.Equal(a.paths, want.paths):
		return fmt.Sprintf("/paths: got %d bytes, want %d bytes", len(a.paths), len(want.paths))
	}
	return ""
}

// oracle replays the first upto timestamps of the stream through the
// serial in-process hotpaths.System — the reference every deployment is
// proven bit-identical to — and renders the answers the deployment must
// give. A partitioned fleet is one System per partition fed that
// partition's share, merged the way the gateway documents: hotness summed
// by content-addressed path id, then the canonical order. (One System fed
// the whole stream is not the reference for a fleet: SinglePath reuses
// existing paths, and a partition only knows its own.)
//
// With a recorder, the calls past the warm-up are recorded as
// raytrace.observe (one batch through the per-object filters) and
// coordinator.tick / coordinator.epoch spans, and the reports each epoch
// handed the coordinator are returned.
func oracle(w workload, st *stream, upto int, box hotpaths.Rect, rec *recorder) (a answers, reportsPerEpoch []float64, err error) {
	n := max(w.partitions, 1)
	systems := make([]*hotpaths.System, n)
	for p := range systems {
		sys, err := hotpaths.New(w.config(st.bounds))
		if err != nil {
			return a, nil, err
		}
		systems[p] = sys
	}
	reportsAt := make([]int, n) // each System's report count at its last epoch
	for i, batch := range st.batches[:upto] {
		t := i + 1
		r := rec
		if i < w.warmup {
			r = nil
		}
		for p, sys := range systems {
			sp := r.start("raytrace.observe", 0, t)
			for _, o := range batch {
				if n > 1 && partition.Index(o.ObjectID, n) != p {
					continue
				}
				if err := sys.Observe(o.ObjectID, o.X, o.Y, o.T); err != nil {
					return a, nil, fmt.Errorf("oracle observe t=%d: %w", t, err)
				}
			}
			r.end(sp)
			name := "coordinator.tick"
			if t%epochLen == 0 {
				name = "coordinator.epoch"
			}
			reports := sys.Stats().Reports
			sp = r.start(name, 0, t)
			if err := sys.Tick(int64(t)); err != nil {
				return a, nil, fmt.Errorf("oracle tick t=%d: %w", t, err)
			}
			r.end(sp)
			if t%epochLen == 0 {
				if r != nil {
					reportsPerEpoch = append(reportsPerEpoch, float64(reports-reportsAt[p]))
				}
				reportsAt[p] = reports
			}
		}
	}

	byID := map[uint64]hotpaths.HotPath{}
	for _, sys := range systems {
		s := sys.Stats()
		a.stats.Observations += s.Observations
		a.stats.Reports += s.Reports
		a.stats.IndexSize += s.IndexSize
		a.stats.Epoch = max(a.stats.Epoch, s.Epochs)
		for _, hp := range sys.HotPaths() {
			hp.Hotness += byID[hp.ID].Hotness
			byID[hp.ID] = hp
		}
	}
	all := make([]hotpaths.HotPath, 0, len(byID))
	for _, hp := range byID {
		all = append(all, hp)
	}
	hotpaths.SortResults(all, hotpaths.ByHotness)
	var inBox []hotpaths.HotPath
	for _, hp := range all {
		if hp.End.X >= box.Min.X && hp.End.X <= box.Max.X && hp.End.Y >= box.Min.Y && hp.End.Y <= box.Max.Y {
			inBox = append(inBox, hp)
		}
	}
	a.paths = encodePaths(all)
	a.topk = encodePaths(all[:min(topK, len(all))])
	a.bbox = encodePaths(inBox)
	return a, reportsPerEpoch, nil
}

// encodePaths renders a result the way the daemons' writeJSON does.
func encodePaths(paths []hotpaths.HotPath) []byte {
	var buf bytes.Buffer
	// Encoding a slice of plain structs cannot fail.
	_ = json.NewEncoder(&buf).Encode(hotpaths.PathsJSON(paths))
	return buf.Bytes()
}
