package gateway

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"hotpaths"
	"hotpaths/internal/httpapi"
)

// The /watch fan-in merges the partitions' per-epoch delta streams into
// one stream a client cannot tell from a single hotpathsd's.
//
// Each partition stream is consumed with limit=0 — deltas over the
// partition's full (bbox-filtered) result — and replayed through
// Delta.Apply, so the gateway always holds every partition's complete
// result at each epoch. A collector waits until all partitions have
// reached a common epoch, merges their results (sum hotness by id),
// applies the client's query, and emits the diff against the previously
// emitted result — the same diff a single node would have computed over
// the same merged state. The partition streams carry the one-shot reads'
// pushdown (bbox alone; see the package doc), so k and min_hotness hold
// of the merged result.
//
// A partition stream that re-baselines (its reset with missed > 0 means
// it skipped epochs) leaves holes no merged increment can cross, so the
// fan-in emits its own reset with the skipped epochs counted in missed —
// the exact contract a single daemon's slow-consumer path has. A
// partition stream that dies, or whose result the merge refuses (a
// negative hotness, a sum that overflows int), ends the merged stream;
// the client reconnects and re-baselines, which is already its reconnect
// story.

// partUpdate is one partition's rebuilt full result at one epoch.
type partUpdate struct {
	idx   int
	epoch int64
	clock int64
	state []hotpaths.HotPath
}

// openWatch starts one partition's delta stream. Neither the request
// context nor http.DefaultClient has a deadline — streams live as long as
// the client — so it is not routed through Gateway.call.
func (g *Gateway) openWatch(ctx context.Context, p *part, leg string) (*http.Response, error) {
	u := p.url + "/watch?limit=0"
	if leg != "" {
		u += "&" + leg
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, readError(resp)
	}
	return resp, nil
}

// watchPartition consumes one partition's SSE stream, rebuilding its
// full result with Delta.Apply and pushing one partUpdate per epoch.
func (g *Gateway) watchPartition(ctx context.Context, idx int, resp *http.Response, updates chan<- partUpdate) error {
	defer resp.Body.Close()
	rd := httpapi.NewDeltaReader(resp.Body)
	var prev []hotpaths.HotPath
	for {
		d, err := rd.Next()
		if err != nil {
			return fmt.Errorf("stream ended: %w", err)
		}
		prev = d.Apply(prev)
		select {
		case updates <- partUpdate{idx: idx, epoch: d.Epoch, clock: d.Clock, state: prev}:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// mergeStates merges the partitions' results at one epoch, in table
// order, into one snapshot with k as its TopK cap: the one-shot reads'
// union (see merge.go), fed decoded paths.
func mergeStates(states [][]hotpaths.HotPath, k int) (hotpaths.Snapshot, error) {
	n := 0
	for _, st := range states {
		n += len(st)
	}
	u := newUnion(n)
	for i, st := range states {
		for _, hp := range st {
			if err := u.add(hp); err != nil {
				return hotpaths.Snapshot{}, fmt.Errorf("partition %d: %w", i, err)
			}
		}
	}
	return u.snapshot(k), nil
}

// handleWatch serves GET /watch: the merged SSE delta stream, with
// hotpathsd's parameters and framing.
func (g *Gateway) handleWatch(w http.ResponseWriter, r *http.Request) {
	q, err := httpapi.ParseQuery(r, g.cfg.K)
	if err != nil {
		httpapi.Error(w, http.StatusBadRequest, err)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpapi.Error(w, http.StatusInternalServerError, errors.New("streaming unsupported by connection"))
		return
	}
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()

	// Open every partition stream before committing to SSE, so a dead
	// partition is a clean 503 instead of a stream that never baselines.
	leg := pushdown(r.URL.Query())
	resps := make([]*http.Response, len(g.parts))
	for i, p := range g.parts {
		resp, err := g.openWatch(ctx, p, leg)
		if err != nil {
			for _, open := range resps[:i] {
				open.Body.Close()
			}
			httpapi.Error(w, http.StatusServiceUnavailable, partError{id: p.id, err: err})
			return
		}
		resps[i] = resp
	}

	httpapi.StartSSE(w, fl)

	updates := make(chan partUpdate)
	readerErr := make(chan error, len(g.parts))
	for i := range g.parts {
		go func(i int) {
			readerErr <- g.watchPartition(ctx, i, resps[i], updates)
		}(i)
	}

	// pending holds, per partition, the rebuilt results for epochs not
	// yet folded into the merged stream.
	pending := make([]map[int64]partUpdate, len(g.parts))
	for i := range pending {
		pending[i] = make(map[int64]partUpdate)
	}
	var (
		prevResult []hotpaths.HotPath
		lastEpoch  int64
		started    bool
	)
	emit := func(e partUpdate, states [][]hotpaths.HotPath, clock int64) error {
		merged, err := mergeStates(states, g.cfg.K)
		if err != nil {
			return err
		}
		cur := merged.Query(q)
		var d hotpaths.Delta
		if !started || e.epoch != lastEpoch+1 {
			// First event, or a partition re-baselined across missed
			// epochs: no increment can span the gap, so the merged
			// stream resets the same way a single daemon would.
			missed := 0
			if started {
				missed = int(e.epoch - lastEpoch - 1)
			}
			d = hotpaths.Delta{
				Clock: clock, Epoch: e.epoch,
				Entered: cur, Reset: true, Missed: missed, Order: q.Order(),
			}
		} else {
			d = hotpaths.DiffResults(prevResult, cur, q.Order())
			d.Clock, d.Epoch = clock, e.epoch
		}
		started, lastEpoch, prevResult = true, e.epoch, cur
		if err := httpapi.WriteDelta(w, d); err != nil {
			return err
		}
		fl.Flush()
		return nil
	}

	for {
		select {
		case <-ctx.Done():
			return
		case <-g.closing:
			return
		case <-readerErr:
			// One partition's stream died: the merged stream cannot stay
			// complete, so end it and let the client reconnect.
			return
		case u := <-updates:
			pending[u.idx][u.epoch] = u
			for {
				// The next merged epoch is the highest "smallest pending
				// epoch" across partitions: everything below it can never
				// be completed (some partition has already moved past).
				target := int64(-1)
				complete := true
				for i := range pending {
					min := int64(-1)
					for e := range pending[i] {
						if min == -1 || e < min {
							min = e
						}
					}
					if min == -1 {
						complete = false
						break
					}
					if min > target {
						target = min
					}
				}
				if !complete {
					break
				}
				ready := true
				for i := range pending {
					for e := range pending[i] {
						if e < target {
							delete(pending[i], e)
						}
					}
					if _, has := pending[i][target]; !has {
						ready = false
					}
				}
				if !ready {
					break
				}
				states := make([][]hotpaths.HotPath, len(pending))
				var clock int64
				var at partUpdate
				for i := range pending {
					at = pending[i][target]
					states[i] = at.state
					if at.clock > clock {
						clock = at.clock
					}
					delete(pending[i], target)
				}
				at.epoch = target
				if err := emit(at, states, clock); err != nil {
					return
				}
			}
		}
	}
}
