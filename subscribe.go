package hotpaths

import (
	"errors"
	"sync"

	"hotpaths/internal/flightrec"
	"hotpaths/internal/motion"
)

// ErrSourceClosed is returned by Subscribe on a deployment that has been
// closed: no further epochs will ever be published, so a standing query
// against it could never fire.
var ErrSourceClosed = errors.New("hotpaths: source closed; no further epochs will be published")

// subscriptionBuffer is the per-subscription delta channel capacity. A
// consumer that falls further behind than this does not block ingestion;
// the oldest undelivered deltas are condensed (see Delta.Missed).
const subscriptionBuffer = 16

// Delta is one epoch's change to a subscription's result set: the paths
// that entered the result, left it, or stayed but changed hotness (path
// geometry is immutable per id, so hotness — and with it score — is the
// only thing that can change). A delta is emitted once per epoch boundary,
// even when nothing changed (an empty delta doubles as a liveness signal
// for network watchers).
//
// Applied to the previous result set with Apply, a delta reproduces
// exactly what Snapshot().Query(q) would have returned at the boundary —
// the subscription golden tests enforce this bit for bit across the
// System, Engine and Durable deployments.
type Delta struct {
	// Clock is the source clock at the epoch boundary that produced this
	// delta (Snapshot.Clock() of the snapshot it was diffed against).
	Clock int64

	// Epoch is the coordinator's epoch sequence number at the boundary
	// (Snapshot.Epoch()); it is strictly increasing along a subscription
	// after the initial baseline delta, so network consumers can use it
	// as a resume cursor.
	Epoch int64

	// Entered holds the paths now in the result set that were absent from
	// the previous delta's result, in result order. On a Reset delta it
	// holds the query's entire current result.
	Entered []HotPath

	// Changed holds the paths present in both results whose hotness
	// changed, with their new values, in result order.
	Changed []HotPath

	// Left holds the ids of paths that dropped out of the result set —
	// expired from the window, fallen below MinHotness, or displaced from
	// the top-k.
	Left []uint64

	// Reset marks a delta that carries the query's full current result in
	// Entered instead of an incremental diff: Apply discards the previous
	// result and starts over from it. The first delta of every
	// subscription is a reset (the baseline), and so is the delta that
	// follows a buffer overflow — so a consumer that fell behind is
	// re-baselined automatically and never has to resynchronise by hand.
	Reset bool

	// Missed counts the epochs whose deltas were dropped because the
	// subscriber's buffer was full; it is non-zero only on a Reset delta,
	// which replaces everything the dropped deltas would have said.
	Missed int

	// Order is the subscription query's sort order; Apply uses it to
	// restore result order.
	Order SortOrder
}

// Empty reports whether the delta carries no change (a pure heartbeat).
func (d Delta) Empty() bool {
	return len(d.Entered) == 0 && len(d.Changed) == 0 && len(d.Left) == 0
}

// Apply transforms the previous result set by the delta and returns the
// new result in the query's order — exactly the slice Snapshot().Query(q)
// would have produced at the delta's epoch. prev is not modified. The
// very first delta of a subscription applies to nil.
func (d Delta) Apply(prev []HotPath) []HotPath {
	if d.Reset {
		// The full result rides in Entered, already in query order. The
		// copy is non-nil even when empty, matching what Query returns.
		return append(make([]HotPath, 0, len(d.Entered)), d.Entered...)
	}
	m := make(map[uint64]HotPath, len(prev)+len(d.Entered))
	for _, hp := range prev {
		m[hp.ID] = hp
	}
	for _, id := range d.Left {
		delete(m, id)
	}
	for _, hp := range d.Changed {
		m[hp.ID] = hp
	}
	for _, hp := range d.Entered {
		m[hp.ID] = hp
	}
	out := make([]HotPath, 0, len(m))
	for _, hp := range m {
		out = append(out, hp)
	}
	sortResults(out, d.Order)
	return out
}

// SortResults orders a result set in place the way Snapshot.Query
// materialises it: the canonical hottest-first order for ByHotness
// (hotness desc, length desc, id asc — coordinator.TopK's comparator),
// the score order for ByScore. Both orders are total, so any multiset of
// paths has exactly one sorted form — which is what lets a scatter-gather
// reader merge per-partition results and reproduce, byte for byte, the
// order a single deployment would have produced.
func SortResults(out []HotPath, order SortOrder) { sortResults(out, order) }

// DiffResults computes the Delta between two materialised results of the
// same query, exactly as the subscription hub does at each epoch
// boundary: Entered/Changed in cur's order, Left in prev's order. Clock
// and Epoch are left zero for the caller to fill in. It is exported for
// readers that rebuild a delta stream from merged per-partition results
// (the gateway's /watch fan-in) and must emit the identical deltas a
// single deployment's hub would have.
func DiffResults(prev, cur []HotPath, order SortOrder) Delta {
	return diffResults(prev, cur, order)
}

// sortResults orders a result set the way Snapshot.Query materialises it:
// the canonical hottest-first order for ByHotness, the score order for
// ByScore. Both keys end in the path id, so the order is total and
// reconstruction is deterministic.
//
// The ByHotness key MUST stay motion.HotPath.Rank (hotness desc, length
// desc, id asc), the order coordinator.TopK hands the snapshot layer —
// Delta.Apply's exactness guarantee rides on reproducing it;
// TestSubscriptionMatchesSnapshots pins the contract.
func sortResults(out []HotPath, order SortOrder) {
	if order == ByScore {
		motion.SortRanked(out, func(hp *HotPath) motion.RankKey {
			return motion.RankKey{Major: hp.Score(), Minor: float64(hp.Hotness), ID: hp.ID}
		})
		return
	}
	motion.SortRanked(out, func(hp *HotPath) motion.RankKey {
		return motion.RankKey{Major: float64(hp.Hotness), Minor: hp.Length(), ID: hp.ID}
	})
}

// Subscription is a standing query registered with Subscribe. Deltas
// arrive on its channel once per epoch boundary until Close — the
// subscriber's own Close, or the owning Engine/Durable shutting down
// (which closes the channel). Close and channel reads are safe from any
// goroutine.
type Subscription struct {
	hub *hub
	id  uint64
	q   Query
	ch  chan Delta

	// prev is the result set of the last published delta, and lastEpoch
	// the epoch sequence it was taken at; owned by the hub and guarded by
	// hub.mu.
	prev      []HotPath
	lastEpoch int64
}

// Deltas returns the subscription's delta channel. It is closed when the
// subscription — or the source behind it — is closed.
func (s *Subscription) Deltas() <-chan Delta { return s.ch }

// Query returns the standing query the subscription evaluates.
func (s *Subscription) Query() Query { return s.q }

// Close unregisters the subscription and closes its channel. It is
// idempotent and safe to call concurrently with epoch publication.
func (s *Subscription) Close() {
	h := s.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.subs[s.id]; !ok {
		return // already closed, by us or by the source shutting down
	}
	delete(h.subs, s.id)
	mSubscribers.Add(-1)
	close(s.ch)
}

// hub fans epoch snapshots out to the standing subscriptions of one
// deployment. Publication happens on the ingestion path (inside Tick, at
// the epoch boundary), so every send is non-blocking: a full buffer
// condenses deltas instead of stalling the epoch. hub.mu is a leaf lock —
// nothing is acquired while holding it — so publish may safely run under
// the Engine's write lock.
type hub struct {
	mu     sync.Mutex
	subs   map[uint64]*Subscription
	nextID uint64
	closed bool
}

// any reports whether at least one subscription is live; Tick uses it to
// skip the snapshot copy entirely when nobody is watching.
func (h *hub) any() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs) > 0
}

// subscribe registers a standing query via the source's snapshot
// accessor: the subscription's first delta is a reset carrying the
// query's current result (applied to nil, it yields the baseline), and
// every epoch boundary after registration diffs against the previous
// result.
//
// Seeding cannot be atomic with registration — taking a snapshot under
// hub.mu would invert the lock order against an epoch publishing under
// the source's own lock — so an epoch may slip between the seed snapshot
// and registration, leaving the baseline one epoch stale with no delta
// ever due (the next epoch heals it, but a sparse clock may never fire
// one). The second snapshot catches that: registration precedes it, so
// any epoch it shows beyond the subscription's lastEpoch was missed, and
// reseedLocked re-baselines with a fresh reset.
func (h *hub) subscribe(q Query, snapshot func() Snapshot) (*Subscription, error) {
	snap := snapshot()
	cur := snap.Query(q)
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil, ErrSourceClosed
	}
	if h.subs == nil {
		h.subs = make(map[uint64]*Subscription)
	}
	sub := &Subscription{
		hub:  h,
		id:   h.nextID,
		q:    q,
		ch:   make(chan Delta, subscriptionBuffer),
		prev: cur,
	}
	h.nextID++
	h.subs[sub.id] = sub
	mSubscribers.Add(1)
	h.reseedLocked(sub, snap, cur)
	h.mu.Unlock()

	if again := snapshot(); again.Epoch() != snap.Epoch() {
		h.mu.Lock()
		if _, live := h.subs[sub.id]; live && again.Epoch() > sub.lastEpoch {
			h.reseedLocked(sub, again, again.Query(q))
		}
		h.mu.Unlock()
	}
	return sub, nil
}

// reseedLocked re-baselines a subscription: prev becomes cur and a reset
// delta carrying it is delivered. The payload is copied so nothing a
// consumer might mutate aliases sub.prev. Caller holds hub.mu.
func (h *hub) reseedLocked(sub *Subscription, snap Snapshot, cur []HotPath) {
	sub.prev = cur
	sub.lastEpoch = snap.Epoch()
	sub.deliverLocked(Delta{
		Clock:   snap.Clock(),
		Epoch:   snap.Epoch(),
		Entered: append([]HotPath(nil), cur...),
		Reset:   true,
		Order:   sub.q.order,
	})
}

// publish re-evaluates every standing query against the epoch's snapshot
// and emits one delta each. Cost is O(result) per subscription — Region
// queries run over the snapshot's grid index and K/MinHotness are prefix
// cuts, so large path stores with narrow standing queries stay cheap.
func (h *hub) publish(snap Snapshot) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, sub := range h.subs {
		if sub.lastEpoch >= snap.Epoch() {
			// A newer epoch already published — possible when the owner
			// violates the Tick contract and ticks concurrently, which
			// reorders epoch callbacks. Dropping the stale view keeps
			// every subscription's stream strictly epoch-ordered.
			continue
		}
		cur := snap.Query(sub.q)
		d := diffResults(sub.prev, cur, sub.q.order)
		d.Clock = snap.Clock()
		d.Epoch = snap.Epoch()
		sub.prev = cur
		sub.lastEpoch = snap.Epoch()
		sub.deliverLocked(d)
	}
}

// closeAll shuts the hub down: every subscription channel is closed and
// later subscribes fail with ErrSourceClosed. Called when the owning
// Engine or Durable closes.
func (h *hub) closeAll() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for id, sub := range h.subs {
		delete(h.subs, id)
		mSubscribers.Add(-1)
		close(sub.ch)
	}
}

// deliverLocked enqueues a delta without ever blocking: when the buffer
// is full, every delta still queued is dropped (counted) and replaced by
// one reset delta carrying the query's full current result. A reset
// applies correctly after ANY prefix of the stream — it overwrites the
// consumer's state instead of amending it — so the unavoidable race with
// a consumer that receives queued deltas while we drain is harmless:
// whatever it managed to apply first, the reset lands it on the exact
// current result. (Folding the backlog into an incremental delta instead
// would not survive that race: the consumer could steal a delta newer
// than one we absorbed, then apply the older state on top of it.) The
// caller holds hub.mu, which serialises all senders and excludes Close,
// so the channel cannot be closed or written concurrently.
func (s *Subscription) deliverLocked(d Delta) {
	select {
	case s.ch <- d:
		mDeltas.Inc()
		return
	default:
	}
	// d itself is not counted: the reset replaces it and still delivers
	// this epoch's result, just non-incrementally.
	dropped := d.Missed
	for {
		select {
		case old := <-s.ch:
			dropped += old.Missed + 1
			continue
		default:
		}
		break
	}
	// s.prev is the result the hub just published (or the subscribe-time
	// baseline); hub.mu is held, so it is stable here.
	reset := Delta{
		Clock:   d.Clock,
		Epoch:   d.Epoch,
		Entered: append([]HotPath(nil), s.prev...),
		Reset:   true,
		Missed:  dropped,
		Order:   d.Order,
	}
	// The buffer was just drained and we are the only sender, so this
	// cannot block (consumers only ever remove).
	//hotpathsvet:ignore locksnapshot non-blocking by construction: the buffer was drained above and the hub lock makes this the sole sender
	s.ch <- reset
	mDeltas.Inc()
	mSlowResets.Inc()
	mSlowMissed.Add(uint64(dropped))
	flightrec.Default.Record(flightrec.EvSubscriberReset,
		flightrec.KV("subscription", s.id),
		flightrec.KV("missed", dropped),
		flightrec.KV("epoch", d.Epoch))
}

// diffResults computes the delta between two materialised results of the
// same query: O(len(prev)+len(cur)), with Entered/Changed in cur's order
// and Left in prev's order, so the diff is deterministic for identical
// result streams.
func diffResults(prev, cur []HotPath, order SortOrder) Delta {
	prevByID := make(map[uint64]HotPath, len(prev))
	for _, hp := range prev {
		prevByID[hp.ID] = hp
	}
	curIDs := make(map[uint64]struct{}, len(cur))
	var entered, changed []HotPath
	for _, hp := range cur {
		curIDs[hp.ID] = struct{}{}
		p, ok := prevByID[hp.ID]
		if !ok {
			entered = append(entered, hp)
			continue
		}
		if p.Hotness != hp.Hotness {
			changed = append(changed, hp)
		}
	}
	var left []uint64
	for _, hp := range prev {
		if _, ok := curIDs[hp.ID]; !ok {
			left = append(left, hp.ID)
		}
	}
	return Delta{Entered: entered, Changed: changed, Left: left, Order: order}
}

// Subscribe registers a standing query with the system. The first delta
// is the query's current result; afterwards one delta arrives per epoch
// boundary (ticks that fire an epoch). Subscribe itself must be called
// from the goroutine driving the System — it reads live state — but the
// returned subscription's channel and Close are safe anywhere.
func (s *System) Subscribe(q Query) (*Subscription, error) {
	return s.subs.subscribe(q, s.Snapshot)
}

// Subscribe registers a standing query with the engine. It is safe to
// call concurrently with ingestion and Tick; deltas are published after
// the epoch barrier, under the same ordering guarantees that make the
// Engine bit-identical to the System, so the delta stream for a given
// input schedule is deterministic. After Close the engine publishes no
// further epochs, so Subscribe fails with ErrSourceClosed.
func (e *Engine) Subscribe(q Query) (*Subscription, error) {
	return e.subs.subscribe(q, e.Snapshot)
}
