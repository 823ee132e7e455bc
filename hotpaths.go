// Package hotpaths discovers hot motion paths — routes recently followed by
// many moving objects — from streams of imprecise location updates, as
// described in "On-Line Discovery of Hot Motion Paths" (Sacharidis et al.,
// EDBT 2008).
//
// The package exposes the paper's two-tier architecture as an in-process
// streaming System: each observed object runs a RayTrace filter that
// suppresses location updates inside an adaptive spatiotemporal safe area,
// and a coordinator runs the SinglePath strategy over the reported states,
// maintaining motion paths and their hotness over a sliding time window.
//
// Basic use:
//
//	sys, _ := hotpaths.New(hotpaths.Config{
//		Eps:    10,                           // tolerance, metres
//		W:      100,                          // window, timestamps
//		Epoch:  10,                           // coordinator cadence
//		K:      10,                           // top-k to report
//		Bounds: hotpaths.Rect{Max: hotpaths.Pt(16000, 16000)},
//	})
//	for t := int64(1); t <= horizon; t++ {
//		for _, obs := range observationsAt(t) {
//			sys.Observe(obs.Object, obs.X, obs.Y, t)
//		}
//		sys.Tick(t) // advance window; process batch at epoch boundaries
//	}
//	for _, hp := range sys.TopK() {
//		fmt.Println(hp.Start, "->", hp.End, "hotness", hp.Hotness)
//	}
//
// # Querying: Snapshot and Query
//
// The read side of the API is built on immutable snapshots. Snapshot()
// (on every deployment, via the shared Reader interface) captures the
// live paths, hotness, clock and counters at one consistent instant;
// the returned Snapshot is safe to share across goroutines and to query
// repeatedly while ingestion continues. A Query composes the selection:
//
//	snap := sys.Snapshot()
//	busy := snap.Query(hotpaths.Query{}.
//		Region(viewport).              // grid-index range scan, not a linear filter
//		MinHotness(3).
//		SortBy(hotpaths.ByScore).
//		K(20))
//
// System's TopK, HotPaths, Score and WriteGeoJSON are thin wrappers over
// Snapshot(): convenient for one-off reads, but two successive calls may
// straddle an epoch boundary and disagree; take one Snapshot when
// multiple reads must be mutually consistent.
//
// # Watching: Subscribe and Delta
//
// Subscribe turns a Query into a standing query: instead of polling
// snapshots, the caller receives a Delta on a channel at every epoch
// boundary — the paths that entered the result set, left it, or changed
// hotness. The first delta is the query's current result; applying each
// delta to the previous result (Delta.Apply) reproduces exactly what
// Snapshot().Query(q) returns at that boundary:
//
//	sub, _ := src.Subscribe(hotpaths.Query{}.MinHotness(3).K(20))
//	go func() {
//		var result []hotpaths.HotPath
//		for d := range sub.Deltas() {
//			result = d.Apply(result)
//			fmt.Printf("t=%d: +%d -%d, %d hot paths\n",
//				d.Clock, len(d.Entered), len(d.Left), len(result))
//		}
//	}()
//
// Publication never blocks ingestion: each subscription has a buffered
// channel, and when a slow consumer lets it fill, the undelivered deltas
// are dropped and replaced by a single reset delta carrying the query's
// full current result (Delta.Reset; Delta.Missed counts the dropped
// epochs) — the consumer is re-baselined automatically and never has to
// resynchronise by hand. Closing the Engine or Durable closes every
// subscription channel; Subscription.Close detaches one subscriber. The
// cmd/hotpathsd daemon exposes subscriptions as GET /watch, a
// Server-Sent Events stream.
//
// # Concurrency: System vs Engine
//
// The package offers two deployments of the same architecture. Both are a
// Reader and a Writer: ObserveBatchCtx feeds one timestamp's
// measurements, all-or-nothing on validation, and TickCtx advances the
// clock.
//
//   - System is single-goroutine: its writes and reads must all be
//     called from one goroutine. Observe, ObserveNoisy and Tick are its
//     single-call conveniences. It is the right choice for simulation,
//     trace replay, step-debugging, and any workload driven by a single
//     loop — it has zero synchronisation overhead and its behaviour is
//     trivially deterministic.
//   - Engine (see NewEngine) is the concurrent, object-sharded realisation
//     of the paper's distributed design: objects hash to shards, each shard
//     goroutine owns the filter bank of its objects, fed through a
//     buffered queue, and reports funnel into a single coordinator at epoch
//     boundaries. ObserveBatchCtx is safe to call from many goroutines
//     at once (observations for the same object must still be
//     time-ordered by their producer), so Engine is the right choice when
//     many producers push observations concurrently — e.g. the
//     cmd/hotpathsd network daemon — or when ingest throughput matters.
//
// Both produce bit-identical hot paths, scores and counters when fed the
// same observations in the same order, because the Engine merges shard
// reports back into the single-threaded arrival order before the
// coordinator processes an epoch. That equality is what the System is
// kept for: it is the serial reference the golden tests and the benchmark
// oracle hold every other deployment against, and it knows nothing of
// journals, checkpoints or replication. Both keep their RayTrace filters
// in the same filter bank (one in a System, one per Engine shard), so
// what the System checks independently is the arrival order and the
// epoch protocol.
//
// # Durability: OpenDurable and Recover
//
// Both deployments are in-memory; OpenDurable puts an Engine behind a
// write-ahead log so the discovered state survives crashes and restarts.
// Every batch and tick is journaled (length-prefixed, CRC-checksummed,
// group-committed to disk every DurableConfig.FsyncInterval) before it is
// applied; full-state checkpoints at epoch boundaries bound recovery to
// about one window of replay. Replaying the journal is just re-running
// the deterministic pipeline, and one applier does it for everyone — the
// reopening OpenDurable, the read-only Recover (which hands back the
// rebuilt Engine) and a Follower — so the recovered state is
// bit-identical to the pre-crash state at the last durable record, a
// property the crash-recovery golden tests enforce by cutting the log at
// arbitrary byte offsets. The cmd/hotpathsd daemon exposes this as
// -wal/-fsync flags plus a POST /admin/checkpoint endpoint.
//
// # Replication: OpenFollower, a Reader only
//
// Determinism makes the journal a replication log too. A process built
// on OpenDurable becomes a replication primary by mounting
// NewReplicationFeed on its HTTP mux (hotpathsd does this with -wal),
// and OpenFollower turns that feed into a live read-only replica: it
// bootstraps from the primary's newest checkpoint, tails the WAL stream,
// applies it to a local Engine, and reconnects with resume-from-LSN on
// its own. At every shared epoch boundary the follower's
// Snapshot().Query(q) is byte-identical to the primary's, so /topk-style
// read traffic scales horizontally across replicas.
//
// A Follower is a Reader and not a Writer: it has no write method, so
// code that needs to write takes a Writer and a follower cannot be passed
// to it. Writes belong on the primary. Its reads are answered locally,
// with no primary round-trip.
//
// Replication is asynchronous — reads lag the primary by roughly the
// group-commit flush interval plus one poll — and Follower.Replication
// reports the applied/primary LSN, epoch positions and lag. The
// cmd/hotpathsd daemon exposes the whole topology as -follow (write
// endpoints answer 403, /stats grows replication_* fields, /healthz
// degrades past -max-lag); see the README's "Replication & read
// scaling" section for topology and failover notes.
//
// The paper's evaluation (road network, moving-object workload, DP
// baseline, figure sweeps) runs on System: the internal simulation harness
// feeds a generated workload through Observe and Tick and reads its
// per-epoch figures from Stats and Snapshot, so the published curve is
// produced by the same pipeline the deployments are held equal to. The
// cmd/ tools and the benchmark suite drive it.
package hotpaths

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"

	"hotpaths/internal/coordinator"
	"hotpaths/internal/geom"
	"hotpaths/internal/motion"
	"hotpaths/internal/raytrace"
	"hotpaths/internal/trajectory"
	"hotpaths/internal/uncertainty"
)

// Point is a location in the plane, in metres.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Rect is an axis-aligned rectangle given by its Min and Max corners.
type Rect struct {
	Min, Max Point
}

// HotPath is a discovered motion path with its current hotness.
type HotPath struct {
	ID      uint64
	Start   Point
	End     Point
	Hotness int
}

// Length returns the path's Euclidean length.
func (hp HotPath) Length() float64 {
	return geom.Pt(hp.Start.X, hp.Start.Y).Dist(geom.Pt(hp.End.X, hp.End.Y))
}

// Score is the paper's quality metric: hotness × length.
func (hp HotPath) Score() float64 { return float64(hp.Hotness) * hp.Length() }

// Config parameterises a System.
type Config struct {
	// Eps is the tolerance ε in metres (required, positive): discovered
	// paths stay within Eps of the objects that cross them.
	Eps float64

	// Delta, when positive, enables the (ε,δ) uncertainty model: observations
	// are treated as Gaussian with the per-observation standard deviations
	// passed to ObserveNoisy, and proximity holds with probability ≥ 1−δ.
	Delta float64

	// W is the sliding window length in timestamps (required, positive):
	// crossings older than W no longer count toward hotness.
	W int64

	// Epoch is the coordinator cadence Λ in timestamps (required, positive):
	// reported objects receive their new safe-area seed at the next multiple
	// of Epoch, mirroring the paper's epoch-based communication.
	Epoch int64

	// K is the top-k size for TopK (default 10).
	K int

	// Bounds is the monitored region used to size the coordinator's grid
	// index (required, positive area).
	Bounds Rect

	// GridCols, GridRows control the index resolution (default 64×64).
	GridCols, GridRows int
}

// Stats aggregates a System's lifetime counters.
type Stats struct {
	Observations int // measurements ingested
	Reports      int // state messages the filters raised
	Responses    int // endpoints handed back at epoch boundaries
	Epochs       int // epoch boundaries processed (the subscription/replication epoch sequence)
	PathsCreated int
	PathsExpired int
	Crossings    int
	IndexSize    int // currently stored motion paths
	// Case1, Case2 and Case3 count SinglePath's selections, one per
	// processed report: Case 1 crossed a stored path out of the report's
	// start vertex, Case 2 a new path to an existing end vertex, Case 3 a
	// new path to a freshly placed vertex.
	Case1, Case2, Case3 int
}

// System is an in-process deployment of the paper's architecture: one
// filter bank holding a RayTrace filter per object, plus the SinglePath
// coordinator. It is not safe for concurrent use; drive it from a single
// goroutine.
type System struct {
	cfg     Config
	coord   *coordinator.Coordinator
	bank    raytrace.Bank
	pending []coordinator.Report
	stats   Stats
	lastNow int64
	// subs fans epoch snapshots out to standing queries; it has its own
	// mutex, so Subscription.Close and channel reads are goroutine-safe
	// even though the System itself is single-goroutine.
	subs hub
}

// A ConfigError reports one invalid Config field, rejected by New or
// NewEngine. Callers classify it with errors.As and branch on Field —
// never by matching the rendered message (the errstring contract).
type ConfigError struct {
	Field  string // the offending Config field, e.g. "Bounds"
	Reason string // the violated constraint, including the bad value
}

func (e *ConfigError) Error() string { return "hotpaths: Config." + e.Field + " " + e.Reason }

// withDefaults validates cfg and fills in the defaulted fields.
func (cfg Config) withDefaults() (Config, error) {
	if cfg.Eps <= 0 {
		return cfg, &ConfigError{Field: "Eps", Reason: fmt.Sprintf("must be positive, got %v", cfg.Eps)}
	}
	if cfg.Delta < 0 || cfg.Delta >= 1 {
		return cfg, &ConfigError{Field: "Delta", Reason: fmt.Sprintf("must be in [0,1), got %v", cfg.Delta)}
	}
	if cfg.W <= 0 {
		return cfg, &ConfigError{Field: "W", Reason: fmt.Sprintf("must be positive, got %d", cfg.W)}
	}
	if cfg.Epoch <= 0 {
		return cfg, &ConfigError{Field: "Epoch", Reason: fmt.Sprintf("must be positive, got %d", cfg.Epoch)}
	}
	// NaNs fail these comparisons too, so they are rejected here rather
	// than surfacing as an internal grid-index error.
	if !(cfg.Bounds.Max.X > cfg.Bounds.Min.X && cfg.Bounds.Max.Y > cfg.Bounds.Min.Y) {
		return cfg, &ConfigError{Field: "Bounds", Reason: fmt.Sprintf("must have positive area (Max > Min on both axes), got min=%v max=%v",
			cfg.Bounds.Min, cfg.Bounds.Max)}
	}
	if cfg.K == 0 {
		cfg.K = 10
	}
	return cfg, nil
}

// newCoordinator builds the coordinator tier for cfg.
func (cfg Config) newCoordinator() (*coordinator.Coordinator, error) {
	bounds := geom.Rect{
		Lo: geom.Pt(cfg.Bounds.Min.X, cfg.Bounds.Min.Y),
		Hi: geom.Pt(cfg.Bounds.Max.X, cfg.Bounds.Max.Y),
	}
	return coordinator.New(coordinator.Config{
		Bounds: bounds,
		Cols:   cfg.GridCols,
		Rows:   cfg.GridRows,
		W:      trajectory.Time(cfg.W),
		Eps:    cfg.Eps,
	})
}

// New validates cfg and creates an empty System.
func New(cfg Config) (*System, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	coord, err := cfg.newCoordinator()
	if err != nil {
		return nil, err
	}
	return &System{
		cfg:   cfg,
		coord: coord,
		bank:  raytrace.NewBank(cfg.toleranceFunc),
	}, nil
}

// Observe feeds one location measurement for objectID at timestamp t.
// Timestamps must be strictly increasing per object, and coordinates must
// be finite. In (ε,δ) mode the measurement is treated as exact; use
// ObserveNoisy to pass its noise.
func (s *System) Observe(objectID int, x, y float64, t int64) error {
	if err := checkCoords(x, y); err != nil {
		return err
	}
	return s.observe(objectID, trajectory.TP(geom.Pt(x, y), trajectory.Time(t)), 0, 0)
}

// ObserveNoisy feeds a Gaussian measurement with per-axis standard
// deviations. It requires Config.Delta > 0.
func (s *System) ObserveNoisy(objectID int, x, y, sigmaX, sigmaY float64, t int64) error {
	if s.cfg.Delta <= 0 {
		return fmt.Errorf("hotpaths: ObserveNoisy requires Config.Delta > 0")
	}
	if err := checkCoords(x, y); err != nil {
		return err
	}
	if err := checkSigmas(sigmaX, sigmaY); err != nil {
		return err
	}
	return s.observe(objectID, trajectory.TP(geom.Pt(x, y), trajectory.Time(t)), sigmaX, sigmaY)
}

// ObserveBatchCtx feeds a batch of measurements in order, exact or noisy
// per element. The whole batch is validated with the Engine's rules
// before any of it is fed, so a batch with a bad element ingests nothing.
// A filter error (a non-increasing timestamp) skips that one
// measurement, as the Engine's shards do; the rest of the batch is still
// fed and the errors are returned together. ctx is unused: a System
// records no spans.
func (s *System) ObserveBatchCtx(_ context.Context, batch []Observation) error {
	for i, o := range batch {
		if err := checkObservation(i, o, s.cfg.Delta); err != nil {
			return err
		}
	}
	var errs []error
	for _, o := range batch {
		if err := s.observe(o.ObjectID, trajectory.TP(geom.Pt(o.X, o.Y), trajectory.Time(o.T)), o.SigmaX, o.SigmaY); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// finite rejects the values every geometric comparison downstream handles
// wrongly: NaN compares false against everything, so a NaN coordinate
// would silently wedge a filter's safe-area state instead of erroring.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// badCoords and badSigmas are the single source of the ingest validation
// rules and messages; the prefix-adding wrappers below adapt them to the
// single-observation and batch error shapes.

func badCoords(x, y float64) error {
	if !finite(x) || !finite(y) {
		return fmt.Errorf("coordinates must be finite, got (%v, %v)", x, y)
	}
	return nil
}

// badSigmas validates noisy-measurement standard deviations: positive
// and finite (an infinite sigma would make every tolerance rectangle
// unbounded).
func badSigmas(sigmaX, sigmaY float64) error {
	if !(sigmaX > 0 && sigmaY > 0 && finite(sigmaX) && finite(sigmaY)) {
		return fmt.Errorf("standard deviations must be positive and finite, got (%v, %v)", sigmaX, sigmaY)
	}
	return nil
}

// checkCoords validates a measurement's coordinates at the API boundary,
// before they can reach filter or WAL state.
func checkCoords(x, y float64) error {
	if err := badCoords(x, y); err != nil {
		return fmt.Errorf("hotpaths: %w", err)
	}
	return nil
}

func checkSigmas(sigmaX, sigmaY float64) error {
	if err := badSigmas(sigmaX, sigmaY); err != nil {
		return fmt.Errorf("hotpaths: %w", err)
	}
	return nil
}

func (s *System) observe(objectID int, tp trajectory.TimePoint, sigmaX, sigmaY float64) error {
	s.stats.Observations++
	st, report, err := s.bank.Observe(objectID, tp, sigmaX, sigmaY)
	if err != nil {
		return fmt.Errorf("hotpaths: %w", err)
	}
	if report {
		s.enqueue(objectID, st)
	}
	return nil
}

// toleranceFunc builds the per-point tolerance model: the fixed ε square,
// or the Gaussian (ε,δ) rectangle when Delta and sigmas are set. The
// retroactive minimum of ε/10 guards against unsatisfiable noise levels.
func (cfg Config) toleranceFunc(sigmaX, sigmaY float64) raytrace.ToleranceFunc {
	if cfg.Delta <= 0 || sigmaX <= 0 || sigmaY <= 0 {
		return raytrace.FixedTolerance(cfg.Eps)
	}
	eps, delta := cfg.Eps, cfg.Delta
	return func(tp trajectory.TimePoint) geom.Rect {
		m := uncertainty.Measurement{Mean: tp.P, SigmaX: sigmaX, SigmaY: sigmaY}
		return uncertainty.ToleranceRectOrMin(m, eps, delta, eps/10)
	}
}

func (s *System) enqueue(objectID int, st raytrace.State) {
	s.pending = append(s.pending, coordinator.Report{ObjectID: objectID, State: st})
	s.stats.Reports++
}

// Tick advances the system clock to now: the hotness window slides, and at
// epoch boundaries — whenever the clock reaches or crosses a multiple of
// Config.Epoch — the coordinator processes all pending reports and
// re-seeds the reporting filters. Call it once per timestamp, after that
// timestamp's Observes; sparse clocks that jump over a boundary still
// trigger the epoch.
func (s *System) Tick(now int64) error {
	if now <= s.lastNow {
		return fmt.Errorf("hotpaths: Tick(%d) after Tick(%d); time must advance", now, s.lastNow)
	}
	prev := s.lastNow
	s.lastNow = now
	s.coord.Advance(trajectory.Time(now))
	if now/s.cfg.Epoch == prev/s.cfg.Epoch {
		return nil
	}
	batch := s.pending
	s.pending = nil
	resps, err := s.coord.ProcessEpoch(batch)
	if err != nil {
		// Validation is deterministic per report, so a rejected batch can
		// never succeed later; it is dropped rather than wedging every
		// future epoch. RayTrace filters cannot produce such reports.
		return err
	}
	// A sparse clock that jumped more than W past the reports' exit
	// timestamps makes the just-recorded crossings already stale; expire
	// them now so TopK/Score never surface phantom hot paths.
	s.coord.Advance(trajectory.Time(now))
	var errs []error
	for _, r := range resps {
		s.stats.Responses++
		st, report, err := s.bank.Respond(r.ObjectID, r.End)
		if err != nil {
			// Respond validates before mutating, so the filter stays
			// waiting; keep delivering the remaining responses rather than
			// leaving other filters un-reseeded (as the Engine does).
			errs = append(errs, fmt.Errorf("hotpaths: %w", err))
			continue
		}
		if report {
			s.enqueue(r.ObjectID, st)
		}
	}
	// Fan the post-epoch state out to standing queries. The snapshot copy
	// is skipped entirely while nobody subscribes; publication itself
	// never blocks (see hub).
	if s.subs.any() {
		s.subs.publish(s.Snapshot())
	}
	return errors.Join(errs...)
}

// TickCtx is Tick; ctx is unused, because a System records no spans.
func (s *System) TickCtx(_ context.Context, now int64) error { return s.Tick(now) }

// Clock returns the timestamp of the last Tick.
func (s *System) Clock() int64 { return s.lastNow }

// Config returns the system's configuration with defaults applied.
func (s *System) Config() Config { return s.cfg }

// TopK returns the Config.K hottest motion paths, hottest first. It is a
// live accessor — shorthand for Snapshot().TopK(); use Snapshot directly
// when several reads must agree on one instant.
func (s *System) TopK() []HotPath {
	return s.Snapshot().TopK()
}

// HotPaths returns every live motion path, hottest first. Shorthand for
// Snapshot().HotPaths().
func (s *System) HotPaths() []HotPath {
	return s.Snapshot().HotPaths()
}

// Score returns the paper's quality metric over the current top-k set: the
// average hotness×length. Shorthand for Snapshot().Score().
func (s *System) Score() float64 { return s.Snapshot().Score() }

// WriteGeoJSON writes every live motion path as a GeoJSON
// FeatureCollection, hottest first, with hotness/length/score properties.
// Shorthand for Snapshot().WriteGeoJSON(w).
func (s *System) WriteGeoJSON(w io.Writer) error {
	return s.Snapshot().WriteGeoJSON(w)
}

// Stats returns the system's counters.
func (s *System) Stats() Stats {
	cs := s.coord.Stats()
	out := s.stats
	out.Epochs = cs.Epochs
	out.PathsCreated = cs.PathsCreated
	out.PathsExpired = cs.PathsExpired
	out.Crossings = cs.Crossings
	out.IndexSize = s.coord.IndexSize()
	out.Case1, out.Case2, out.Case3 = cs.Case1, cs.Case2W, cs.Case3
	return out
}

// convert copies paths into a fresh, never nil, public slice.
func convert(in []motion.HotPath) []HotPath {
	out := make([]HotPath, len(in))
	for i, hp := range in {
		out[i] = publicPath(hp)
	}
	return out
}

func publicPath(hp motion.HotPath) HotPath {
	return HotPath{
		ID:      uint64(hp.Path.ID),
		Start:   Point{hp.Path.S.X, hp.Path.S.Y},
		End:     Point{hp.Path.E.X, hp.Path.E.Y},
		Hotness: hp.Hotness,
	}
}
