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
// Both deployments are a Reader and a Writer (ObserveBatchCtx feeds one
// timestamp's measurements, all-or-nothing on validation; TickCtx
// advances the clock), and both run one epoch core: the coordinator, the
// clock and the epoch batch, around RayTrace filter banks.
//
//   - System is the core with one inline bank, driven from one
//     goroutine: every write and read must come from it. A report joins
//     the epoch batch as it is raised, and a refused observation (a
//     timestamp at or before the object's newest) is the write's error.
//     Observe, ObserveNoisy and Tick are its single-call conveniences.
//     It suits simulation, trace replay and step-debugging.
//   - Engine (see NewEngine) is the core with object-sharded banks:
//     objects hash to shard goroutines fed through buffered queues, and
//     at epoch boundaries their reports merge back into arrival order.
//     ObserveBatchCtx is safe from many goroutines (one object's
//     observations must still be time-ordered by their producer), which
//     suits cmd/hotpathsd. A shard finds a refusal after the write
//     returned, so it counts it in the
//     hotpaths_engine_observations_refused_total metric instead.
//
// Fed the same observations in the same order, both produce
// bit-identical hot paths, scores and counters. The System is the serial
// reference the golden tests and the benchmark oracle hold every other
// deployment against; it knows nothing of journals, checkpoints or
// replication.
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
	"hotpaths/internal/engine"
	"hotpaths/internal/geom"
	"hotpaths/internal/motion"
	"hotpaths/internal/trajectory"
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
	// An object's tolerance is decided once, by the filter bank that first
	// sees it: the σ of its first observation fixes it for the filter's
	// life (internal/uncertainty's HalfWidths), and the σ of later
	// observations are not used.
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

// System is an in-process deployment of the paper's architecture: the
// epoch core every deployment runs, with one filter bank holding a
// RayTrace filter per object, fed in the caller's goroutine. It is not
// safe for concurrent use; drive it from a single goroutine.
type System struct {
	cfg Config
	in  *engine.Inline
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
	if !(cfg.Eps > 0 && cfg.Eps <= maxCoord) {
		return cfg, &ConfigError{Field: "Eps", Reason: fmt.Sprintf("must be positive and at most 2^53, got %v", cfg.Eps)}
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

// engineConfig validates cfg, fills in its defaults, and builds the
// coordinator tier and the configuration both internal engine forms take.
func (cfg Config) engineConfig(shards int) (Config, engine.Config, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return cfg, engine.Config{}, err
	}
	coord, err := coordinator.New(coordinator.Config{
		Bounds: geom.Rect{
			Lo: geom.Pt(cfg.Bounds.Min.X, cfg.Bounds.Min.Y),
			Hi: geom.Pt(cfg.Bounds.Max.X, cfg.Bounds.Max.Y),
		},
		Cols: cfg.GridCols,
		Rows: cfg.GridRows,
		W:    trajectory.Time(cfg.W),
		Eps:  cfg.Eps,
	})
	return cfg, engine.Config{
		Coord:  coord,
		Epoch:  trajectory.Time(cfg.Epoch),
		Eps:    cfg.Eps,
		Delta:  cfg.Delta,
		Shards: shards,
	}, err
}

// New validates cfg and creates an empty System.
func New(cfg Config) (*System, error) {
	cfg, ec, err := cfg.engineConfig(0)
	if err != nil {
		return nil, err
	}
	return &System{cfg: cfg, in: engine.NewInline(ec)}, nil
}

// Observe feeds one location measurement for objectID at timestamp t.
// Timestamps must be strictly increasing per object, and coordinates must
// be finite and at most 2^53 in magnitude. In (ε,δ) mode the measurement
// is treated as exact; use ObserveNoisy to pass its noise.
func (s *System) Observe(objectID int, x, y float64, t int64) error {
	if err := badCoords(x, y); err != nil {
		return fmt.Errorf("hotpaths: %w", err)
	}
	return s.observe(Observation{ObjectID: objectID, X: x, Y: y, T: t})
}

// ObserveNoisy feeds a Gaussian measurement with per-axis standard
// deviations. It requires Config.Delta > 0. An object's σ is fixed by its
// first measurement: the sigmas of later ones are not used.
func (s *System) ObserveNoisy(objectID int, x, y, sigmaX, sigmaY float64, t int64) error {
	if s.cfg.Delta <= 0 {
		return fmt.Errorf("hotpaths: ObserveNoisy requires Config.Delta > 0")
	}
	err := badCoords(x, y)
	if err == nil {
		err = badSigmas(sigmaX, sigmaY)
	}
	if err != nil {
		return fmt.Errorf("hotpaths: %w", err)
	}
	return s.observe(Observation{ObjectID: objectID, X: x, Y: y, T: t, SigmaX: sigmaX, SigmaY: sigmaY})
}

// ObserveBatchCtx feeds a batch of measurements in order, exact or noisy
// per element. The whole batch is validated with the Engine's rules
// before any of it is fed, so a batch with a bad element ingests nothing.
// A filter error (a non-increasing timestamp) skips that one
// measurement, as the Engine's shards do; the rest of the batch is still
// fed and the errors are returned together. ctx is unused: a System
// records no spans.
func (s *System) ObserveBatchCtx(_ context.Context, batch []Observation) error {
	if err := s.cfg.checkBatch(batch); err != nil {
		return err
	}
	var errs []error
	for _, o := range batch {
		if err := s.observe(o); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// finite rejects the values every geometric comparison downstream handles
// wrongly: NaN compares false against everything, so a NaN coordinate
// would silently wedge a filter's safe-area state instead of erroring.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// maxCoord bounds the magnitude of every accepted coordinate and of Eps.
// A finite coordinate is not enough: between x = 1e308 and x = -1e308 a
// path's length and its end cell's centroid (Lo+Hi)/2 overflow to ±Inf,
// which no JSON or binary body can carry. Every path vertex lies within
// Eps of an accepted point, so with both bounded by 2^53 a vertex stays
// below 2^54, a coordinate difference or centroid sum below 2^55, a length
// below 2^56, and a score (an int hotness of at most 2^63 times a length)
// below 2^119: all far inside float64's 2^1024.
const maxCoord = 1 << 53

// badCoords and badSigmas are the single source of the ingest validation
// rules and messages; System's single-call writes and checkObservation
// add the prefix of their error shapes.

func badCoords(x, y float64) error {
	if math.Abs(x) <= maxCoord && math.Abs(y) <= maxCoord {
		return nil
	}
	if !finite(x) || !finite(y) {
		return fmt.Errorf("coordinates must be finite, got (%v, %v)", x, y)
	}
	return fmt.Errorf("coordinates must be at most 2^53 in magnitude, got (%v, %v)", x, y)
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

// observe feeds one validated measurement; a refusal is returned at once.
func (s *System) observe(o Observation) error {
	if err := s.in.Observe(engine.Observation(o)); err != nil {
		return fmt.Errorf("hotpaths: %w", err)
	}
	return nil
}

// Tick advances the system clock to now: the hotness window slides, and at
// epoch boundaries — whenever the clock reaches or crosses a multiple of
// Config.Epoch — the coordinator processes all pending reports and
// re-seeds the reporting filters. Call it once per timestamp, after that
// timestamp's Observes; sparse clocks that jump over a boundary still
// trigger the epoch. A tick that does not advance the clock is refused
// and changes nothing.
func (s *System) Tick(now int64) error {
	epoch, err := s.in.Tick(trajectory.Time(now))
	// No copy while nobody subscribes; publication never blocks (see hub).
	if epoch && s.subs.any() {
		s.subs.publish(s.Snapshot())
	}
	return err
}

// TickCtx is Tick; ctx is unused, because a System records no spans.
func (s *System) TickCtx(_ context.Context, now int64) error { return s.Tick(now) }

// Clock returns the timestamp of the last Tick.
func (s *System) Clock() int64 { return int64(s.in.Clock()) }

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
func (s *System) Stats() Stats { return Stats(s.in.Stats()) }

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
