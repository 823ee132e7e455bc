package engine

import (
	"context"
	"errors"
	"fmt"

	"hotpaths/internal/coordinator"
	"hotpaths/internal/raytrace"
	"hotpaths/internal/tracing"
	"hotpaths/internal/trajectory"
)

// core is the epoch protocol both forms run (see the package comment).
type core struct {
	coord   *coordinator.Coordinator
	epoch   trajectory.Time
	lastNow trajectory.Time
	// pending is the next epoch's batch so far: the follow-ups the last
	// epoch raised, then the reports collected since, in arrival order.
	// The coordinator keeps no reference to a batch, so it is refilled
	// in place.
	pending   []coordinator.Report
	responses int
	followed  int // follow-up reports, counted into Stats.Reports
}

// banks is the core's seam to the filter banks of its form.
type banks interface {
	// collect appends to dst, in arrival order, the reports raised since
	// the last collect.
	collect(dst []coordinator.Report) []coordinator.Report
	// bank returns the bank that holds object id's filter.
	bank(id int) *raytrace.Bank
}

// CheckAdvance is the clock rule every tick obeys: a tick to now may only
// follow one to last if time strictly advances. It is exported so a
// journal can refuse a tick before writing it, with the same error text.
func CheckAdvance(now, last trajectory.Time) error {
	if now <= last {
		return fmt.Errorf("engine: Tick(%d) after Tick(%d); time must advance", now, last)
	}
	return nil
}

// advance checks the clock, moves it to now and slides the window; a
// refused tick changes nothing. epoch reports whether the tick reached or
// crossed a multiple of the epoch, so a sparse clock cannot skip one.
func (c *core) advance(now trajectory.Time) (epoch bool, err error) {
	if err := CheckAdvance(now, c.lastNow); err != nil {
		return false, err
	}
	prev := c.lastNow
	c.lastNow = now
	c.coord.Advance(now)
	return now/c.epoch != prev/c.epoch, nil
}

// batch moves the reports b has raised behind the pending ones and
// returns the next epoch's batch, in processing order.
func (c *core) batch(b banks) []coordinator.Report {
	c.pending = b.collect(c.pending)
	return c.pending
}

// runEpoch runs SinglePath over the batch, slides the window again and
// delivers each response to the bank holding its object. A rejected batch
// is dropped rather than wedging every later epoch (RayTrace filters
// cannot produce one). On a traced context SinglePath gets a
// coordinator.select span with its case mix.
func (c *core) runEpoch(ctx context.Context, b banks) (reports, responses int, err error) {
	batch := c.batch(b)
	var resps []coordinator.Response
	err = tracing.Do(ctx, "coordinator.select", func(_ context.Context, sel *tracing.Span) error {
		before := c.coord.Stats()
		rs, err := c.coord.ProcessEpoch(batch)
		resps = rs
		if sel != nil { // boxing the counts would allocate even for a nil span
			after := c.coord.Stats()
			sel.SetAttr("reports", after.Reports-before.Reports)
			sel.SetAttr("case1", after.Case1-before.Case1)
			sel.SetAttr("case2", after.Case2W-before.Case2W)
			sel.SetAttr("case3", after.Case3-before.Case3)
			sel.SetAttr("paths_created", after.PathsCreated-before.PathsCreated)
		}
		return err
	})
	reports = len(batch)
	c.pending = c.pending[:0]
	if err != nil {
		return reports, 0, err
	}
	// A sparse clock that jumped more than W past the reports' exit
	// timestamps makes the just-recorded crossings already stale.
	c.coord.Advance(c.lastNow)
	var errs []error
	for _, r := range resps {
		c.responses++
		st, report, err := b.bank(r.ObjectID).Respond(r.ObjectID, r.End)
		if err != nil {
			// Respond validates before mutating, so the filter stays
			// waiting; the other filters are still re-seeded.
			errs = append(errs, fmt.Errorf("engine: %w", err))
			continue
		}
		if report {
			c.pending = append(c.pending, coordinator.Report{ObjectID: r.ObjectID, State: st})
			c.followed++
		}
	}
	return reports, len(resps), errors.Join(errs...)
}

// stats adds the protocol's and the coordinator's counters to the banks'
// totals.
func (c *core) stats(observed, reported int) Stats {
	cs := c.coord.Stats()
	return Stats{
		Observations: observed,
		Reports:      reported + c.followed,
		Responses:    c.responses,
		Epochs:       cs.Epochs,
		PathsCreated: cs.PathsCreated,
		PathsExpired: cs.PathsExpired,
		Crossings:    cs.Crossings,
		IndexSize:    c.coord.IndexSize(),
		Case1:        cs.Case1,
		Case2:        cs.Case2W,
		Case3:        cs.Case3,
	}
}

// Inline is the core with one filter bank and no goroutine, the form a
// hotpaths.System runs. It is not safe for concurrent use.
type Inline struct {
	core
	filters  raytrace.Bank
	observed int
	reported int
}

// NewInline returns an Inline under cfg, which its caller has validated
// (hotpaths.New does); Shards is not used.
func NewInline(cfg Config) *Inline {
	return &Inline{core: core{coord: cfg.Coord, epoch: cfg.Epoch}, filters: raytrace.NewBank(cfg.Eps, cfg.Delta)}
}

// collect adds nothing: Observe appends each report as it is raised.
func (in *Inline) collect(dst []coordinator.Report) []coordinator.Report { return dst }

func (in *Inline) bank(int) *raytrace.Bank { return &in.filters }

// Observe feeds one measurement to its object's filter. A refused one (a
// timestamp at or before the object's newest) is the bank's
// *raytrace.ObjectError; it still counts as an observation.
func (in *Inline) Observe(o Observation) error {
	in.observed++
	st, report, err := in.filters.Observe(o.ObjectID, o.point(), o.SigmaX, o.SigmaY)
	if err != nil {
		return err
	}
	if report {
		in.pending = append(in.pending, coordinator.Report{ObjectID: o.ObjectID, State: st})
		in.reported++
	}
	return nil
}

// Tick advances the clock to now and runs the epoch at a boundary, which
// epoch reports. Only the epoch itself can fail after the clock moved.
func (in *Inline) Tick(now trajectory.Time) (epoch bool, err error) {
	if epoch, err = in.advance(now); !epoch || err != nil {
		return epoch, err
	}
	_, _, err = in.runEpoch(context.Background(), in)
	return true, err
}

// Clock returns the timestamp of the last Tick.
func (in *Inline) Clock() trajectory.Time { return in.lastNow }

// Stats returns the counters.
func (in *Inline) Stats() Stats { return in.stats(in.observed, in.reported) }

// Snapshot returns a fresh copy of the coordinator's path store.
func (in *Inline) Snapshot() *coordinator.Snapshot { return in.coord.Snapshot() }
