package hotpaths

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"hotpaths/internal/metrics"
	"hotpaths/internal/raytrace"
)

// refusedCounter is the Engine's count of observations its shards
// refused; a System returns each refusal from the write instead.
var refusedCounter = metrics.Default.Counter("hotpaths_engine_observations_refused_total", "", nil)

// refusals counts the filter refusals a write returned.
func refusals(err error) int {
	if err == nil {
		return 0
	}
	if joined, ok := err.(interface{ Unwrap() []error }); ok {
		n := 0
		for _, e := range joined.Unwrap() {
			n += refusals(e)
		}
		return n
	}
	var oe *raytrace.ObjectError
	if errors.As(err, &oe) {
		return 1
	}
	return 0
}

// deployments is a System and Engines at 1 and 4 shards under cfg, the
// Engines closed at test end.
func deployments(tb testing.TB, cfg Config) (names []string, ds []readWriter) {
	tb.Helper()
	sys, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	names, ds = append(names, "system"), append(ds, sys)
	for _, shards := range []int{1, 4} {
		eng, err := NewEngine(EngineConfig{Config: cfg, Shards: shards})
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { eng.Close() })
		names, ds = append(names, fmt.Sprintf("engine/shards=%d", shards)), append(ds, eng)
	}
	return names, ds
}

// sameState requires every deployment's live paths and counters to be the
// System's (the first). Engine counters are exact after an epoch tick.
func sameState(tb testing.TB, when string, names []string, ds []readWriter) {
	tb.Helper()
	wantPaths, wantStats := ds[0].Snapshot().HotPaths(), ds[0].Stats()
	for i, d := range ds[1:] {
		if got := d.Snapshot().HotPaths(); !reflect.DeepEqual(got, wantPaths) {
			tb.Fatalf("%s: %s paths diverge from the system's:\n got  %v\n want %v", when, names[i+1], got, wantPaths)
		}
		if got := d.Stats(); got != wantStats {
			tb.Fatalf("%s: %s stats diverge from the system's:\n got  %+v\n want %+v", when, names[i+1], got, wantStats)
		}
	}
}

// TestAdversarialInputsMatchAcrossDeployments drives hostile but
// well-formed input through a System and Engines at 1 and 4 shards after
// the same zig-zag: every deployment ends with the same paths and
// counters, and every refusal is visible — as the write's error on the
// System, as hotpaths_engine_observations_refused_total on an Engine,
// whose writes and ticks it never fails.
func TestAdversarialInputsMatchAcrossDeployments(t *testing.T) {
	ctx := context.Background()
	cfg := Config{Eps: 10, W: 100, Epoch: 10, K: 5, Bounds: Rect{Min: Pt(-100, -100), Max: Pt(2000, 2000)}}
	obs := func(os ...Observation) []Observation { return os }
	edge := float64(1 << 53)
	for _, tc := range []struct {
		name  string
		batch []Observation // written after the zig-zag, if any
		tick  int64         // then ticked to, if non-zero
		// refused is how many of batch the filters refuse; badWrite and
		// badTick are whether every deployment fails the write or tick.
		refused           int
		badWrite, badTick bool
	}{
		{name: "duplicate timestamps in a batch", batch: obs(
			Observation{ObjectID: 1, X: 246, Y: 40, T: 41}, Observation{ObjectID: 1, X: 250, Y: 40, T: 41}), refused: 1},
		{name: "repeat of the last timestamp after a response",
			batch: obs(Observation{ObjectID: 1, X: 240, Y: 40, T: 40}), refused: 1},
		{name: "out-of-order timestamp", batch: obs(Observation{ObjectID: 1, X: 200, Y: 40, T: 35}), refused: 1},
		{name: "tick at the clock", tick: 40, badTick: true},
		{name: "tick below the clock", tick: 39, badTick: true},
		{name: "teleport", batch: obs(Observation{ObjectID: 1, X: 240 + 1e6, Y: 40, T: 41})},
		{name: "coordinates at ±2^53", batch: obs(
			Observation{ObjectID: 3, X: edge, Y: -edge, T: 41}, Observation{ObjectID: 4, X: -edge, Y: edge, T: 41})},
		{name: "coordinates just above 2^53", batch: obs(
			Observation{ObjectID: 1, X: 246, Y: 40, T: 41},
			Observation{ObjectID: 3, X: math.Nextafter(edge, math.Inf(1)), Y: 0, T: 41}), badWrite: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			names, ds := deployments(t, cfg)
			for now := int64(1); now <= 40; now++ {
				x, y := float64(now)*6, 0.0
				if (now/5)%2 == 0 {
					y = 40
				}
				zig := obs(Observation{ObjectID: 1, X: x, Y: y, T: now}, Observation{ObjectID: 2, X: x, Y: y + 0.5, T: now})
				for i, d := range ds {
					if err := d.ObserveBatchCtx(ctx, zig); err != nil {
						t.Fatalf("%s: zig-zag at %d: %v", names[i], now, err)
					}
					if err := d.TickCtx(ctx, now); err != nil {
						t.Fatalf("%s: tick %d: %v", names[i], now, err)
					}
				}
			}
			sameState(t, "after the zig-zag", names, ds)
			if ds[0].Stats().Responses == 0 {
				t.Fatal("the zig-zag drew no response: no filter was re-seeded")
			}

			before := refusedCounter.Value()
			var writeErrs, tickErrs []string
			for i, d := range ds {
				if tc.batch != nil {
					err := d.ObserveBatchCtx(ctx, tc.batch)
					refused := refusals(err)
					want := tc.refused
					if i > 0 {
						want = 0 // an Engine counts them instead
					}
					if refused != want {
						t.Errorf("%s: write returned %d refusals (%v), want %d", names[i], refused, err, want)
					}
					if invalid := err != nil && refused == 0; invalid != tc.badWrite {
						t.Errorf("%s: write error %v, want one: %v", names[i], err, tc.badWrite)
					} else if invalid {
						writeErrs = append(writeErrs, err.Error())
					}
				}
				if tc.tick != 0 {
					err := d.TickCtx(ctx, tc.tick)
					if (err == nil) == tc.badTick {
						t.Errorf("%s: tick %d error %v, want one: %v", names[i], tc.tick, err, tc.badTick)
					}
					if err != nil {
						tickErrs = append(tickErrs, err.Error())
					}
					if d.Clock() != 40 {
						t.Errorf("%s: clock %d after a refused tick, want 40", names[i], d.Clock())
					}
				}
			}
			for _, errs := range [][]string{writeErrs, tickErrs} {
				for _, e := range errs[min(1, len(errs)):] {
					if e != errs[0] {
						t.Errorf("deployments refuse the same input differently: %q and %q", errs[0], e)
					}
				}
			}
			for i, d := range ds {
				if err := d.TickCtx(ctx, 50); err != nil {
					t.Fatalf("%s: the tick across the next epoch: %v", names[i], err)
				}
			}
			sameState(t, "after the next epoch", names, ds)
			if got := refusedCounter.Value() - before; got != uint64(tc.refused*(len(ds)-1)) {
				t.Errorf("refused counter moved by %d over %d engines, want %d each", got, len(ds)-1, tc.refused)
			}
		})
	}
}

// FuzzSystemMatchesEngine decodes bytes into a short stream of writes and
// ticks over four objects on a small lattice — timestamps that repeat,
// run backwards or jump ahead of the clock, occasional teleports, ticks
// that do not advance — and feeds it to a System and to Engines at 1 and
// 4 shards. At every epoch their paths and counters must agree, and the
// refusals the System returned must be the ones each Engine counted.
func FuzzSystemMatchesEngine(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 3, 1, 0, 2, 2, 10, 20, 3, 2})
	f.Add([]byte{0, 0, 2, 5, 5, 1, 0, 2, 6, 6, 3, 1, 0, 0, 1, 7, 7, 3, 0, 3, 1, 0, 0, 0, 9, 9, 3, 2})
	f.Add([]byte{2, 1, 4, 60, 1, 2, 3, 4, 1, 3, 1, 0, 3, 4, 0, 1, 2, 3, 2, 200, 200, 3, 3, 1, 1, 0, 40, 40, 3, 1})
	// Before a filter checked a measurement against its waiting buffer,
	// this stream made one report an interval ending before it starts,
	// and the coordinator dropped the whole epoch at tick 24.
	f.Add([]byte("01200720180072012077201200010007201207727172727171010007172"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ctx := context.Background()
		cfg := Config{Eps: 2, W: 20, Epoch: 4, K: 5, Bounds: Rect{Max: Pt(64, 64)}}
		names, ds := deployments(t, cfg)
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		var clock int64
		sysRefused, before := 0, refusedCounter.Value()
		// tick ticks every deployment to now and, at an epoch, compares
		// them. Only a tick that does not advance the clock may fail: the
		// coordinator refusing a batch would mean a filter raised a report
		// no filter can.
		tick := func(now int64) {
			for i, d := range ds {
				err := d.TickCtx(ctx, now)
				if (err != nil) != (now <= clock) {
					t.Fatalf("%s: tick %d at clock %d: %v", names[i], now, clock, err)
				}
			}
			if now <= clock {
				return
			}
			epoch := now/cfg.Epoch != clock/cfg.Epoch
			clock = now
			if !epoch {
				return
			}
			sameState(t, fmt.Sprintf("epoch at %d", now), names, ds)
			if got := refusedCounter.Value() - before; got != uint64(sysRefused*(len(ds)-1)) {
				t.Fatalf("epoch at %d: the engines counted %d refusals, the system returned %d each", now, got, sysRefused)
			}
		}
		// write feeds a batch to every deployment: only the System may
		// fail it, and only with refusals.
		write := func(batch []Observation) {
			for i, d := range ds {
				err := d.ObserveBatchCtx(ctx, batch)
				if i == 0 {
					sysRefused += refusals(err)
				}
				if err != nil && (i > 0 || refusals(err) == 0) {
					t.Fatalf("%s: write failed: %v", names[i], err)
				}
			}
		}
		var batch []Observation
		for len(data) > 0 {
			switch op := next(); op % 4 {
			case 3:
				write(batch)
				batch = batch[:0]
				tick(clock + int64(next()%3)) // +0 is a refused tick
			default:
				o := Observation{
					ObjectID: 1 + next()%4,
					T:        max(1, clock+1+int64(next()%5)-2),
					X:        float64(next() % 64),
					Y:        float64(next() % 64),
				}
				if op&0x80 != 0 {
					o.X += 1e6 // teleport
				}
				batch = append(batch, o)
			}
		}
		// Feed what is left and end on an epoch.
		write(batch)
		tick((clock/cfg.Epoch + 1) * cfg.Epoch)
	})
}
