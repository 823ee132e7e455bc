package hotpaths_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hotpaths"
	"hotpaths/internal/wal"
)

func durableTestConfig() hotpaths.Config {
	return hotpaths.Config{
		Eps:    5,
		W:      60,
		Epoch:  10,
		K:      10,
		Bounds: hotpaths.Rect{Min: hotpaths.Pt(-3000, -3000), Max: hotpaths.Pt(4000, 4000)},
	}
}

// feed drives w with the workload: per timestamp, one batch then one
// tick (errors are fatal — this workload is clean).
func feed(t *testing.T, w hotpaths.Writer, batches [][]hotpaths.Observation) {
	t.Helper()
	ctx := context.Background()
	for _, batch := range batches {
		if err := w.ObserveBatchCtx(ctx, batch); err != nil {
			t.Fatal(err)
		}
		if err := w.TickCtx(ctx, batch[0].T); err != nil {
			t.Fatal(err)
		}
	}
}

// noisyHalf turns a workload into an (ε,δ) one: every odd object reports
// Gaussian measurements, the even ones stay exact. The config to run it
// under needs Delta > 0.
func noisyHalf(batches [][]hotpaths.Observation) [][]hotpaths.Observation {
	out := make([][]hotpaths.Observation, len(batches))
	for i, batch := range batches {
		out[i] = append([]hotpaths.Observation(nil), batch...)
		for j := range out[i] {
			if out[i][j].ObjectID%2 == 1 {
				out[i][j].SigmaX, out[i][j].SigmaY = 0.8, 0.5
			}
		}
	}
	return out
}

// shardGoroutines counts the live internal-engine shard goroutines.
func shardGoroutines() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "engine.(*shard).run")
}

// recoverClosed recovers dir read-only, hands the state to check, then
// closes the Engine and requires that none of its shard goroutines
// outlives the Close.
func recoverClosed(t *testing.T, dir string, check func(hotpaths.Snapshot)) {
	t.Helper()
	before := shardGoroutines()
	rec, err := hotpaths.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if shardGoroutines() == before {
		t.Fatal("the recovered Engine's shard goroutines are not visible to this check")
	}
	check(rec.Snapshot())
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	// Close waits for every shard's done channel, which closes as the
	// goroutine's last act; give the scheduler a moment to retire them.
	for deadline := time.Now().Add(2 * time.Second); shardGoroutines() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d shard goroutines outlive the recovered Engine's Close", shardGoroutines()-before)
		}
	}
}

// assertSameState asserts two sources are bit-identical on their public
// read surface: every live path, the counters and the clock.
func assertSameState(t *testing.T, label string, want, got hotpaths.Snapshot) {
	t.Helper()
	if w, g := want.Clock(), got.Clock(); w != g {
		t.Errorf("%s: clock %d != %d", label, g, w)
	}
	if w, g := want.Stats(), got.Stats(); w != g {
		t.Errorf("%s: stats diverge:\n want %+v\n got  %+v", label, w, g)
	}
	if w, g := want.HotPaths(), got.HotPaths(); !reflect.DeepEqual(w, g) {
		t.Errorf("%s: hot paths diverge: want %d paths, got %d", label, len(w), len(g))
	}
	if w, g := want.Score(), got.Score(); w != g {
		t.Errorf("%s: score %v != %v", label, g, w)
	}
}

// A Durable deployment must be indistinguishable from the in-memory
// System reference, and Recover must reproduce it from disk alone — at any
// shard count (the journal and checkpoints are shard-count-agnostic:
// Recover always rebuilds at the default width) and in (ε,δ) mode.
func TestDurableMatchesSystem(t *testing.T) {
	plain := hotpaths.IngestWorkload(48, 120, 42)
	noisy := durableTestConfig()
	noisy.Delta = 0.05
	for _, tc := range []struct {
		name    string
		cfg     hotpaths.Config
		shards  int
		batches [][]hotpaths.Observation
	}{
		{"shards=1", durableTestConfig(), 1, plain},
		{"shards=4", durableTestConfig(), 4, plain},
		{"noisy", noisy, 2, noisyHalf(plain)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			sys, err := hotpaths.New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			dur, err := hotpaths.OpenDurable(dir, hotpaths.DurableConfig{
				Config:        tc.cfg,
				Shards:        tc.shards,
				FsyncInterval: -1,
			})
			if err != nil {
				t.Fatal(err)
			}
			feed(t, sys, tc.batches)
			feed(t, dur, tc.batches)

			want := sys.Snapshot()
			assertSameState(t, "live durable vs system", want, dur.Snapshot())
			if err := dur.Close(); err != nil {
				t.Fatal(err)
			}
			recoverClosed(t, dir, func(got hotpaths.Snapshot) {
				assertSameState(t, "recovered vs system", want, got)
			})
		})
	}
}

// Restarting a durable deployment mid-stream — checkpoint on close,
// recover on open — must not perturb the state: a run split across three
// processes equals one uninterrupted in-memory run.
func TestDurableRestartContinuity(t *testing.T) {
	cfg := durableTestConfig()
	dcfg := hotpaths.DurableConfig{Config: cfg, FsyncInterval: -1, SegmentBytes: 4096}
	dir := t.TempDir()
	batches := hotpaths.IngestWorkload(48, 150, 7)

	sys, err := hotpaths.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, sys, batches)

	cuts := []int{0, 47, 103, len(batches)} // uneven, mid-epoch splits
	for i := 0; i+1 < len(cuts); i++ {
		dur, err := hotpaths.OpenDurable(dir, dcfg)
		if err != nil {
			t.Fatalf("open #%d: %v", i, err)
		}
		feed(t, dur, batches[cuts[i]:cuts[i+1]])
		if i == 1 {
			if _, err := dur.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if err := dur.Close(); err != nil {
			t.Fatal(err)
		}
	}

	recoverClosed(t, dir, func(got hotpaths.Snapshot) {
		assertSameState(t, "split run vs uninterrupted", sys.Snapshot(), got)
	})

	// Reopening with a different Config must be refused: replaying a
	// journal under different parameters silently breaks determinism.
	bad := dcfg
	bad.Eps = 7
	if _, err := hotpaths.OpenDurable(dir, bad); err == nil {
		t.Error("OpenDurable with mismatched config must fail")
	}
}

// cutDir clones a durable directory as it would look if the process had
// crashed once the first `keep` journal bytes had reached disk: full
// segments before the cut survive, the segment containing it is torn
// mid-file, later segments never existed. Checkpoint and meta files are
// carried over verbatim.
func cutDir(t *testing.T, src string, keep int64) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".seg" {
			segs = append(segs, e.Name())
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sort.Strings(segs) // zero-padded LSNs sort lexicographically
	left := keep
	for _, name := range segs {
		if left <= 0 {
			break
		}
		b, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(b)) > left {
			b = b[:left]
		}
		if err := os.WriteFile(filepath.Join(dst, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
		left -= int64(len(b))
	}
	return dst
}

// oldestSegStart returns the start LSN of the directory's oldest
// surviving segment (parsed from the zero-padded filename).
func oldestSegStart(t *testing.T, dir string) uint64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	best := uint64(math.MaxUint64)
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "wal-") || filepath.Ext(name) != ".seg" {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg"), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if n < best {
			best = n
		}
	}
	if best == math.MaxUint64 {
		t.Fatal("no segments in", dir)
	}
	return best
}

// walSize sums the directory's segment bytes.
func walSize(t *testing.T, dir string) int64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".seg" {
			info, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			total += info.Size()
		}
	}
	return total
}

// replayPrefix rebuilds the state an uninterrupted run would have had
// after the journal's first n records, using the test's own copy of the
// input stream.
func replayPrefix(t *testing.T, cfg hotpaths.Config, recs []wal.Record, n uint64) hotpaths.Snapshot {
	t.Helper()
	sys, err := hotpaths.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs[:n] {
		switch r.Kind {
		case wal.KindObserve:
			if err := sys.ObserveBatchCtx(context.Background(), []hotpaths.Observation{{
				ObjectID: int(r.ObjectID), X: r.X, Y: r.Y, T: r.T, SigmaX: r.SigmaX, SigmaY: r.SigmaY,
			}}); err != nil {
				t.Fatal(err)
			}
		case wal.KindTick:
			if err := sys.Tick(r.T); err != nil {
				t.Fatal(err)
			}
		}
	}
	return sys.Snapshot()
}

// The crash-recovery golden test: cut the journal at arbitrary byte
// offsets — including mid-record torn tails — recover, and require the
// recovered state to be bit-identical to an uninterrupted run over the
// longest decodable record prefix.
func TestCrashRecoveryGolden(t *testing.T) {
	cfg := durableTestConfig()
	dir := t.TempDir()
	batches := hotpaths.IngestWorkload(32, 100, 11)

	dur, err := hotpaths.OpenDurable(dir, hotpaths.DurableConfig{
		Config:          cfg,
		FsyncInterval:   -1,
		SegmentBytes:    8 << 10, // several segments
		CheckpointEvery: -1,      // keep the whole journal for full-prefix replay
	})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, dur, batches)
	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}

	// The journal must be a faithful transcript of the input stream.
	var recs []wal.Record
	if err := wal.ReadFrom(dir, 0, func(lsn uint64, r wal.Record) error {
		if lsn != uint64(len(recs)) {
			t.Fatalf("journal LSN %d out of order", lsn)
		}
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	wantRecords := 0
	for _, b := range batches {
		wantRecords += len(b) + 1
	}
	if len(recs) != wantRecords {
		t.Fatalf("journal holds %d records, fed %d", len(recs), wantRecords)
	}

	total := walSize(t, dir)
	// Deterministic cuts: tiny prefixes, odd unaligned offsets, spread
	// through every segment, and the exact end.
	cuts := []int64{0, 1, 7, 13, 58, 115, total - 1, total - 7, total}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 12; i++ {
		cuts = append(cuts, rng.Int63n(total))
	}
	for _, cut := range cuts {
		if cut < 0 {
			continue
		}
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			crashed := cutDir(t, dir, cut)
			// The longest decodable prefix of the torn journal.
			n := uint64(0)
			if err := wal.ReadFrom(crashed, 0, func(lsn uint64, r wal.Record) error {
				if r != recs[lsn] {
					t.Fatalf("record %d differs after cut", lsn)
				}
				n = lsn + 1
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			recoverClosed(t, crashed, func(got hotpaths.Snapshot) {
				assertSameState(t, "recovered vs longest-prefix replay",
					replayPrefix(t, cfg, recs, n), got)
			})
		})
	}
}

// Same golden property when a checkpoint has truncated the journal's
// head: recovery = checkpoint + decodable tail, which must equal the
// uninterrupted prefix run even though the early records are gone.
func TestCrashRecoveryAfterCheckpoint(t *testing.T) {
	batches := hotpaths.IngestWorkload(32, 100, 13)
	crashRecoveryAfterCheckpoint(t, durableTestConfig(), batches)
	// The (ε,δ) mode through the same mill: the mid-run checkpoint carries
	// FilterEntry sigmas, and recovery must rebuild each noisy object's
	// tolerance model from them before replaying the torn tail.
	t.Run("noisy", func(t *testing.T) {
		cfg := durableTestConfig()
		cfg.Delta = 0.05
		crashRecoveryAfterCheckpoint(t, cfg, noisyHalf(batches))
	})
}

func crashRecoveryAfterCheckpoint(t *testing.T, cfg hotpaths.Config, batches [][]hotpaths.Observation) {
	dir := t.TempDir()

	dur, err := hotpaths.OpenDurable(dir, hotpaths.DurableConfig{
		Config:          cfg,
		FsyncInterval:   -1,
		SegmentBytes:    8 << 10,
		CheckpointEvery: -1, // only the explicit mid-run checkpoint below
	})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, dur, batches[:60])
	ckptLSN, err := dur.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	feed(t, dur, batches[60:])
	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}

	// Keep the test honest: the head must actually be gone.
	firstSurviving := oldestSegStart(t, dir)
	if firstSurviving == 0 {
		t.Fatalf("checkpoint at LSN %d did not truncate the journal head", ckptLSN)
	}

	// recs is the test's transcript of the full input stream, by LSN.
	var recs []wal.Record
	for _, b := range batches {
		for _, o := range b {
			recs = append(recs, wal.Record{Kind: wal.KindObserve, ObjectID: int64(o.ObjectID), T: o.T, X: o.X, Y: o.Y, SigmaX: o.SigmaX, SigmaY: o.SigmaY})
		}
		recs = append(recs, wal.Record{Kind: wal.KindTick, T: b[0].T})
	}

	total := walSize(t, dir)
	// A real crash cannot lose bytes that were fsynced before the
	// checkpoint was written (checkpointing commits the journal first),
	// so cuts start at the checkpoint's byte position in the surviving
	// stream: total minus the framed size of the records after it.
	var tailBytes int64
	for _, r := range recs[ckptLSN:] {
		frame, err := wal.AppendRecord(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		tailBytes += int64(len(frame))
	}
	minCut := total - tailBytes
	rng := rand.New(rand.NewSource(101))
	cuts := []int64{minCut, minCut + 3, total - 5, total}
	for i := 0; i < 8; i++ {
		cuts = append(cuts, minCut+rng.Int63n(total-minCut))
	}
	for _, cut := range cuts {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			crashed := cutDir(t, dir, cut)
			n := ckptLSN // with the whole tail gone, the checkpoint state stands
			if err := wal.ReadFrom(crashed, oldestSegStart(t, crashed), func(lsn uint64, r wal.Record) error {
				if r != recs[lsn] {
					t.Fatalf("record %d differs after cut", lsn)
				}
				if lsn+1 > n {
					n = lsn + 1
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			recoverClosed(t, crashed, func(got hotpaths.Snapshot) {
				assertSameState(t, "recovered vs prefix replay",
					replayPrefix(t, cfg, recs, n), got)
			})
		})
	}
}

// Concurrent producers hammering a Durable Engine under -race: whatever
// interleaving the journal fixed, recovery must reproduce the exact final
// state.
func TestDurableConcurrentProducers(t *testing.T) {
	cfg := durableTestConfig()
	dir := t.TempDir()
	const producers = 4
	batches := hotpaths.IngestWorkload(64, 80, 17)

	dur, err := hotpaths.OpenDurable(dir, hotpaths.DurableConfig{
		Config: cfg,
		Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range batches {
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			part := make([]hotpaths.Observation, 0, len(batch)/producers+1)
			for _, o := range batch {
				if o.ObjectID%producers == p {
					part = append(part, o)
				}
			}
			wg.Add(1)
			go func(part []hotpaths.Observation) {
				defer wg.Done()
				if err := dur.ObserveBatchCtx(context.Background(), part); err != nil {
					t.Error(err)
				}
			}(part)
		}
		wg.Wait()
		if err := dur.TickCtx(context.Background(), batch[0].T); err != nil {
			t.Fatal(err)
		}
	}
	want := dur.Snapshot()
	st := dur.WAL()
	if st.Records == 0 || st.Checkpoints == 0 {
		t.Fatalf("journal inactive: %+v", st)
	}
	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}

	recoverClosed(t, dir, func(got hotpaths.Snapshot) {
		assertSameState(t, "recovered vs live concurrent", want, got)
	})
}

// A tick the Engine refuses must be refused before it is journaled: the
// journal is replayed on every recovery and shipped to every follower, so
// a rejected record there would be fsynced and replayed forever. The
// error text is the Engine's, which is the daemon's /tick 400 body.
func TestDurableRejectedTickNotJournaled(t *testing.T) {
	cfg := durableTestConfig()
	dir := t.TempDir()
	batches := hotpaths.IngestWorkload(16, 5, 3)
	dur, err := hotpaths.OpenDurable(dir, hotpaths.DurableConfig{Config: cfg, FsyncInterval: -1, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, dur, batches) // ticks 1..5
	// Sync flushes the journal, so WAL().Bytes counts every record.
	walAfterSync := func() hotpaths.WALStats {
		if err := dur.Sync(); err != nil {
			t.Fatal(err)
		}
		return dur.WAL()
	}
	before := walAfterSync()
	err = dur.TickCtx(context.Background(), 3)
	if want := "engine: Tick(3) after Tick(5); time must advance"; fmt.Sprint(err) != want {
		t.Errorf("backwards tick: got %v, want %q", err, want)
	}
	if after := walAfterSync(); after.NextLSN != before.NextLSN || after.Bytes != before.Bytes {
		t.Errorf("rejected tick reached the journal: NextLSN %d -> %d, bytes %d -> %d",
			before.NextLSN, after.NextLSN, before.Bytes, after.Bytes)
	}
	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}
	sys, err := hotpaths.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, sys, batches)
	recoverClosed(t, dir, func(got hotpaths.Snapshot) {
		assertSameState(t, "recovered vs a System that never saw the tick", sys.Snapshot(), got)
	})
}

func TestRecoverErrors(t *testing.T) {
	if _, err := hotpaths.Recover(t.TempDir()); err == nil {
		t.Error("Recover on an empty directory must fail (no meta)")
	}
}
