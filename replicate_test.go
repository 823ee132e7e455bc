package hotpaths

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hotpaths/internal/replication"
	"hotpaths/internal/wal"
)

// servePrimary mounts the replication feed over a Durable's directory the
// way hotpathsd does, and returns its base URL.
func servePrimary(t *testing.T, dur *Durable, dir string) (*httptest.Server, *replication.Server) {
	t.Helper()
	rs := &replication.Server{
		Dir: dir,
		Position: func() replication.Status {
			snap := dur.Snapshot()
			return replication.Status{
				NextLSN: dur.WAL().NextLSN,
				Epoch:   snap.Epoch(),
				Clock:   snap.Clock(),
			}
		},
		Poll:      time.Millisecond,
		Heartbeat: 10 * time.Millisecond,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+replication.StreamPath, rs.ServeStream)
	mux.HandleFunc("GET "+replication.CheckpointPath, rs.ServeCheckpoint)
	mux.HandleFunc("GET "+replication.MetaPath, rs.ServeMeta)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, rs
}

// replicationQueries is the query battery both sides answer; byte
// equality across all of them at one epoch is the convergence check.
func replicationQueries() []Query {
	return []Query{
		{},
		Query{}.K(10),
		Query{}.MinHotness(2),
		Query{}.Region(Rect{Min: Pt(0, -10), Max: Pt(400, 400)}).SortBy(ByScore).K(5),
	}
}

// waitCaughtUp blocks until the follower has applied through clock t and
// epoch e.
func waitCaughtUp(t *testing.T, f *Follower, clock, epoch int64) Snapshot {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		snap := f.Snapshot()
		if snap.Clock() == clock && snap.Epoch() == epoch {
			return snap
		}
		if time.Now().After(deadline) {
			rs := f.Replication()
			t.Fatalf("follower stuck at clock=%d epoch=%d, want clock=%d epoch=%d (replication: %+v)",
				snap.Clock(), snap.Epoch(), clock, epoch, rs)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFollowerMatchesPrimary is the in-process golden replication test: a
// follower attaches mid-stream, survives a primary checkpoint+truncation
// and a forced reconnect, and still answers every query byte-identically
// to the primary at every shared epoch boundary. (The multi-process
// variant over real hotpathsd processes lives in cmd/hotpathsd behind the
// replication_e2e build tag.)
func TestFollowerMatchesPrimary(t *testing.T) {
	batches := flowWorkload(48, 160, 42)
	followerMatchesPrimary(t, engineTestConfig(), batches)
	// The (ε,δ) mode over the same path: half the objects noisy, so sigmas
	// travel in the stream's records AND in the bootstrap checkpoint's
	// filter entries, and the primary itself is held to a System fed
	// ObserveNoisy.
	t.Run("noisy", func(t *testing.T) {
		cfg := engineTestConfig()
		cfg.Delta = 0.05
		followerMatchesPrimary(t, cfg, makeNoisy(batches))
	})
}

// makeNoisy turns a workload, in place, into an (ε,δ) one: every odd
// object reports Gaussian measurements, the even ones stay exact. The
// config to run it under needs Delta > 0.
func makeNoisy(batches [][]Observation) [][]Observation {
	for _, batch := range batches {
		for i := range batch {
			if batch[i].ObjectID%2 == 1 {
				batch[i].SigmaX, batch[i].SigmaY = 0.8, 0.5
			}
		}
	}
	return batches
}

func followerMatchesPrimary(t *testing.T, cfg Config, batches [][]Observation) {
	dir := t.TempDir()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dur, err := OpenDurable(dir, DurableConfig{
		Config:        cfg,
		Shards:        4,
		SegmentBytes:  8 << 10, // rotate often so truncation really deletes segments
		FsyncInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	srv, _ := servePrimary(t, dur, dir)

	feed := func(batch []Observation) {
		t.Helper()
		if err := dur.ObserveBatchCtx(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
		if err := dur.TickCtx(context.Background(), batch[0].T); err != nil {
			t.Fatal(err)
		}
		for _, o := range batch {
			if o.SigmaX != 0 || o.SigmaY != 0 {
				err = sys.ObserveNoisy(o.ObjectID, o.X, o.Y, o.SigmaX, o.SigmaY, o.T)
			} else {
				err = sys.Observe(o.ObjectID, o.X, o.Y, o.T)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := sys.Tick(batch[0].T); err != nil {
			t.Fatal(err)
		}
	}

	// First third before the follower exists: attaching mid-stream must
	// replay or bootstrap this prefix.
	for _, batch := range batches[:50] {
		feed(batch)
	}

	f, err := OpenFollower(srv.URL, FollowerConfig{Shards: 2, ReconnectMin: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	epochsChecked := 0
	for i, batch := range batches[50:] {
		feed(batch)
		now := batch[0].T

		switch i {
		case 30:
			// Force a checkpoint; with tiny segments this truncates the
			// log's prefix for real, which a caught-up follower must not
			// even notice.
			before := dur.WAL().Segments
			if _, err := dur.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if after := dur.WAL().Segments; after >= before && before > 1 {
				t.Fatalf("checkpoint did not truncate: %d -> %d segments", before, after)
			}
		case 60:
			// Forced reconnect: kill every open connection; the follower
			// must resume from its applied LSN and converge again.
			srv.CloseClientConnections()
		}

		if now%cfg.Epoch != 0 {
			continue
		}
		psnap := dur.Snapshot()
		fsnap := waitCaughtUp(t, f, psnap.Clock(), psnap.Epoch())
		ssnap := sys.Snapshot()
		for qi, q := range replicationQueries() {
			pq, fq := psnap.Query(q), fsnap.Query(q)
			if !reflect.DeepEqual(pq, fq) {
				t.Fatalf("epoch %d query %d: follower diverged\nprimary:  %v\nfollower: %v",
					psnap.Epoch(), qi, pq, fq)
			}
			if sq := ssnap.Query(q); !reflect.DeepEqual(sq, pq) {
				t.Fatalf("epoch %d query %d: primary diverged from the System reference\nsystem:  %v\nprimary: %v",
					psnap.Epoch(), qi, sq, pq)
			}
		}
		if psnap.Stats() != fsnap.Stats() {
			t.Fatalf("epoch %d: counters diverged: primary %+v follower %+v",
				psnap.Epoch(), psnap.Stats(), fsnap.Stats())
		}
		epochsChecked++
	}
	if epochsChecked < 8 {
		t.Fatalf("only %d epochs checked; workload too short", epochsChecked)
	}
	if rs := f.Replication(); rs.Reconnects == 0 {
		t.Fatalf("forced reconnect did not register: %+v", rs)
	}

	// A brand-new follower now bootstraps from the post-truncation
	// checkpoint — streaming from LSN 0 is impossible, which the raw
	// client confirms — and converges too.
	if err := dur.Sync(); err != nil {
		t.Fatal(err)
	}
	c := &replication.Client{Base: srv.URL}
	err = c.Stream(context.Background(), 0, func(uint64, wal.Record) error { return nil }, nil)
	if !errors.Is(err, replication.ErrSnapshotNeeded) {
		t.Fatalf("stream from 0 after truncation: got %v, want ErrSnapshotNeeded", err)
	}
	f2, err := OpenFollower(srv.URL, FollowerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if rs := f2.Replication(); rs.Bootstraps == 0 {
		t.Fatalf("late follower did not bootstrap from checkpoint: %+v", rs)
	}
	psnap := dur.Snapshot()
	fsnap := waitCaughtUp(t, f2, psnap.Clock(), psnap.Epoch())
	for qi, q := range replicationQueries() {
		if !reflect.DeepEqual(psnap.Query(q), fsnap.Query(q)) {
			t.Fatalf("late follower query %d diverged", qi)
		}
	}
}

// TestFollowerHealsDivergenceWithoutCheckpoint: a primary that crashes
// before its first checkpoint and loses flushed-but-unsynced tail
// records leaves a follower AHEAD of the rewritten LSN space. On
// reconnect the primary answers 410; with no checkpoint to bootstrap
// from, the follower must wipe its diverged state and replay from LSN 0
// — not retry the invalid LSN forever.
func TestFollowerHealsDivergenceWithoutCheckpoint(t *testing.T) {
	cfg := engineTestConfig()
	dir := t.TempDir()
	open := func() *Durable {
		d, err := OpenDurable(dir, DurableConfig{
			Config:          cfg,
			FsyncInterval:   time.Millisecond,
			CheckpointEvery: -1, // never checkpoint, not even on Close
		})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	dur := open()

	// The feed must survive the primary "crash", like a stable LB in
	// front of a restarting process; it reads the current Durable from a
	// swappable pointer.
	var cur atomic.Pointer[Durable]
	cur.Store(dur)
	rs := &replication.Server{
		Dir: dir,
		Position: func() replication.Status {
			d := cur.Load()
			return replication.Status{NextLSN: d.NextLSN(), Epoch: int64(d.Stats().Epochs), Clock: d.Clock()}
		},
		Poll:      time.Millisecond,
		Heartbeat: 10 * time.Millisecond,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+replication.StreamPath, rs.ServeStream)
	mux.HandleFunc("GET "+replication.CheckpointPath, rs.ServeCheckpoint)
	mux.HandleFunc("GET "+replication.MetaPath, rs.ServeMeta)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	batches := flowWorkload(16, 80, 5)
	for _, batch := range batches[:60] {
		if err := dur.ObserveBatchCtx(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
		if err := dur.TickCtx(context.Background(), batch[0].T); err != nil {
			t.Fatal(err)
		}
	}
	f, err := OpenFollower(srv.URL, FollowerConfig{ReconnectMin: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lost := dur.NextLSN()
	deadline := time.Now().Add(15 * time.Second)
	for f.Replication().AppliedLSN < lost {
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: %+v", f.Replication())
		}
		time.Sleep(time.Millisecond)
	}

	// "Crash": close the primary, then cut the last records off the WAL
	// at a frame boundary — the shape of losing a flushed-but-unsynced
	// tail — and restart it.
	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "wal-00000000000000000000.seg")
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Cut right AFTER a tick record: an Engine only drains its shard
	// queues at ticks, so a prefix ending mid-timestamp would leave the
	// follower's trailing observations queued (the Engine's documented
	// eventual consistency) and the counter comparison below meaningless.
	off, n, keep, kept := 0, uint64(0), 0, uint64(0)
	for n < lost-40 { // drop the last ~40+ records
		r, consumed, derr := wal.DecodeRecord(b[off:])
		if derr != nil {
			t.Fatalf("decode while cutting at %d: %v", off, derr)
		}
		off += consumed
		n++
		if r.Kind == wal.KindTick {
			keep, kept = off, n
		}
	}
	if kept == 0 {
		t.Fatal("no tick record in the kept prefix")
	}
	if err := os.WriteFile(seg, b[:keep], 0o644); err != nil {
		t.Fatal(err)
	}
	dur = open()
	defer dur.Close()
	cur.Store(dur)
	if got := dur.NextLSN(); got != kept {
		t.Fatalf("restarted primary NextLSN = %d, want %d", got, kept)
	}

	// The follower is now ahead of the primary. Force the reconnect a
	// real crash would cause (here the feed outlived the "process"):
	// resume is refused, and with no checkpoint the follower must reset
	// and replay from 0.
	f.Reconnect()
	deadline = time.Now().Add(15 * time.Second)
	for {
		st := f.Replication()
		if st.Bootstraps >= 1 && st.AppliedLSN == kept && st.Connected {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never healed the divergence: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}

	// Replication continues on the healed stream: feed the restarted
	// primary past the next epoch boundaries (counters are exact only at
	// boundaries — an Engine drains its shards there) and converge.
	for _, batch := range batches[60:] {
		if err := dur.ObserveBatchCtx(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
		if err := dur.TickCtx(context.Background(), batch[0].T); err != nil {
			t.Fatal(err)
		}
	}
	psnap := dur.Snapshot()
	fsnap := waitCaughtUp(t, f, psnap.Clock(), psnap.Epoch())
	if psnap.Stats() != fsnap.Stats() {
		t.Fatalf("healed follower counters diverged: primary %+v follower %+v", psnap.Stats(), fsnap.Stats())
	}
	for qi, q := range replicationQueries() {
		if !reflect.DeepEqual(psnap.Query(q), fsnap.Query(q)) {
			t.Fatalf("healed follower query %d diverged", qi)
		}
	}
}

// TestFollowerStallWatchdog: a stream that stops producing records AND
// heartbeats (hung primary, black-holed network) must be dropped and
// redialed, not trusted forever.
func TestFollowerStallWatchdog(t *testing.T) {
	cfg := engineTestConfig()
	dir := t.TempDir()
	dur, err := OpenDurable(dir, DurableConfig{Config: cfg, FsyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	// A pathological feed: it sends the connect-time heartbeat and any
	// existing records, then goes silent for an hour.
	rs := &replication.Server{
		Dir: dir,
		Position: func() replication.Status {
			return replication.Status{NextLSN: dur.NextLSN()}
		},
		Poll:      time.Hour,
		Heartbeat: time.Hour,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+replication.StreamPath, rs.ServeStream)
	mux.HandleFunc("GET "+replication.CheckpointPath, rs.ServeCheckpoint)
	mux.HandleFunc("GET "+replication.MetaPath, rs.ServeMeta)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	f, err := OpenFollower(srv.URL, FollowerConfig{
		ReconnectMin: time.Millisecond,
		stallTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	deadline := time.Now().Add(15 * time.Second)
	for {
		st := f.Replication()
		if st.Reconnects >= 2 && strings.Contains(st.LastError, "stalled") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stall watchdog never fired: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFollowerRejectsWrites pins the read-only contract: a Follower is a
// Reader and not a Writer, so no write can reach it, and it serves the
// primary's configuration.
func TestFollowerRejectsWrites(t *testing.T) {
	cfg := engineTestConfig()
	dir := t.TempDir()
	dur, err := OpenDurable(dir, DurableConfig{Config: cfg, FsyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	srv, _ := servePrimary(t, dur, dir)
	f, err := OpenFollower(srv.URL, FollowerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	if _, ok := any(f).(Writer); ok {
		t.Error("a Follower must not be a Writer")
	}
	if f.Config() != dur.Config() {
		t.Errorf("follower config %+v != primary %+v", f.Config(), dur.Config())
	}
}

// TestFollowerSubscriptions: standing queries fire on the follower as the
// applier replays epochs.
func TestFollowerSubscriptions(t *testing.T) {
	cfg := engineTestConfig()
	batches := flowWorkload(16, 80, 7)
	dir := t.TempDir()
	dur, err := OpenDurable(dir, DurableConfig{
		Config: cfg, FsyncInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	srv, _ := servePrimary(t, dur, dir)
	f, err := OpenFollower(srv.URL, FollowerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	sub, err := f.Subscribe(Query{}.K(8))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	for _, batch := range batches {
		if err := dur.ObserveBatchCtx(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
		if err := dur.TickCtx(context.Background(), batch[0].T); err != nil {
			t.Fatal(err)
		}
	}
	// Drain deltas until the follower has replayed the final epoch (its
	// delta carries the final clock), applying each as a consumer would.
	var got []Delta
	var result []HotPath
	deadline := time.After(15 * time.Second)
	final := batches[len(batches)-1][0].T
	for len(got) == 0 || got[len(got)-1].Clock < final {
		select {
		case d, ok := <-sub.Deltas():
			if !ok {
				t.Fatal("subscription closed early")
			}
			got = append(got, d)
			result = d.Apply(result)
		case <-deadline:
			t.Fatalf("follower subscription stalled after %d deltas", len(got))
		}
	}
	if len(result) == 0 {
		t.Fatal("replicated subscription produced an empty result")
	}
	// The applied stream lands on exactly what the follower's snapshot says.
	if want := f.Snapshot().Query(Query{}.K(8)); !reflect.DeepEqual(result, want) {
		t.Fatalf("delta stream result %v != snapshot query %v", result, want)
	}
}
