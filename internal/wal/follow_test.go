package wal

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// drain reads everything currently decodable from the tailer.
func drain(t *testing.T, tl *Tailer) []Record {
	t.Helper()
	var out []Record
	for {
		frames, first, n, err := tl.ReadBatch(0)
		if err != nil {
			t.Fatalf("ReadBatch: %v", err)
		}
		if n == 0 {
			return out
		}
		got, lsn := decodeFrames(t, frames), first
		if lsn+uint64(len(got)) != tl.Pos() {
			t.Fatalf("frame count %d from LSN %d does not reach Pos %d", len(got), lsn, tl.Pos())
		}
		out = append(out, got...)
	}
}

func decodeFrames(t *testing.T, frames []byte) []Record {
	t.Helper()
	var out []Record
	for off := 0; off < len(frames); {
		r, consumed, err := DecodeRecord(frames[off:])
		if err != nil {
			t.Fatalf("decode frame at %d: %v", off, err)
		}
		out = append(out, r)
		off += consumed
	}
	return out
}

// TestFollowTailsLiveLog proves the tailer sees every record the writer
// appends, in order, across the flush boundary: records buffered but not
// yet flushed are invisible, then appear after Sync.
func TestFollowTailsLiveLog(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{FsyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	recs := testRecords(100)
	for _, r := range recs[:60] {
		if _, err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	tl := Follow(dir, 0)
	defer tl.Close()
	if got := drain(t, tl); len(got) != 0 {
		t.Fatalf("read %d records before any flush", len(got))
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	got := drain(t, tl)
	if len(got) != 60 {
		t.Fatalf("read %d records after flush, want 60", len(got))
	}
	for _, r := range recs[60:] {
		if _, err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	got = append(got, drain(t, tl)...)
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	for i, r := range got {
		if r != recs[i] {
			t.Fatalf("record %d mismatch: got %+v want %+v", i, r, recs[i])
		}
	}
}

// TestFollowAcrossRotation tails a log whose tiny segments rotate many
// times, attaching mid-stream.
func TestFollowAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256, FsyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	recs := testRecords(200)
	for _, r := range recs {
		if _, err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Segments < 3 {
		t.Fatalf("expected several segments, got %d", st.Segments)
	}
	const from = 37
	tl := Follow(dir, from)
	defer tl.Close()
	got := drain(t, tl)
	if len(got) != len(recs)-from {
		t.Fatalf("read %d records from LSN %d, want %d", len(got), from, len(recs)-from)
	}
	for i, r := range got {
		if r != recs[from+i] {
			t.Fatalf("record %d mismatch", from+i)
		}
	}
}

// TestFollowTruncated proves a tailer positioned below the oldest
// surviving segment reports TruncatedError with the resume point.
func TestFollowTruncated(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256, FsyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, r := range testRecords(200) {
		if _, err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.TruncateBefore(150); err != nil {
		t.Fatal(err)
	}
	tl := Follow(dir, 0)
	_, _, _, err = tl.ReadBatch(0)
	var te *TruncatedError
	if !errors.As(err, &te) {
		t.Fatalf("ReadBatch after truncation: got %v, want TruncatedError", err)
	}
	if te.Oldest == 0 || te.Oldest > 150 {
		t.Fatalf("TruncatedError.Oldest = %d, want in (0, 150]", te.Oldest)
	}
	// Resuming from the reported oldest LSN works.
	tl2 := Follow(dir, te.Oldest)
	defer tl2.Close()
	got := drain(t, tl2)
	if want := 200 - int(te.Oldest); len(got) != want {
		t.Fatalf("resumed read got %d records, want %d", len(got), want)
	}
}

// TestFollowHeartbeatNeverInLog pins the satellite contract that
// KindHeartbeat is a stream-only frame: the codec round-trips it (the
// replication stream needs that) but it never appears in segment files,
// because nothing journals it.
func TestFollowHeartbeatNeverInLog(t *testing.T) {
	hb := Record{Kind: KindHeartbeat, NextLSN: 42, Epoch: 7, T: 99}
	frame, err := AppendRecord(nil, hb)
	if err != nil {
		t.Fatal(err)
	}
	got, n, err := DecodeRecord(frame)
	if err != nil || n != len(frame) {
		t.Fatalf("heartbeat decode: %v (consumed %d of %d)", err, n, len(frame))
	}
	if got != hb {
		t.Fatalf("heartbeat round-trip: got %+v want %+v", got, hb)
	}
}

// TestFollowConcurrentWithAppendAndTruncate is the satellite race test:
// a writer appends (with the group-commit loop running) while another
// goroutine checkpoints/truncates and a tailer follows the live tail.
// The tailer must see a gapless prefix of the true record stream — no
// torn reads, no duplicates, no reordering — or a clean TruncatedError,
// and the log's Stats must stay consistent throughout.
func TestFollowConcurrentWithAppendAndTruncate(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 1 << 10, FsyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const total = 5000
	recs := testRecords(total)

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Writer: appends everything, some singly, some batched.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; {
			if i%7 == 0 && i+5 <= total {
				if _, err := l.AppendBatch(batch(recs[i : i+5])); err != nil {
					t.Errorf("append batch at %d: %v", i, err)
					return
				}
				i += 5
				continue
			}
			if _, err := l.Append(recs[i]); err != nil {
				t.Errorf("append at %d: %v", i, err)
				return
			}
			i++
		}
	}()

	// Truncator: repeatedly drops segments behind the append position,
	// exactly what a checkpoint does, racing the writer and the tailer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			next := l.NextLSN()
			if next > 100 {
				if err := l.TruncateBefore(next - 100); err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("truncate: %v", err)
					return
				}
			}
			_ = l.Stats() // Stats must never wedge or race
			time.Sleep(200 * time.Microsecond)
		}
	}()

	// Tailer: follows from 0; on truncation it restarts from the reported
	// oldest LSN, so it reads a suffix-complete record stream.
	var got []Record
	var gotFrom uint64
	tl := Follow(dir, 0)
	deadline := time.Now().Add(30 * time.Second)
	for uint64(len(got))+gotFrom < total {
		if time.Now().After(deadline) {
			t.Fatalf("tailer stalled at %d/%d records", len(got), total)
		}
		frames, first, n, err := tl.ReadBatch(0)
		var te *TruncatedError
		if errors.As(err, &te) {
			tl.Close()
			tl = Follow(dir, te.Oldest)
			got, gotFrom = nil, te.Oldest
			continue
		}
		if err != nil {
			t.Fatalf("ReadBatch: %v", err)
		}
		if n == 0 {
			time.Sleep(time.Millisecond)
			continue
		}
		if want := gotFrom + uint64(len(got)); first != want {
			t.Fatalf("gap: batch starts at LSN %d, want %d", first, want)
		}
		got = append(got, decodeFrames(t, frames)...)
	}
	tl.Close()
	close(stop)
	wg.Wait()

	for i, r := range got {
		if want := recs[gotFrom+uint64(i)]; r != want {
			t.Fatalf("record at LSN %d mismatch: got %+v want %+v", gotFrom+uint64(i), r, want)
		}
	}
	st := l.Stats()
	if st.Records != total || st.NextLSN != total {
		t.Fatalf("stats after race: Records=%d NextLSN=%d, want %d", st.Records, st.NextLSN, total)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestResetToRacingAppendAndFollow is the other satellite race: ResetTo
// fast-forwards (deleting every segment) while a tailer follows. The
// tailer must come back with TruncatedError and be able to resume at the
// reset position; appends after the reset land at the new LSNs.
func TestResetToRacingAppendAndFollow(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{FsyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, r := range testRecords(50) {
		if _, err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	tl := Follow(dir, 0)
	defer tl.Close()
	if got := drain(t, tl); len(got) != 50 {
		t.Fatalf("pre-reset read %d records, want 50", len(got))
	}

	// Reset concurrently with a reader mid-follow and the commit loop live.
	const resetTo = 1000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := l.ResetTo(resetTo); err != nil {
			t.Errorf("ResetTo: %v", err)
		}
	}()
	wg.Wait()

	post := testRecords(10)
	for _, r := range post {
		if _, err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if next := l.NextLSN(); next != resetTo+10 {
		t.Fatalf("NextLSN after reset = %d, want %d", next, resetTo+10)
	}

	// The old tailer position is gone; it must say so, then resume cleanly.
	var te *TruncatedError
	for i := 0; ; i++ {
		_, _, n, err := tl.ReadBatch(0)
		if errors.As(err, &te) {
			break
		}
		if err != nil {
			t.Fatalf("ReadBatch after reset: %v", err)
		}
		if n != 0 || i > 3 {
			t.Fatalf("tailer read %d records past a reset (iteration %d)", n, i)
		}
	}
	if te.Oldest != resetTo {
		t.Fatalf("TruncatedError.Oldest = %d, want %d", te.Oldest, resetTo)
	}
	tl2 := Follow(dir, resetTo)
	defer tl2.Close()
	got := drain(t, tl2)
	if len(got) != len(post) {
		t.Fatalf("post-reset read %d records, want %d", len(got), len(post))
	}
	for i, r := range got {
		if r != post[i] {
			t.Fatalf("post-reset record %d mismatch", i)
		}
	}
}
