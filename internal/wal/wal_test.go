package wal

import (
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// batch is AppendBatch's arguments for a slice of records.
func batch(recs []Record) (int, func(int) Record) {
	return len(recs), func(i int) Record { return recs[i] }
}

// testRecords builds a deterministic mixed stream of observe and tick
// records.
func testRecords(n int) []Record {
	out := make([]Record, n)
	for i := range out {
		if i%5 == 4 {
			out[i] = Record{Kind: KindTick, T: int64(i)}
			continue
		}
		out[i] = Record{
			Kind:     KindObserve,
			ObjectID: int64(i % 7),
			T:        int64(i),
			X:        float64(i) * 1.5,
			Y:        -float64(i) * 0.25,
			SigmaX:   float64(i%3) * 0.5,
			SigmaY:   float64(i%2) * 0.5,
		}
	}
	return out
}

func readAll(t *testing.T, dir string, from uint64) []Record {
	t.Helper()
	var out []Record
	want := from
	if err := ReadFrom(dir, from, func(lsn uint64, r Record) error {
		if lsn != want {
			t.Fatalf("ReadFrom yielded LSN %d, want %d", lsn, want)
		}
		want++
		out = append(out, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAppendReadRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{FsyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(100)
	for i, r := range recs {
		lsn, err := l.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i) {
			t.Fatalf("Append returned LSN %d, want %d", lsn, i)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, dir, 0); !reflect.DeepEqual(got, recs) {
		t.Fatalf("roundtrip mismatch: got %d records", len(got))
	}
	if got := readAll(t, dir, 40); !reflect.DeepEqual(got, recs[40:]) {
		t.Fatal("ReadFrom(40) mismatch")
	}
}

func TestRotationAndReopen(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force many rotations.
	l, err := Open(dir, Options{SegmentBytes: 256, FsyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(200)
	if _, err := l.AppendBatch(batch(recs[:120])); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	starts, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(starts) < 3 {
		t.Fatalf("expected multiple segments, got %d", len(starts))
	}

	// Reopen continues at the right LSN.
	l, err = Open(dir, Options{SegmentBytes: 256, FsyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.NextLSN(); got != 120 {
		t.Fatalf("NextLSN after reopen = %d, want 120", got)
	}
	for _, r := range recs[120:] {
		if _, err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, dir, 0); !reflect.DeepEqual(got, recs) {
		t.Fatal("records after rotation+reopen diverge")
	}
}

// A crash mid-record must be healed on reopen: the torn bytes are
// truncated and the log continues from the last whole record.
func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{FsyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(20)
	if _, err := l.AppendBatch(batch(recs)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segName(0))
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut 5 bytes into the last record's frame.
	if err := os.Truncate(path, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	l, err = Open(dir, Options{FsyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.NextLSN(); got != 19 {
		t.Fatalf("NextLSN after torn tail = %d, want 19", got)
	}
	if st := l.Stats(); st.Truncated == 0 {
		t.Error("Stats.Truncated should report the discarded bytes")
	}
	// Appending after the heal keeps the stream contiguous.
	if _, err := l.Append(recs[19]); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, dir, 0); !reflect.DeepEqual(got, recs) {
		t.Fatal("healed log diverges")
	}
}

// Corrupting a byte mid-file (not the tail) must be detected by ReadFrom,
// which CRC-validates every record it replays (Open only scans the last
// segment — the only one a crash can tear).
func TestCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256, FsyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch(batch(testRecords(100))); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	starts, _ := segments(dir)
	if len(starts) < 2 {
		t.Fatal("need multiple segments")
	}
	// Flip one payload byte in the FIRST segment.
	path := filepath.Join(dir, segName(starts[0]))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[12] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ReadFrom(dir, 0, func(uint64, Record) error { return nil }); err == nil {
		t.Error("ReadFrom must reject corruption in a non-final segment")
	}
}

// Replaying from an LSN older than the oldest surviving segment must
// error — e.g. a fallback to an older checkpoint after truncation — not
// silently skip the missing records.
func TestReadFromBeforeOldestSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256, FsyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch(batch(testRecords(100))); err != nil {
		t.Fatal(err)
	}
	starts, _ := segments(dir)
	if err := l.TruncateBefore(starts[2]); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ReadFrom(dir, starts[2]-1, func(uint64, Record) error { return nil }); err == nil {
		t.Error("ReadFrom before the oldest surviving segment must fail")
	}
	if err := ReadFrom(dir, starts[2], func(uint64, Record) error { return nil }); err != nil {
		t.Errorf("ReadFrom at the oldest surviving LSN failed: %v", err)
	}
}

func TestTruncateBefore(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256, FsyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(100)
	if _, err := l.AppendBatch(batch(recs)); err != nil {
		t.Fatal(err)
	}
	starts, _ := segments(dir)
	if len(starts) < 3 {
		t.Fatal("need >=3 segments")
	}
	cut := starts[2] // everything before segment 2 is coverable by a checkpoint at its start
	if err := l.TruncateBefore(cut); err != nil {
		t.Fatal(err)
	}
	left, _ := segments(dir)
	if left[0] != starts[2] {
		t.Fatalf("oldest surviving segment starts at %d, want %d", left[0], starts[2])
	}
	// The tail from the cut replays intact (after committing the buffer).
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, dir, cut); !reflect.DeepEqual(got, recs[cut:]) {
		t.Fatal("tail after TruncateBefore diverges")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointFiles(t *testing.T) {
	dir := t.TempDir()
	for i, lsn := range []uint64{10, 20, 30} {
		if err := WriteCheckpoint(dir, lsn, []byte{byte(i)}, 2); err != nil {
			t.Fatal(err)
		}
	}
	lsns, err := Checkpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lsns, []uint64{20, 30}) {
		t.Fatalf("retention kept %v, want [20 30]", lsns)
	}
	b, err := ReadCheckpoint(dir, 30)
	if err != nil || len(b) != 1 || b[0] != 2 {
		t.Fatalf("ReadCheckpoint(30) = %v, %v", b, err)
	}
}

func TestGroupCommitSync(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{FsyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Record{Kind: KindTick, T: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Syncs != 1 {
		t.Errorf("Syncs = %d, want 1", st.Syncs)
	}
	// Idle sync is a no-op.
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Syncs; got != 1 {
		t.Errorf("idle Sync bumped count to %d", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Record{Kind: KindTick, T: 2}); err != ErrClosed {
		t.Errorf("Append after Close = %v, want ErrClosed", err)
	}
}

// Two writers on one journal directory would interleave frames; the
// second Open must fail while the first holds the flock, and succeed
// after Close releases it.
func TestOpenExcludesSecondWriter(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{FsyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{FsyncInterval: -1}); err == nil {
		t.Fatal("second Open on a locked directory must fail")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{FsyncInterval: -1})
	if err != nil {
		t.Fatalf("Open after Close released the lock: %v", err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestResetTo(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{FsyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Record{Kind: KindTick, T: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.ResetTo(50); err != nil {
		t.Fatal(err)
	}
	lsn, err := l.Append(Record{Kind: KindTick, T: 2})
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 50 {
		t.Fatalf("LSN after ResetTo = %d, want 50", lsn)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// The pre-reset segment is gone (its records precede the checkpoint
	// that justified the reset), so the log has no LSN gap and reopens.
	starts, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(starts) != 1 || starts[0] != 50 {
		t.Fatalf("segments after ResetTo = %v, want [50]", starts)
	}
	got := readAll(t, dir, 50)
	if len(got) != 1 || got[0].T != 2 {
		t.Fatalf("tail after ResetTo = %+v", got)
	}
	l, err = Open(dir, Options{FsyncInterval: -1})
	if err != nil {
		t.Fatalf("reopen after ResetTo: %v", err)
	}
	if got := l.NextLSN(); got != 51 {
		t.Errorf("NextLSN after reopen = %d, want 51", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// The frame bytes of one record of each kind, appended behind a byte the
// encoder must leave alone. Journals written by older builds replay, and
// followers of either build read the same stream, only while these hold.
func TestAppendRecordBytes(t *testing.T) {
	for _, c := range []struct {
		r    Record
		want string
	}{
		{Record{Kind: KindObserve, ObjectID: -7, T: 1234567, X: 0, Y: 3.25, SigmaX: math.SmallestNonzeroFloat64, SigmaY: 1e300},
			"aa310000007944912201f9ffffffffffffff87d612000000000000000000000000000000000000000a4001000000000000009c7500883ce4377e"},
		{Record{Kind: KindTick, T: 99}, "aa09000000009b309a026300000000000000"},
		{Record{Kind: KindHeartbeat, NextLSN: 1 << 40, Epoch: 12, T: -5},
			"aa190000002c57647c0300000000000100000c00000000000000fbffffffffffffff"},
	} {
		b, err := AppendRecord([]byte{0xaa}, c.r)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(b); got != c.want {
			t.Errorf("kind %d encodes as\n %s\nwant\n %s", c.r.Kind, got, c.want)
		}
	}
}
