package wal

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"hotpaths/internal/flightrec"
)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: closed")

const (
	segPrefix  = "wal-"
	segSuffix  = ".seg"
	ckptPrefix = "ckpt-"
	ckptSuffix = ".ckpt"
	lsnDigits  = 20
)

// Options parameterises a Log.
type Options struct {
	// SegmentBytes rotates the active segment once it reaches this size
	// (default 64 MiB).
	SegmentBytes int64

	// FsyncInterval is the group-commit cadence: appended records are
	// flushed and fsynced together every interval (default 25ms). Negative
	// disables the ticker; the caller then controls durability via Sync.
	// An acknowledged append is durable only after the next commit.
	FsyncInterval time.Duration
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes == 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.FsyncInterval == 0 {
		o.FsyncInterval = 25 * time.Millisecond
	}
	return o
}

// Stats are a log's lifetime counters (since Open).
type Stats struct {
	Records   uint64 // records appended in this process (not counting preexisting)
	NextLSN   uint64 // LSN the next appended record will get
	Segments  int    // live segment files
	Bytes     int64  // bytes across live segment files
	Syncs     uint64 // fsync batches issued
	Truncated int64  // torn-tail bytes discarded by Open
}

// Log is an append-only segmented record log opened for writing. Append
// and Sync are safe for concurrent use; the group-commit goroutine runs
// until Close.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	f        *os.File
	w        *bufio.Writer
	segStart uint64 // LSN of the active segment's first record
	segSize  int64  // bytes in the active segment (including buffered)
	nextLSN  uint64
	dirty    bool // buffered or written bytes not yet fsynced
	closed   bool
	scratch  []byte
	pending  uint64 // records appended since the last commit

	stats   Stats
	stop    chan struct{}
	done    chan struct{}
	lock    *os.File // flock'd wal.lock, held for the log's lifetime
	syncErr error    // first background sync failure, surfaced on next op
}

// lockDir takes an exclusive advisory lock on dir/wal.lock. Two processes
// appending to the same journal would interleave and tear each other's
// frames, so a second Open must fail cleanly instead. The flock dies with
// the process, so a crash never leaves a stale lock behind.
func lockDir(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, "wal.lock"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %s is in use by another process: %w", dir, err)
	}
	return f, nil
}

func segName(start uint64) string {
	return fmt.Sprintf("%s%0*d%s", segPrefix, lsnDigits, start, segSuffix)
}

func ckptName(lsn uint64) string {
	return fmt.Sprintf("%s%0*d%s", ckptPrefix, lsnDigits, lsn, ckptSuffix)
}

func parseLSN(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// segments lists the directory's segment files sorted by start LSN.
func segments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var starts []uint64
	for _, e := range entries {
		if start, ok := parseLSN(e.Name(), segPrefix, segSuffix); ok {
			starts = append(starts, start)
		}
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	return starts, nil
}

// scanSegment walks one segment file, calling fn (which may be nil) for
// each valid record, and returns the record count and the byte offset just
// past the last valid record.
func scanSegment(path string, start uint64, fn func(lsn uint64, r Record) error) (n uint64, validEnd int64, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	off := 0
	for off < len(b) {
		r, consumed, derr := DecodeRecord(b[off:])
		if derr != nil {
			break // torn or corrupt tail: the valid prefix ends here
		}
		if fn != nil {
			if err := fn(start+n, r); err != nil {
				return n, int64(off), err
			}
		}
		off += consumed
		n++
	}
	return n, int64(off), nil
}

// Open opens dir (creating it if needed) for appending. Existing segments
// are scanned to find the end of the log; a torn or corrupt tail in the
// LAST segment — the only kind of damage a crash can produce — is
// truncated away. Corruption in an earlier segment is reported as an
// error, since a crash cannot cause it.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	starts, err := segments(dir)
	if err != nil {
		lock.Close()
		return nil, err
	}
	l := &Log{
		dir:  dir,
		opts: opts,
		stop: make(chan struct{}),
		done: make(chan struct{}),
		lock: lock,
	}
	opened := false
	defer func() {
		if !opened {
			lock.Close() // releases the flock on every error path
		}
	}()

	// Establish the end of the existing log. Sealed segments' record
	// counts are implied by the next segment's start LSN (ReadFrom
	// re-verifies that when it replays them); only the last segment — the
	// only one a crash can tear — needs a full CRC scan, so Open's I/O is
	// one segment, not the whole log.
	for i, start := range starts {
		if i+1 < len(starts) {
			if starts[i+1] <= start {
				return nil, fmt.Errorf("wal: segments at LSN %d and %d overlap", start, starts[i+1])
			}
			continue
		}
		path := filepath.Join(dir, segName(start))
		n, validEnd, err := scanSegment(path, start, nil)
		if err != nil {
			return nil, fmt.Errorf("wal: scan %s: %w", path, err)
		}
		info, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		if validEnd < info.Size() {
			if err := os.Truncate(path, validEnd); err != nil {
				return nil, fmt.Errorf("wal: truncate torn tail of %s: %w", path, err)
			}
			l.stats.Truncated = info.Size() - validEnd
		}
		l.nextLSN = start + n
		l.segStart = start
		l.segSize = validEnd
	}

	if len(starts) == 0 {
		if err := l.openSegmentLocked(0); err != nil {
			return nil, err
		}
	} else {
		f, err := os.OpenFile(filepath.Join(dir, segName(l.segStart)), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		l.f = f
		l.w = bufio.NewWriterSize(f, 1<<16)
	}

	opened = true
	go l.commitLoop()
	return l, nil
}

// openSegmentLocked starts a fresh segment whose first record is LSN
// start. The directory entry is fsynced: otherwise a crash could drop the
// whole file even after group commits fsynced its contents, losing
// records that were acknowledged as durable.
func (l *Log) openSegmentLocked(start uint64) error {
	f, err := os.OpenFile(filepath.Join(l.dir, segName(start)), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.w = bufio.NewWriterSize(f, 1<<16)
	l.segStart = start
	l.segSize = 0
	return nil
}

// syncDir fsyncs a directory so renames, creations and deletions inside it
// are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// commitLoop is the group-commit ticker: flush + fsync every interval.
func (l *Log) commitLoop() {
	defer close(l.done)
	if l.opts.FsyncInterval < 0 {
		<-l.stop
		return
	}
	t := time.NewTicker(l.opts.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.mu.Lock()
			if err := l.syncLocked(); err != nil && l.syncErr == nil {
				l.syncErr = err
			}
			l.mu.Unlock()
		}
	}
}

// syncLocked flushes the buffer and fsyncs the active segment if anything
// was appended since the last commit.
func (l *Log) syncLocked() error {
	if l.closed || !l.dirty {
		return nil
	}
	if err := l.w.Flush(); err != nil {
		return err
	}
	t0 := time.Now()
	if err := l.f.Sync(); err != nil {
		return err
	}
	mFsync.ObserveSince(t0)
	mCommitBatch.Observe(float64(l.pending))
	l.pending = 0
	l.dirty = false
	l.stats.Syncs++
	return nil
}

// Append journals one record. It buffers in memory and returns once the
// record is in the log's write buffer; durability follows at the next
// group commit (or Sync). The returned LSN identifies the record's
// position in the stream.
func (l *Log) Append(r Record) (uint64, error) {
	t0 := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	lsn, err := l.appendLocked(r)
	if err == nil {
		mAppend.ObserveSince(t0)
	}
	return lsn, err
}

// AppendBatch journals n records under one lock acquisition — the fast
// path for batched ingestion (records may straddle a segment rotation).
// Record i is record(i), encoded as it is read, so a caller journals its
// own values without building a []Record first; record runs under the
// log's lock and must not call back into the log. An I/O failure mid-batch
// poisons the log, so a partially journaled batch can never be silently
// followed by more records. It returns the LSN of the first record.
func (l *Log) AppendBatch(n int, record func(i int) Record) (uint64, error) {
	t0 := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	first := l.nextLSN
	for i := range n {
		if _, err := l.appendLocked(record(i)); err != nil {
			return first, err
		}
	}
	mAppend.ObserveSince(t0)
	return first, nil
}

// guardLocked rejects appends on a closed or poisoned log.
func (l *Log) guardLocked() error {
	if l.closed {
		return ErrClosed
	}
	return l.syncErr
}

func (l *Log) appendLocked(r Record) (uint64, error) {
	if err := l.guardLocked(); err != nil {
		return 0, err
	}
	var err error
	l.scratch, err = AppendRecord(l.scratch[:0], r)
	if err != nil {
		return 0, err
	}
	if err := l.writeLocked(l.scratch); err != nil {
		return 0, err
	}
	lsn := l.nextLSN
	l.nextLSN++
	l.stats.Records++
	l.pending++
	mRecords.Inc()
	return lsn, nil
}

// writeLocked rotates if needed and buffers one encoded frame (or batch of
// frames). An I/O failure here poisons the log: the buffer may hold a
// partially-written unit, so every later append and sync fails too rather
// than journaling records after a hole. Recovery still works — whatever
// prefix reached disk is CRC-framed and replays cleanly.
func (l *Log) writeLocked(frames []byte) error {
	if l.segSize > 0 && l.segSize+int64(len(frames)) > l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			l.poisonLocked(err)
			return err
		}
	}
	if _, err := l.w.Write(frames); err != nil {
		l.poisonLocked(err)
		return err
	}
	l.segSize += int64(len(frames))
	l.dirty = true
	return nil
}

func (l *Log) poisonLocked(err error) {
	if l.syncErr == nil {
		l.syncErr = fmt.Errorf("wal: log failed, restart to recover: %w", err)
		// First failure only: the flip from healthy to poisoned is the
		// event; repeated rejections afterwards are not.
		flightrec.Default.Record(flightrec.EvWALPoisoned,
			flightrec.KV("error", err.Error()),
			flightrec.KV("next_lsn", l.nextLSN))
	}
}

// rotateLocked seals the active segment (flush + fsync + close) and opens
// a fresh one starting at the next LSN.
func (l *Log) rotateLocked() error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	t0 := time.Now()
	if err := l.f.Sync(); err != nil {
		return err
	}
	mFsync.ObserveSince(t0)
	mCommitBatch.Observe(float64(l.pending))
	l.pending = 0
	l.dirty = false
	l.stats.Syncs++
	if err := l.f.Close(); err != nil {
		return err
	}
	mRotations.Inc()
	flightrec.Default.Record(flightrec.EvWALRotation,
		flightrec.KV("sealed_start_lsn", l.segStart),
		flightrec.KV("sealed_bytes", l.segSize),
		flightrec.KV("next_start_lsn", l.nextLSN))
	return l.openSegmentLocked(l.nextLSN)
}

// Sync forces a commit: everything appended so far becomes durable before
// it returns.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.syncErr != nil {
		return l.syncErr
	}
	return l.syncLocked()
}

// Err reports the log's poisoned state: the first unrecoverable I/O
// failure (from an append, a rotation, or a background group commit), or
// nil while the log is healthy. Once non-nil, every later Append and Sync
// fails with the same error; the process must restart and recover.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncErr
}

// NextLSN returns the LSN the next appended record will receive.
func (l *Log) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN
}

// Stats returns the log's counters plus the current on-disk footprint.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	st := l.stats
	st.NextLSN = l.nextLSN
	l.mu.Unlock()
	if starts, err := segments(l.dir); err == nil {
		st.Segments = len(starts)
		for _, s := range starts {
			if info, err := os.Stat(filepath.Join(l.dir, segName(s))); err == nil {
				st.Bytes += info.Size()
			}
		}
	}
	return st
}

// TruncateBefore deletes whole segments whose records all precede lsn,
// keeping the log replayable from lsn onward. It is called after a
// checkpoint at lsn becomes durable. The active segment is never deleted.
func (l *Log) TruncateBefore(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	starts, err := segments(l.dir)
	if err != nil {
		return err
	}
	var errs []error
	// A segment is safe to delete when the NEXT segment starts at or
	// before lsn (then every record in it has LSN < lsn).
	for i := 0; i+1 < len(starts); i++ {
		if starts[i+1] > lsn || starts[i] == l.segStart {
			break
		}
		if err := os.Remove(filepath.Join(l.dir, segName(starts[i]))); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// ResetTo fast-forwards the append position to lsn when a checkpoint is
// newer than the log's decodable end (e.g. segments were removed by
// hand): appending below the checkpoint's LSN would write records that
// recovery, which replays from the checkpoint, skips. Every existing
// segment is deleted — all of their records precede lsn, so the
// checkpoint covers them — and a fresh segment starts at lsn; leaving
// them in place would create an LSN gap that Open and ReadFrom rightly
// reject on the next start.
func (l *Log) ResetTo(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.guardLocked(); err != nil {
		return err
	}
	if lsn <= l.nextLSN {
		return nil
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	starts, err := segments(l.dir)
	if err != nil {
		return err
	}
	var errs []error
	for _, s := range starts {
		if err := os.Remove(filepath.Join(l.dir, segName(s))); err != nil {
			errs = append(errs, err)
		}
	}
	if err := errors.Join(errs...); err != nil {
		return err
	}
	l.dirty = false
	l.nextLSN = lsn
	return l.openSegmentLocked(lsn)
}

// Close commits outstanding records, stops the group-commit goroutine and
// closes the active segment. It is idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	err := l.syncLocked()
	if err == nil {
		err = l.syncErr
	}
	l.closed = true
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	if cerr := l.lock.Close(); err == nil { // releases the flock
		err = cerr
	}
	l.mu.Unlock()
	close(l.stop)
	<-l.done
	return err
}
