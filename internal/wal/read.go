package wal

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// ReadFrom replays the directory's record stream, calling fn for every
// record with LSN >= from, in LSN order. A torn or corrupt tail in the
// last segment ends the replay cleanly (that is the expected shape of a
// crash); corruption anywhere else is an error. fn returning an error
// aborts the replay with that error.
func ReadFrom(dir string, from uint64, fn func(lsn uint64, r Record) error) error {
	starts, err := segments(dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return err
	}
	// The first surviving segment must start at or before `from`,
	// otherwise records in [from, start) are missing — e.g. a fallback to
	// an older checkpoint after TruncateBefore already dropped the
	// segments that covered the gap. Replaying silently from the later
	// start would hand back a state with a hole in it.
	if len(starts) > 0 && starts[0] > from {
		return fmt.Errorf("wal: cannot replay from LSN %d: oldest surviving segment starts at LSN %d", from, starts[0])
	}
	if len(starts) == 0 && from > 0 {
		return fmt.Errorf("wal: cannot replay from LSN %d: no segments", from)
	}
	for i, start := range starts {
		// Skip segments that end before `from`: their record count is the
		// next segment's start minus theirs.
		if i+1 < len(starts) && starts[i+1] <= from {
			continue
		}
		path := filepath.Join(dir, segName(start))
		n, validEnd, err := scanSegment(path, start, func(lsn uint64, r Record) error {
			if lsn < from {
				return nil
			}
			return fn(lsn, r)
		})
		if err != nil {
			return err
		}
		if info, serr := os.Stat(path); serr == nil && validEnd < info.Size() && i != len(starts)-1 {
			return fmt.Errorf("wal: segment %s is corrupt at byte %d (not the last segment)", path, validEnd)
		}
		if i+1 < len(starts) && start+n != starts[i+1] {
			return fmt.Errorf("wal: segment %s holds %d records but next segment starts at LSN %d", path, n, starts[i+1])
		}
	}
	return nil
}

// WriteFileAtomic durably replaces dir/name with payload: the bytes go to
// a temp file, are fsynced, and are renamed into place, then the
// directory is fsynced so the rename itself survives a power loss. A
// reader therefore sees the old file or the whole new one, never a
// renamed-but-empty one. Checkpoints and the journal's config file — the
// files recovery trusts without replaying anything — are written this way.
func WriteFileAtomic(dir, name string, payload []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	final := filepath.Join(dir, name)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(payload); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, final)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// WriteCheckpoint atomically writes a checkpoint file whose state covers
// every record with LSN < lsn. Older checkpoint files beyond the most
// recent `keep` are deleted afterwards (keep < 1 keeps only the new one).
func WriteCheckpoint(dir string, lsn uint64, payload []byte, keep int) error {
	// The rename must be durable BEFORE the caller deletes the segments
	// this checkpoint covers; without the directory fsync a power loss
	// could persist the unlinks but not the rename, losing both the
	// checkpoint and the records that could rebuild it.
	if err := WriteFileAtomic(dir, ckptName(lsn), payload); err != nil {
		return err
	}
	// Retention: drop old checkpoints beyond the newest `keep` extras.
	lsns, err := Checkpoints(dir)
	if err != nil {
		return err
	}
	if keep < 1 {
		keep = 1
	}
	var errs []error
	for i := 0; i+keep < len(lsns); i++ {
		if lsns[i] == lsn {
			continue
		}
		if err := os.Remove(filepath.Join(dir, ckptName(lsns[i]))); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Checkpoints lists the directory's checkpoint LSNs in ascending order.
func Checkpoints(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var lsns []uint64
	for _, e := range entries {
		if lsn, ok := parseLSN(e.Name(), ckptPrefix, ckptSuffix); ok {
			lsns = append(lsns, lsn)
		}
	}
	sort.Slice(lsns, func(i, j int) bool { return lsns[i] < lsns[j] })
	return lsns, nil
}

// ReadCheckpoint returns the payload of the checkpoint file at lsn.
// Callers validate the payload themselves (the checkpoint codec carries
// its own magic and checksum) and fall back to an older checkpoint — or a
// full replay — when it does not decode.
func ReadCheckpoint(dir string, lsn uint64) ([]byte, error) {
	return os.ReadFile(filepath.Join(dir, ckptName(lsn)))
}
