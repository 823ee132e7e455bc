package hotpaths

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"runtime"
	"slices"
	"testing"

	"hotpaths/internal/engine"
	"hotpaths/internal/geom"
	"hotpaths/internal/raytrace"
	"hotpaths/internal/wal"
)

// negZeroWorkload drives four objects east along y = -0 and then turns
// them north, so the paths they share start at a vertex whose y is
// negative zero — a value gob's float encoding cannot carry.
func negZeroWorkload() [][]Observation {
	negZero := math.Copysign(0, -1)
	var out [][]Observation
	for t := int64(1); t <= 60; t++ {
		var batch []Observation
		for i := 0; i < 4; i++ {
			x, y := float64(8*t), negZero
			if t > 20 {
				x, y = 160+float64(i), float64(5*(t-20))
			}
			batch = append(batch, Observation{ObjectID: i, X: x, Y: y, T: t})
		}
		out = append(out, batch)
	}
	return out
}

// pathsBytes is the /paths wire form of a snapshot: the byte-level view in
// which -0 and +0 differ ("-0" vs "0"), unlike == and reflect.DeepEqual.
func pathsBytes(t *testing.T, snap Snapshot) []byte {
	t.Helper()
	b, err := json.Marshal(PathsJSON(snap.HotPaths()))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// A checkpoint must round-trip every coordinate bit for bit. Version 1
// went through gob's float encoding, which omits zero-valued fields, so a
// -0 coordinate came back +0 and /paths was byte-unequal after a restart.
func TestCheckpointKeepsSignOfZero(t *testing.T) {
	cfg := engineTestConfig()
	dir := t.TempDir()
	dur, err := OpenDurable(dir, DurableConfig{Config: cfg, FsyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range negZeroWorkload() {
		if err := dur.ObserveBatchCtx(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
		if err := dur.TickCtx(context.Background(), batch[0].T); err != nil {
			t.Fatal(err)
		}
	}
	live := dur.Snapshot()
	want := pathsBytes(t, live)
	negZeros := 0
	for _, hp := range live.HotPaths() {
		for _, v := range []float64{hp.Start.X, hp.Start.Y, hp.End.X, hp.End.Y} {
			if v == 0 && math.Signbit(v) {
				negZeros++
			}
		}
	}
	if negZeros == 0 {
		t.Fatalf("workload produced no -0 vertex: %s", want)
	}
	if err := dur.Close(); err != nil { // final checkpoint: recovery replays nothing
		t.Fatal(err)
	}

	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if got := pathsBytes(t, rec.Snapshot()); !bytes.Equal(want, got) {
		t.Errorf("paths are byte-unequal after recovery from a checkpoint:\n live      %s\n recovered %s", want, got)
	}
}

// A directory whose only checkpoint is in a format this build refuses and
// whose journal no longer reaches back to LSN 0 cannot be recovered; the
// refusal must name the checkpoint's version, not just the WAL gap.
func TestRecoverNamesSkippedCheckpointVersion(t *testing.T) {
	dir := t.TempDir()
	dur, err := OpenDurable(dir, DurableConfig{
		Config:          engineTestConfig(),
		FsyncInterval:   -1,
		SegmentBytes:    4 << 10, // several segments, so the checkpoint truncates the head
		CheckpointEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range flowWorkload(32, 80, 3) {
		if err := dur.ObserveBatchCtx(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
		if err := dur.TickCtx(context.Background(), batch[0].T); err != nil {
			t.Fatal(err)
		}
	}
	lsn, err := dur.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}
	if eng, err := Recover(dir); err != nil {
		t.Fatalf("control: the untouched directory must recover: %v", err)
	} else {
		eng.Close()
	}

	// Rewrite the checkpoint as version 1. The CRC covers the body only,
	// so the file is otherwise what a version-1 build left behind.
	payload, err := wal.ReadCheckpoint(dir, lsn)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(payload[len(checkpointMagic):], 1)
	if err := wal.WriteCheckpoint(dir, lsn, payload, 1); err != nil {
		t.Fatal(err)
	}

	eng, err := Recover(dir)
	if err == nil {
		eng.Close()
		t.Fatal("a version-1 checkpoint over a truncated journal was recovered")
	}
	var verr *checkpointVersionError
	if !errors.As(err, &verr) || verr.version != 1 {
		t.Errorf("refusal does not name the checkpoint version: %v", err)
	}
	if _, err := OpenDurable(dir, DurableConfig{Config: engineTestConfig()}); !errors.As(err, &verr) {
		t.Errorf("OpenDurable's refusal does not name the checkpoint version: %v", err)
	}
}

// restoredIndexMatchesSnapshot restores st into a fresh engine and, if the
// engine accepts it, checks that every stored path is in the snapshot,
// then ticks across the next epoch boundary, so the pending reports reach
// the coordinator and its responses reach the restored filters.
func restoredIndexMatchesSnapshot(t *testing.T, cfg Config, st engine.State) {
	t.Helper()
	eng, err := NewEngine(EngineConfig{Config: cfg, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if eng.eng.RestoreState(st) != nil {
		return
	}
	if snap, _, es := eng.eng.Snapshot(); es.IndexSize != snap.Len() {
		t.Fatalf("restored IndexSize %d, snapshot holds %d paths", es.IndexSize, snap.Len())
	}
	// Errors are allowed (a hostile state may hold a report the
	// coordinator refuses); a panic is not.
	_ = eng.TickCtx(context.Background(), int64(st.Clock)/cfg.Epoch*cfg.Epoch+cfg.Epoch)
}

// checkpointSeed runs a workload through an Engine under cfg and returns
// the checkpoint a Durable would write for the resulting state.
func checkpointSeed(tb testing.TB, cfg Config, batches [][]Observation) []byte {
	tb.Helper()
	return checkpointAt(tb, cfg, 2, batches)
}

// checkpointAt is checkpointSeed on an Engine of the given width.
func checkpointAt(tb testing.TB, cfg Config, shards int, batches [][]Observation) []byte {
	tb.Helper()
	eng, err := NewEngine(EngineConfig{Config: cfg, Shards: shards})
	if err != nil {
		tb.Fatal(err)
	}
	defer eng.Close()
	for _, batch := range batches {
		if err := eng.ObserveBatchCtx(context.Background(), batch); err != nil {
			tb.Fatal(err)
		}
		if err := eng.TickCtx(context.Background(), batch[0].T); err != nil {
			tb.Fatal(err)
		}
	}
	st, err := eng.eng.DumpState()
	if err != nil {
		tb.Fatal(err)
	}
	return encodeCheckpoint(eng.cfg, st)
}

// orphanPendingSeed is a mid-epoch checkpoint with one more pending
// report, for an object that has no filter: a state the engine must
// refuse, since the next epoch would answer it to nobody.
func orphanPendingSeed(tb testing.TB, cfg Config) []byte {
	tb.Helper()
	st, err := decodeCheckpoint(checkpointSeed(tb, cfg, flowWorkload(16, 80, 9)[:45]), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if len(st.Pending) == 0 {
		tb.Fatal("the mid-epoch state holds no pending report")
	}
	orphan := st.Pending[0]
	orphan.ObjectID = 999
	st.Pending = append(st.Pending, orphan)
	return encodeCheckpoint(cfg, st)
}

// hostileFSASeed is a mid-epoch checkpoint whose first pending report
// and its waiting filter agree on an FSA 1e60 wide. It restores, but no
// real filter reports such an FSA: the next epoch must refuse it rather
// than walk every overlap cell it covers.
func hostileFSASeed(tb testing.TB, cfg Config) []byte {
	tb.Helper()
	st, err := decodeCheckpoint(checkpointSeed(tb, cfg, flowWorkload(16, 80, 9)[:45]), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if len(st.Pending) == 0 {
		tb.Fatal("the mid-epoch state holds no pending report")
	}
	p := &st.Pending[0]
	p.State.FSA.Lo = geom.Pt(p.State.FSA.Hi.X-1e60, p.State.FSA.Hi.Y-1e60)
	i := slices.IndexFunc(st.Filters, func(e raytrace.FilterEntry) bool { return e.ObjectID == p.ObjectID })
	if i < 0 {
		tb.Fatal("the pending report has no filter")
	}
	st.Filters[i].Filter.FSA = p.State.FSA
	return encodeCheckpoint(cfg, st)
}

// The checkpoint is a wire format: a follower decodes a primary's, and a
// restart decodes the previous build's. Its bytes are pinned for an
// exact and a mid-epoch noisy state (pending reports, waiting filters,
// sigma entries) at several engine widths, so a refactor of the state
// behind it cannot move a byte unnoticed. An intended format change
// bumps checkpointVersion and re-pins these sums; they were last re-pinned
// for version 3, the flat binary body that replaced gob. They were recorded on
// amd64; an architecture that fuses multiply-adds may place a vertex a
// bit differently, as the paper-curve golden also allows.
func TestCheckpointBytesStable(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("checkpoint sums recorded on amd64, running on %s", runtime.GOARCH)
	}
	noisy := engineTestConfig()
	noisy.Delta = 0.05
	for _, tc := range []struct {
		name    string
		cfg     Config
		batches func() [][]Observation
		size    int
		sum     string
	}{
		{"exact", engineTestConfig(), func() [][]Observation { return IngestWorkload(48, 120, 42) },
			27679, "4bce119603b357c426ceda4d611427df6fda3a76d174097fd3577274ebecb8a3"},
		{"noisy-mid-epoch", noisy, func() [][]Observation { return makeNoisy(flowWorkload(16, 80, 9)[:45]) },
			1956, "941644a12039eee663eb2f7e99dbc34c4ccfca325058af84c55357b9c8b2c2d1"},
	} {
		for _, shards := range []int{1, 2, 4} {
			b := checkpointAt(t, tc.cfg, shards, tc.batches())
			sum := sha256.Sum256(b)
			if got := hex.EncodeToString(sum[:]); len(b) != tc.size || got != tc.sum {
				t.Errorf("%s, %d shards: checkpoint is %d bytes with sha256 %s, want %d bytes with %s", tc.name, shards, len(b), got, tc.size, tc.sum)
			}
		}
	}
}

// restamp returns body framed as a checkpoint with a valid checksum, so
// a malformed body reaches the decoder behind the frame.
func restamp(body []byte) []byte {
	b := append(append([]byte(nil), checkpointMagic...), 0, 0, 0, 0, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(b[len(checkpointMagic):], checkpointVersion)
	b = append(b, body...)
	binary.LittleEndian.PutUint32(b[len(checkpointMagic)+4:], crc32.Checksum(body, checkpointCRC))
	return b
}

// malformedCheckpoint is one hostile variant of a real checkpoint body.
type malformedCheckpoint struct {
	name string
	b    []byte // framed, with a valid checksum
}

// malformedCheckpoints derives from a real mid-epoch noisy checkpoint
// one variant per refusal the decoder makes inside a body: a count larger
// than the remaining bytes can hold (just, at one byte a record, and by
// far), a non-minimal varint, a bool byte of 2, a trailing byte and
// another rules identifier. Offsets are found by walking the body with
// the decoder's own reader.
func malformedCheckpoints(tb testing.TB, cfg Config) (valid []byte, out []malformedCheckpoint) {
	tb.Helper()
	valid = checkpointSeed(tb, cfg, makeNoisy(flowWorkload(16, 80, 9)[:45]))
	body := valid[len(checkpointMagic)+8:]
	r := ckptReader{b: body, size: len(body)}
	r.uvarint()
	r.config()
	r.time()
	r.int64()
	r.int64()
	r.int()
	for range r.count(minPendingBytes) {
		r.int()
		r.reportState()
	}
	filtersAt := r.offset()
	nFilters := r.count(minFilterBytes)
	countEnd := r.offset()
	r.int()
	r.float()
	r.float()
	r.reportState()
	waitingAt := r.offset()
	if r.err != nil || nFilters == 0 || body[0] != rules {
		tb.Fatalf("walking the seed body: %v (%d filters)", r.err, nFilters)
	}
	splice := func(at, end int, mid ...byte) []byte {
		return restamp(slices.Concat(body[:at], mid, body[end:]))
	}
	left := len(body) - countEnd
	nonMinimal := binary.AppendUvarint(nil, uint64(nFilters))
	nonMinimal[len(nonMinimal)-1] |= 0x80
	nonMinimal = append(nonMinimal, 0)
	badBool := slices.Clone(body)
	badBool[waitingAt] = 2
	return valid, []malformedCheckpoint{
		{"count-beyond-body", splice(filtersAt, countEnd, binary.AppendUvarint(nil, uint64(left/minFilterBytes+1))...)},
		{"count-one-per-byte", splice(filtersAt, countEnd, binary.AppendUvarint(nil, uint64(left))...)},
		{"count-huge", splice(filtersAt, countEnd, binary.AppendUvarint(nil, 1<<62)...)},
		{"non-minimal-varint", splice(filtersAt, countEnd, nonMinimal...)},
		{"bool-byte-2", restamp(badBool)},
		{"trailing-byte", restamp(append(slices.Clone(body), 0))},
		{"rules-mismatch", splice(0, 1, rules+1)},
	}
}

// A hostile body is refused with an error, never a panic, and before the
// decoder allocates more than a state of the body's size would need (a
// decoded filter entry is about twice its encoding): every truncation of
// a real body, and each variant of malformedCheckpoints.
func TestCheckpointDecodeRefusesMalformedBodies(t *testing.T) {
	cfg := engineTestConfig()
	cfg.Delta = 0.05
	cfg, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	valid, cases := malformedCheckpoints(t, cfg)
	if _, err := decodeCheckpoint(valid, cfg); err != nil {
		t.Fatalf("the unmodified body is refused: %v", err)
	}
	// The least of three counts: the heap total is process-wide, and a
	// goroutine an earlier test left behind may allocate meanwhile.
	refused := func(t *testing.T, b []byte) (err error) {
		t.Helper()
		least := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err = decodeCheckpoint(b, cfg)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if err == nil {
			t.Fatalf("accepted")
		}
		if limit := uint64(4*len(b) + 16<<10); least > limit {
			t.Errorf("allocated %d bytes refusing a %d-byte checkpoint, want at most %d", least, len(b), limit)
		}
		return err
	}
	hdr := len(checkpointMagic) + 8
	t.Run("every-truncation", func(t *testing.T) {
		for n := 0; n < len(valid)-hdr; n++ {
			refused(t, restamp(valid[hdr:hdr+n]))
		}
	})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := refused(t, c.b)
			var rerr *checkpointRulesError
			if isRules := errors.As(err, &rerr); isRules != (c.name == "rules-mismatch") {
				t.Errorf("refusal %v", err)
			} else if isRules && (rerr.got != rules+1 || rerr.want != rules) {
				t.Errorf("rules refusal names %d and %d, want %d and %d", rerr.got, rerr.want, rules+1, rules)
			}
		})
	}
}

// FuzzCheckpointDecode: a follower decodes a blob fetched over HTTP from
// /wal/checkpoint, so the decoder faces a socket. It must never panic,
// and whatever it accepts must be exactly what its encoder writes:
// encode(decode(b)) == b. A state the engine accepts must restore to a
// store whose IndexSize is its snapshot's size, so /stats and /paths
// agree. The CRC would stop almost every mutation at the door, so each
// input is also tried with the checksum re-stamped over its mutated body
// — that is the body decoder on hostile bytes.
func FuzzCheckpointDecode(f *testing.F) {
	cfg := engineTestConfig()
	cfg.Delta = 0.05
	cfg, err := cfg.withDefaults()
	if err != nil {
		f.Fatal(err)
	}
	// Cut mid-epoch: the state then holds pending reports and waiting
	// filters, the parts of a checkpoint an epoch boundary leaves empty.
	f.Add(checkpointSeed(f, cfg, flowWorkload(16, 80, 9)[:45]))
	f.Add(checkpointSeed(f, cfg, makeNoisy(flowWorkload(16, 80, 9)[:45])))
	f.Add(checkpointSeed(f, cfg, negZeroWorkload()))
	f.Add(orphanPendingSeed(f, cfg))
	f.Add(hostileFSASeed(f, cfg))
	valid, malformed := malformedCheckpoints(f, cfg)
	for _, c := range malformed {
		f.Add(c.b)
	}
	for _, n := range []int{0, 1, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:n])
	}

	hdr := len(checkpointMagic) + 8
	f.Fuzz(func(t *testing.T, b []byte) {
		inputs := [][]byte{b}
		if len(b) >= hdr {
			restamped := append([]byte(nil), b...)
			binary.LittleEndian.PutUint32(restamped[len(checkpointMagic)+4:], crc32.Checksum(restamped[hdr:], checkpointCRC))
			inputs = append(inputs, restamped)
		}
		for _, in := range inputs {
			st, err := decodeCheckpoint(in, cfg)
			if err != nil {
				continue
			}
			if again := encodeCheckpoint(cfg, st); !bytes.Equal(again, in) {
				t.Fatalf("encode(decode(b)) != b: %d bytes re-encode to %d", len(in), len(again))
			}
			restoredIndexMatchesSnapshot(t, cfg, st)
		}
	})
}
