// Package wal implements the durability substrate behind
// hotpaths.OpenDurable: a segment-based append-only write-ahead log of
// Observe/Tick records, plus checkpoint files that bound recovery cost.
//
// # Log layout
//
// A log directory holds numbered segment files
//
//	wal-00000000000000000000.seg
//	wal-00000000000000002481.seg
//	...
//
// where the number is the LSN (log sequence number — the zero-based index
// in the whole record stream) of the segment's first record. Appends go to
// the highest-numbered segment; when it exceeds the configured size the
// log rotates to a fresh segment. Checkpoints are separate files
// (ckpt-<LSN>.ckpt) holding an opaque payload — the serialized engine
// state as of just before record LSN — and once a checkpoint is durable,
// every segment whose records all precede it can be deleted.
//
// # Record framing
//
// Each record is framed as
//
//	uint32 LE  payload length
//	uint32 LE  CRC-32C (Castagnoli) of the payload
//	payload    (kind byte + fixed-width LE fields)
//
// so a torn write at the tail — a crash mid-record — is detected by a
// short frame or a CRC mismatch and cleanly truncated on reopen. The
// decoder never trusts the length field beyond MaxPayload and never reads
// past the buffer it was given, which FuzzWALDecode locks in.
//
// # Durability model
//
// Append buffers in memory; a group-commit ticker flushes and fsyncs every
// FsyncInterval. An acknowledged append is therefore durable only after
// the next group commit — a crash can lose at most the last interval's
// records, and recovery replays the longest decodable prefix, which the
// deterministic engine turns into the exact state that prefix produced.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
)

func floatBits(f float64) uint64 { return math.Float64bits(f) }

func floatFrom(b uint64) float64 { return math.Float64frombits(b) }

// Kind discriminates record payloads.
type Kind uint8

const (
	// KindObserve journals one Observe/ObserveNoisy call.
	KindObserve Kind = 1
	// KindTick journals one Tick call.
	KindTick Kind = 2
	// KindHeartbeat is a replication control frame: it never appears in a
	// journal on disk, but the log-shipping stream interleaves heartbeats
	// with the data records so a follower learns the primary's position
	// (NextLSN/Epoch/T) even while no records flow. Heartbeats share the
	// record framing so one decoder reads the whole stream; repliers must
	// skip them when applying (they carry no state change and no LSN).
	KindHeartbeat Kind = 3
)

// Record is one journaled engine input, or a replication control frame.
// KindObserve uses ObjectID/T/X/Y/SigmaX/SigmaY (sigmas zero for exact
// measurements); KindTick uses only T (the clock passed to Tick);
// KindHeartbeat uses NextLSN, Epoch and T (the primary's log position,
// epoch sequence and clock).
type Record struct {
	Kind     Kind
	ObjectID int64
	T        int64
	X, Y     float64
	SigmaX   float64
	SigmaY   float64

	// NextLSN and Epoch are meaningful only on KindHeartbeat frames.
	NextLSN uint64
	Epoch   int64
}

const (
	frameHeader = 8 // uint32 length + uint32 crc

	observePayload   = 1 + 6*8
	tickPayload      = 1 + 8
	heartbeatPayload = 1 + 3*8

	// MaxPayload bounds the length field a decoder will trust, so corrupt
	// input cannot trigger huge allocations or over-reads.
	MaxPayload = 64
)

// MaxFrame is the largest encoded record size, used to size buffers.
const MaxFrame = frameHeader + MaxPayload

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendRecord encodes r framed into dst and returns the extended slice.
// The payload is written in place, behind its header, so encoding
// allocates only when dst must grow.
func AppendRecord(dst []byte, r Record) ([]byte, error) {
	var n int
	switch r.Kind {
	case KindObserve:
		n = observePayload
	case KindTick:
		n = tickPayload
	case KindHeartbeat:
		n = heartbeatPayload
	default:
		return dst, fmt.Errorf("wal: unknown record kind %d", r.Kind)
	}
	off := len(dst)
	dst = slices.Grow(dst, frameHeader+n)[:off+frameHeader+n]
	payload := dst[off+frameHeader:]
	payload[0] = byte(r.Kind)
	switch r.Kind {
	case KindObserve:
		binary.LittleEndian.PutUint64(payload[1:], uint64(r.ObjectID))
		binary.LittleEndian.PutUint64(payload[9:], uint64(r.T))
		binary.LittleEndian.PutUint64(payload[17:], floatBits(r.X))
		binary.LittleEndian.PutUint64(payload[25:], floatBits(r.Y))
		binary.LittleEndian.PutUint64(payload[33:], floatBits(r.SigmaX))
		binary.LittleEndian.PutUint64(payload[41:], floatBits(r.SigmaY))
	case KindTick:
		binary.LittleEndian.PutUint64(payload[1:], uint64(r.T))
	case KindHeartbeat:
		binary.LittleEndian.PutUint64(payload[1:], r.NextLSN)
		binary.LittleEndian.PutUint64(payload[9:], uint64(r.Epoch))
		binary.LittleEndian.PutUint64(payload[17:], uint64(r.T))
	}
	binary.LittleEndian.PutUint32(dst[off:], uint32(n))
	binary.LittleEndian.PutUint32(dst[off+4:], crc32.Checksum(payload, castagnoli))
	return dst, nil
}

// DecodeRecord decodes the first framed record in b. It returns the record
// and the number of bytes consumed, or an error when b does not start with
// a complete, checksummed, well-formed record. It never reads past b and
// never allocates proportionally to corrupt length fields.
func DecodeRecord(b []byte) (Record, int, error) {
	if len(b) < frameHeader {
		return Record{}, 0, fmt.Errorf("wal: short frame header: %d bytes", len(b))
	}
	n := binary.LittleEndian.Uint32(b[0:4])
	if n == 0 || n > MaxPayload {
		return Record{}, 0, fmt.Errorf("wal: implausible payload length %d", n)
	}
	if len(b) < frameHeader+int(n) {
		return Record{}, 0, fmt.Errorf("wal: truncated payload: have %d of %d bytes", len(b)-frameHeader, n)
	}
	payload := b[frameHeader : frameHeader+int(n)]
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(b[4:8]); got != want {
		return Record{}, 0, fmt.Errorf("wal: checksum mismatch: %08x != %08x", got, want)
	}
	var r Record
	switch Kind(payload[0]) {
	case KindObserve:
		if len(payload) != observePayload {
			return Record{}, 0, fmt.Errorf("wal: observe payload is %d bytes, want %d", len(payload), observePayload)
		}
		r = Record{
			Kind:     KindObserve,
			ObjectID: int64(binary.LittleEndian.Uint64(payload[1:])),
			T:        int64(binary.LittleEndian.Uint64(payload[9:])),
			X:        floatFrom(binary.LittleEndian.Uint64(payload[17:])),
			Y:        floatFrom(binary.LittleEndian.Uint64(payload[25:])),
			SigmaX:   floatFrom(binary.LittleEndian.Uint64(payload[33:])),
			SigmaY:   floatFrom(binary.LittleEndian.Uint64(payload[41:])),
		}
	case KindTick:
		if len(payload) != tickPayload {
			return Record{}, 0, fmt.Errorf("wal: tick payload is %d bytes, want %d", len(payload), tickPayload)
		}
		r = Record{Kind: KindTick, T: int64(binary.LittleEndian.Uint64(payload[1:]))}
	case KindHeartbeat:
		if len(payload) != heartbeatPayload {
			return Record{}, 0, fmt.Errorf("wal: heartbeat payload is %d bytes, want %d", len(payload), heartbeatPayload)
		}
		r = Record{
			Kind:    KindHeartbeat,
			NextLSN: binary.LittleEndian.Uint64(payload[1:]),
			Epoch:   int64(binary.LittleEndian.Uint64(payload[9:])),
			T:       int64(binary.LittleEndian.Uint64(payload[17:])),
		}
	default:
		return Record{}, 0, fmt.Errorf("wal: unknown record kind %d", payload[0])
	}
	return r, frameHeader + int(n), nil
}
