// Package replication ships a primary's write-ahead log to read-only
// followers over HTTP, turning the durability journal into a replication
// log: because System and Engine are observation-order-deterministic and
// the WAL fixes a total observation order, a follower that applies the
// same record stream reconstructs bit-identical state.
//
// # Protocol
//
// The primary mounts three endpoints (hotpathsd does this when -wal is
// set):
//
//	GET /wal/meta        the journal's meta.json — the Config the log was
//	                     written under, which the follower must replay with
//	GET /wal/checkpoint  the newest checkpoint blob; the X-Hotpaths-Checkpoint-Lsn
//	                     header carries the LSN its state covers up to
//	GET /wal/stream?from=LSN
//	                     a long-lived chunked response of raw WAL frames
//	                     (the on-disk length-prefixed CRC framing, decoded
//	                     with wal.DecodeRecord) starting at LSN `from`,
//	                     with KindHeartbeat control frames interleaved so
//	                     the follower tracks the primary's position and the
//	                     link's liveness even when no records flow
//
// When `from` has been truncated away by a checkpoint — or lies beyond
// the primary's log end, which happens when a primary lost its unsynced
// tail in a crash and the follower is ahead of the rewritten LSN space —
// the stream answers 410 Gone and the follower must bootstrap again:
// fetch the checkpoint, restore it, and resume from its LSN.
//
// The stream carries flushed bytes, not fsynced ones, so a follower can
// briefly hold records the primary loses in a power failure; the 410
// re-bootstrap is what heals that divergence. Replication lag is bounded
// by the primary's group-commit flush cadence plus the poll interval.
package replication

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"hotpaths/internal/wal"
)

// Endpoint paths, shared by the server handlers and the client.
const (
	StreamPath     = "/wal/stream"
	CheckpointPath = "/wal/checkpoint"
	MetaPath       = "/wal/meta"
)

// Header names carrying LSN positions alongside binary bodies.
const (
	HeaderFromLSN       = "X-Hotpaths-From-Lsn"
	HeaderCheckpointLSN = "X-Hotpaths-Checkpoint-Lsn"
)

// metaFile is the config descriptor the durability layer writes into the
// log directory (hotpaths' meta.json); served verbatim by ServeMeta.
const metaFile = "meta.json"

// Status is the primary's replication position: the LSN the next appended
// record will get, plus the epoch sequence and clock of the last processed
// epoch. Heartbeat frames carry it to followers.
type Status struct {
	NextLSN uint64
	Epoch   int64
	Clock   int64
}

// Server serves one WAL directory to followers. The handlers read the
// segment and checkpoint files directly — never through the writing Log —
// so they need no coordination with the ingest path beyond the frame CRCs.
type Server struct {
	// Dir is the primary's WAL directory.
	Dir string

	// Position reports the primary's current Status; heartbeats carry it.
	Position func() Status

	// Poll is how often a caught-up stream re-checks the log for new
	// records (default 25ms — the default group-commit interval).
	Poll time.Duration

	// Heartbeat is the cadence of heartbeat frames on an idle stream
	// (default 1s). Every batch of records is also followed by one, so an
	// active stream carries fresher positions than the cadence implies.
	Heartbeat time.Duration

	// Closing, when non-nil, ends every open stream when closed (the
	// daemon's shutdown hook), so streams do not pin a graceful shutdown.
	Closing <-chan struct{}
}

func (s *Server) poll() time.Duration {
	if s.Poll > 0 {
		return s.Poll
	}
	return 25 * time.Millisecond
}

func (s *Server) heartbeat() time.Duration {
	if s.Heartbeat > 0 {
		return s.Heartbeat
	}
	return time.Second
}

// ServeMeta serves the journal's meta.json: the Config the log was
// written under, which a follower must replay with.
func (s *Server) ServeMeta(w http.ResponseWriter, r *http.Request) {
	b, err := os.ReadFile(filepath.Join(s.Dir, metaFile))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			http.Error(w, `{"error":"no meta.json; not a durable log directory"}`, http.StatusNotFound)
			return
		}
		http.Error(w, `{"error":"read meta"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

// ServeCheckpoint serves the newest readable checkpoint blob, its covered
// LSN in the X-Hotpaths-Checkpoint-Lsn header. 404 when the directory has
// no checkpoint yet (the follower then replays from LSN 0).
func (s *Server) ServeCheckpoint(w http.ResponseWriter, r *http.Request) {
	lsns, err := wal.Checkpoints(s.Dir)
	if err != nil {
		http.Error(w, `{"error":"list checkpoints"}`, http.StatusInternalServerError)
		return
	}
	// Newest first; skip files deleted by retention between list and read.
	for i := len(lsns) - 1; i >= 0; i-- {
		payload, err := wal.ReadCheckpoint(s.Dir, lsns[i])
		if err != nil {
			continue
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set(HeaderCheckpointLSN, strconv.FormatUint(lsns[i], 10))
		w.Write(payload)
		return
	}
	http.Error(w, `{"error":"no checkpoint"}`, http.StatusNotFound)
}

// ServeStream serves GET /wal/stream?from=LSN: a long-lived chunked
// response of raw WAL frames starting at `from`, interleaved with
// heartbeat frames. It ends when the client disconnects, the server's
// Closing channel closes, or the position is truncated mid-stream (the
// client reconnects and receives the 410 then).
func (s *Server) ServeStream(w http.ResponseWriter, r *http.Request) {
	fromStr := r.URL.Query().Get("from")
	if fromStr == "" {
		fromStr = "0"
	}
	from, err := strconv.ParseUint(fromStr, 10, 64)
	if err != nil {
		http.Error(w, `{"error":"from must be a non-negative integer"}`, http.StatusBadRequest)
		return
	}
	if st := s.position(); from > st.NextLSN {
		// The follower is ahead of the log — it streamed records a crashed
		// primary lost. Resuming would silently hand it different records
		// under the same LSNs; force a checkpoint bootstrap instead.
		s.gone(w, fmt.Sprintf("requested LSN %d is beyond the log end %d; bootstrap from the checkpoint", from, st.NextLSN))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, `{"error":"streaming unsupported by connection"}`, http.StatusInternalServerError)
		return
	}

	tailer := wal.Follow(s.Dir, from)
	defer tailer.Close()
	// Probe before committing to a 200: a truncated position must surface
	// as a 410 status, which is impossible once the header is out.
	frames, _, n, err := tailer.ReadBatch(0)
	var te *wal.TruncatedError
	if errors.As(err, &te) {
		s.gone(w, te.Error())
		return
	}
	if err != nil {
		http.Error(w, `{"error":`+strconv.Quote(err.Error())+`}`, http.StatusInternalServerError)
		return
	}

	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set(HeaderFromLSN, strconv.FormatUint(from, 10))
	w.WriteHeader(http.StatusOK)
	mStreams.Add(1)
	defer mStreams.Add(-1)

	hb := time.NewTicker(s.heartbeat())
	defer hb.Stop()
	poll := time.NewTicker(s.poll())
	defer poll.Stop()

	// First write: a heartbeat so the client learns the primary position
	// immediately, then whatever the probe read; every later batch is
	// chased by a heartbeat too, so the follower's lag reading stays
	// current while records flow.
	if err := s.writeHeartbeat(w); err != nil {
		return
	}
	for {
		if n > 0 {
			if _, err := w.Write(frames); err != nil {
				return
			}
			mStreamBytes.Add(uint64(len(frames)))
			mStreamRecords.Add(uint64(n))
			if err := s.writeHeartbeat(w); err != nil {
				return
			}
			fl.Flush()
		} else {
			fl.Flush()
			select {
			case <-r.Context().Done():
				return
			case <-s.closing():
				return
			case <-hb.C:
				if err := s.writeHeartbeat(w); err != nil {
					return
				}
			case <-poll.C:
			}
		}
		frames, _, n, err = tailer.ReadBatch(0)
		if err != nil {
			// Truncated mid-stream (or worse): end the response; the client
			// reconnects and the fresh request reports the real status.
			return
		}
	}
}

func (s *Server) position() Status {
	if s.Position == nil {
		return Status{}
	}
	return s.Position()
}

func (s *Server) closing() <-chan struct{} {
	return s.Closing
}

func (s *Server) gone(w http.ResponseWriter, msg string) {
	lsns, _ := wal.Checkpoints(s.Dir)
	if len(lsns) > 0 {
		w.Header().Set(HeaderCheckpointLSN, strconv.FormatUint(lsns[len(lsns)-1], 10))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusGone)
	fmt.Fprintf(w, `{"error":%s}`+"\n", strconv.Quote(msg))
}

func (s *Server) writeHeartbeat(w io.Writer) error {
	st := s.position()
	frame, err := wal.AppendRecord(nil, wal.Record{
		Kind:    wal.KindHeartbeat,
		NextLSN: st.NextLSN,
		Epoch:   st.Epoch,
		T:       st.Clock,
	})
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	if err == nil {
		mStreamBytes.Add(uint64(len(frame)))
	}
	return err
}

// ErrSnapshotNeeded is returned by Client.Stream when the primary cannot
// resume from the requested LSN (truncated away, or beyond the log end
// after a primary crash): the follower must re-bootstrap from the
// checkpoint before streaming again.
var ErrSnapshotNeeded = errors.New("replication: primary cannot resume from this LSN; bootstrap from the checkpoint")

// ErrNoCheckpoint is returned by Client.Checkpoint when the primary has
// not written one yet; the follower then replays from LSN 0.
var ErrNoCheckpoint = errors.New("replication: primary has no checkpoint yet")

// Client fetches a primary's replication feed. Its requests go through
// http.DefaultClient, which has no overall timeout: streams are
// long-lived, and each caller bounds its own requests by context.
type Client struct {
	// Base is the primary's base URL, e.g. "http://primary:8080".
	Base string
}

func (c *Client) get(ctx context.Context, path string) (*http.Response, error) {
	u := strings.TrimSuffix(c.Base, "/") + path
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	return http.DefaultClient.Do(req)
}

// bodyError summarises a non-OK response.
func bodyError(resp *http.Response) error {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	return fmt.Errorf("replication: %s %s: %s: %s", resp.Request.Method, resp.Request.URL.Path, resp.Status, strings.TrimSpace(string(b)))
}

// Meta fetches the primary's journal configuration (the meta.json bytes).
func (c *Client) Meta(ctx context.Context) ([]byte, error) {
	resp, err := c.get(ctx, MetaPath)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, bodyError(resp)
	}
	return io.ReadAll(io.LimitReader(resp.Body, 1<<20))
}

// Checkpoint fetches the primary's newest checkpoint blob and the LSN its
// state covers up to. ErrNoCheckpoint when none exists yet.
func (c *Client) Checkpoint(ctx context.Context) (lsn uint64, payload []byte, err error) {
	resp, err := c.get(ctx, CheckpointPath)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return 0, nil, ErrNoCheckpoint
	}
	if resp.StatusCode != http.StatusOK {
		return 0, nil, bodyError(resp)
	}
	lsn, err = strconv.ParseUint(resp.Header.Get(HeaderCheckpointLSN), 10, 64)
	if err != nil {
		return 0, nil, fmt.Errorf("replication: checkpoint response has bad %s header: %w", HeaderCheckpointLSN, err)
	}
	payload, err = io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, fmt.Errorf("replication: read checkpoint body: %w", err)
	}
	return lsn, payload, nil
}

// Stream connects to the primary's WAL stream at LSN from and delivers
// records until the connection ends: fn receives every data record with
// its LSN (strictly sequential from `from`), hb every heartbeat (hb may
// be nil). It returns ErrSnapshotNeeded when the primary cannot resume
// from `from`, fn's error if fn rejects a record, and the transport error
// otherwise (io.EOF-like errors mean the primary went away or shut down;
// the caller reconnects with its new position).
func (c *Client) Stream(ctx context.Context, from uint64, fn func(lsn uint64, rec wal.Record) error, hb func(Status)) error {
	resp, err := c.get(ctx, StreamPath+"?from="+strconv.FormatUint(from, 10))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusGone || resp.StatusCode == http.StatusConflict {
		return fmt.Errorf("%w (primary said: %v)", ErrSnapshotNeeded, bodyError(resp))
	}
	if resp.StatusCode != http.StatusOK {
		return bodyError(resp)
	}
	if got := resp.Header.Get(HeaderFromLSN); got != strconv.FormatUint(from, 10) {
		return fmt.Errorf("replication: stream started at LSN %s, requested %d", got, from)
	}

	// The frame loop issues two small reads per record; buffering keeps
	// those out of the chunked-transfer parser (measurably faster on the
	// follower's hot replay path).
	body := bufio.NewReaderSize(resp.Body, 64<<10)
	lsn := from
	hdr := make([]byte, 8)
	frame := make([]byte, 0, wal.MaxFrame)
	for {
		if _, err := io.ReadFull(body, hdr); err != nil {
			return fmt.Errorf("replication: stream ended: %w", err)
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		if n == 0 || n > wal.MaxPayload {
			return fmt.Errorf("replication: stream carried implausible payload length %d", n)
		}
		frame = append(frame[:0], hdr...)
		frame = frame[:8+int(n)]
		if _, err := io.ReadFull(body, frame[8:]); err != nil {
			return fmt.Errorf("replication: stream ended mid-frame: %w", err)
		}
		rec, _, err := wal.DecodeRecord(frame)
		if err != nil {
			return fmt.Errorf("replication: corrupt stream frame at LSN %d: %w", lsn, err)
		}
		if rec.Kind == wal.KindHeartbeat {
			if hb != nil {
				hb(Status{NextLSN: rec.NextLSN, Epoch: rec.Epoch, Clock: rec.T})
			}
			continue
		}
		if err := fn(lsn, rec); err != nil {
			return err
		}
		lsn++
	}
}

// ParseBase validates a primary base URL for early, friendly errors.
func ParseBase(base string) error {
	u, err := url.Parse(base)
	if err != nil {
		return fmt.Errorf("replication: primary URL %q: %w", base, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return fmt.Errorf("replication: primary URL %q must be http or https", base)
	}
	if u.Host == "" {
		return fmt.Errorf("replication: primary URL %q has no host", base)
	}
	return nil
}
