package gateway

import (
	"encoding/json"
	"errors"
	"io"
	"sync"
	"sync/atomic"

	"hotpaths"
	"hotpaths/internal/httpapi"
	"hotpaths/internal/partition"
)

// shares is the gateway's httpapi.ObserveSink: one /observe body per
// partition, built by appending each observation's JSON text — the
// client's own bytes, unparsed beyond the object id that picks the
// owner — to its owner's body, in arrival order. Only an observation
// that encoding/json had to decode, which keeps no text, is re-encoded.
// Each body is a pooled share; Reset hands them back.
type shares struct {
	bodies []*share // by partition; nil where no observation went
	size   int      // capacity a body starts with; 0 grows it from empty
}

const sharesOpen, sharesClose = `{"observations":[`, `]}`

// newShares splits a body of length bytes (-1 when unknown) over parts
// partitions. A known length sizes each share once, at its even part plus
// a quarter for the hash's unevenness, instead of growing it observation
// by observation.
func newShares(parts int, length int64) shares {
	s := shares{bodies: make([]*share, parts)}
	if length > 0 && length <= httpapi.MaxRequestBytes {
		even := int(length) / parts
		s.size = even + even/4
	}
	return s
}

// Reset drops every body started so far. A body still being written to
// its partition goes back to the pool only once that write is done.
func (s *shares) Reset() {
	for i, b := range s.bodies {
		if b != nil {
			b.release()
			s.bodies[i] = nil
		}
	}
}

func (s *shares) Add(o hotpaths.ObservationJSON, raw []byte) {
	i := partition.Index(o.Object, len(s.bodies))
	b := s.bodies[i]
	if b == nil {
		b = newShare(s.size)
		b.buf = append(b.buf, sharesOpen...)
		s.bodies[i] = b
	} else {
		b.buf = append(b.buf, ',')
	}
	if raw == nil {
		raw, _ = json.Marshal(o) // finite numbers, decoded from JSON a moment ago: cannot fail
	}
	b.buf = append(b.buf, raw...)
}

// close ends every started body and returns them.
func (s *shares) close() []*share {
	for _, b := range s.bodies {
		if b != nil {
			b.buf = append(b.buf, sharesClose...)
		}
	}
	return s.bodies
}

// A share is one request body the gateway sends its partitions. Its
// bytes are read by net/http after the request that built them may have
// been answered — the transport may still be writing a body out when the
// partition's answer has already come back — so a share is counted:
// whoever builds it holds one reference, each leg's request body another
// (see legBody), and the last release returns it to the pool.
type share struct {
	buf  []byte
	refs atomic.Int32
}

// sharePool holds idle shares with their buffers; the pool drops them,
// an outsized body's among them, at the next GC.
var sharePool sync.Pool

// newShare takes an empty share, with room for size bytes, holding one
// reference for its caller.
func newShare(size int) *share {
	s, _ := sharePool.Get().(*share)
	if s == nil {
		s = new(share)
	}
	if cap(s.buf) < size {
		s.buf = make([]byte, 0, size)
	}
	s.buf = s.buf[:0]
	s.refs.Store(1)
	return s
}

// release drops one reference to s.
func (s *share) release() {
	if s.refs.Add(-1) == 0 {
		sharePool.Put(s)
	}
}

// open returns a new request body reading s, holding a reference until
// it is closed.
func (s *share) open() *legBody {
	s.refs.Add(1)
	return &legBody{share: s}
}

// errBodyClosed is what a leg's body reads after it was closed.
var errBodyClosed = errors.New("gateway: read of a closed request body")

// legBody is a share read as one leg's request body. net/http closes it
// once it has finished writing the request, or given up on it — on a
// failure, perhaps from another goroutine than the one still reading it.
// Read and Close exclude each other, so once Close has returned nothing
// reads the share through this body again.
type legBody struct {
	mu    sync.Mutex
	share *share // nil once closed
	off   int
}

func (b *legBody) Read(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.share == nil {
		return 0, errBodyClosed
	}
	if b.off == len(b.share.buf) {
		return 0, io.EOF
	}
	n := copy(p, b.share.buf[b.off:])
	b.off += n
	return n, nil
}

func (b *legBody) Close() error {
	b.mu.Lock()
	s := b.share
	b.share = nil
	b.mu.Unlock()
	if s != nil {
		s.release()
	}
	return nil
}
