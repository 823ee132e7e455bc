package httpapi

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"

	"hotpaths"
)

// Every JSON path answer — /topk, /paths and each /watch delta — is
// written here, without reflection and without building the body: the
// text is appended into one pooled chunk, and the chunk goes to the
// writer whenever it could not take another path, so a read holds the
// same memory whatever the size of its answer. The bytes are exactly
// what encoding/json makes of hotpaths.PathsJSON and DeltaJSON, which stay
// the client-side types; encode_test.go holds the two to each other.
// Floats are written by appendFloat (ftoa.go), not strconv.

// chunkSize is the size of the buffer a JSON answer is written through.
const chunkSize = 32 << 10

// maxPathText bounds the text of one path: 83 bytes of keys and
// punctuation, three integers of at most 20 bytes and six floats of at
// most 24, and the comma before it — 288 bytes — plus the 48 bytes of
// spare room appendFloat writes through, rounded up; so a chunk is never
// grown.
const maxPathText = 512

// chunks holds the buffers JSON answers are written through.
var chunks = sync.Pool{New: func() any { b := make([]byte, 0, chunkSize); return &b }}

// chunkWriter appends JSON text into a pooled chunk and writes the chunk
// out when it is nearly full. After the first failed write it appends
// nothing more and err holds the failure.
type chunkWriter struct {
	w   io.Writer
	buf []byte
	p   *[]byte
	err error
}

func newChunkWriter(w io.Writer) chunkWriter {
	p := chunks.Get().(*[]byte)
	return chunkWriter{w: w, buf: (*p)[:0], p: p}
}

// spill writes the chunk out when it might not hold another path.
func (c *chunkWriter) spill() {
	if len(c.buf) > chunkSize-maxPathText {
		c.flush()
	}
}

// flush writes out what the chunk holds.
func (c *chunkWriter) flush() {
	if c.err == nil && len(c.buf) > 0 {
		_, c.err = c.w.Write(c.buf)
	}
	c.buf = c.buf[:0]
}

// close flushes the chunk, returns it to the pool and reports the first
// write error.
func (c *chunkWriter) close() error {
	c.flush()
	*c.p = c.buf
	chunks.Put(c.p)
	return c.err
}

// paths appends paths as a JSON array, ranked 1, 2, … in the order given
// or, with unranked, all rank 0.
func (c *chunkWriter) paths(paths []hotpaths.HotPath, unranked bool) {
	c.buf = append(c.buf, '[')
	for i, hp := range paths {
		if c.err != nil {
			return
		}
		if i > 0 {
			c.buf = append(c.buf, ',')
		}
		rank := i + 1
		if unranked {
			rank = 0
		}
		c.buf = appendPath(c.buf, hp, rank)
		c.spill()
	}
	c.buf = append(c.buf, ']')
}

// checkFinite returns an error naming the first of paths that
// encoding/json would refuse: one whose coordinates, length or score is
// NaN or infinite.
func checkFinite(paths []hotpaths.HotPath) error {
	for i, hp := range paths {
		length := hp.Length()
		for _, v := range [6]float64{hp.Start.X, hp.Start.Y, hp.End.X, hp.End.Y, length, float64(hp.Hotness) * length} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("path %d (id %d) holds %v", i, hp.ID, v)
			}
		}
	}
	return nil
}

// appendPath appends hp's PathJSON text under rank.
func appendPath(dst []byte, hp hotpaths.HotPath, rank int) []byte {
	length := hp.Length()
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendUint(dst, hp.ID, 10)
	dst = append(dst, `,"rank":`...)
	dst = strconv.AppendInt(dst, int64(rank), 10)
	dst = append(dst, `,"hotness":`...)
	dst = strconv.AppendInt(dst, int64(hp.Hotness), 10)
	dst = append(dst, `,"length":`...)
	dst = appendFloat(dst, length)
	dst = append(dst, `,"score":`...)
	dst = appendFloat(dst, float64(hp.Hotness)*length) // HotPath.Score
	dst = append(dst, `,"start":{"x":`...)
	dst = appendFloat(dst, hp.Start.X)
	dst = append(dst, `,"y":`...)
	dst = appendFloat(dst, hp.Start.Y)
	dst = append(dst, `},"end":{"x":`...)
	dst = appendFloat(dst, hp.End.X)
	dst = append(dst, `,"y":`...)
	dst = appendFloat(dst, hp.End.Y)
	return append(dst, `}}`...)
}
