package httpapi

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"hotpaths"
)

// DeltaJSON is the wire form of one subscription delta, carried as the
// data of an SSE "delta" event on GET /watch. Entered and changed use
// the PathJSON shape of /topk except that rank is 0: a delta only sees a
// slice of the result, so a real rank cannot be assigned, and a
// positional one would read as the /topk meaning and mislead clients.
type DeltaJSON struct {
	Clock   int64               `json:"clock"`
	Epoch   int64               `json:"epoch"`
	Reset   bool                `json:"reset,omitempty"`
	Missed  int                 `json:"missed,omitempty"`
	Entered []hotpaths.PathJSON `json:"entered"`
	Changed []hotpaths.PathJSON `json:"changed"`
	Left    []uint64            `json:"left"`
}

// HotPaths converts wire paths back to the library type (nil when there
// are none).
func HotPaths(ps []hotpaths.PathJSON) []hotpaths.HotPath {
	if len(ps) == 0 {
		return nil
	}
	out := make([]hotpaths.HotPath, len(ps))
	for i, p := range ps {
		out[i] = p.HotPath()
	}
	return out
}

// Delta converts the wire form back to the library type. The wire form
// does not carry the sort order; the result says ByHotness, which is what
// a stream opened without sort= is in.
func (dj DeltaJSON) Delta() hotpaths.Delta {
	d := hotpaths.Delta{
		Clock:   dj.Clock,
		Epoch:   dj.Epoch,
		Reset:   dj.Reset,
		Missed:  dj.Missed,
		Entered: HotPaths(dj.Entered),
		Changed: HotPaths(dj.Changed),
		Order:   hotpaths.ByHotness,
	}
	if len(dj.Left) > 0 {
		d.Left = dj.Left
	}
	return d
}

// StartSSE commits the response to a Server-Sent Events stream: headers,
// 200, and a flush so the client sees the stream open before the first
// event.
func StartSSE(w http.ResponseWriter, fl http.Flusher) {
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
}

// WriteDelta emits one delta as an SSE event: the epoch as the event id
// (a resume cursor), event type "delta", the DeltaJSON as data — the
// encoding/json text of it, streamed in chunks (see encode.go). All three
// slices encode as [] rather than null when empty. A delta encoding/json
// would refuse is an error before anything is written.
func WriteDelta(w io.Writer, d hotpaths.Delta) error {
	if err := checkFinite(d.Entered); err != nil {
		return fmt.Errorf("encode delta: entered %w", err)
	}
	if err := checkFinite(d.Changed); err != nil {
		return fmt.Errorf("encode delta: changed %w", err)
	}
	c := newChunkWriter(w)
	c.buf = append(c.buf, "id: "...)
	c.buf = strconv.AppendInt(c.buf, d.Epoch, 10)
	c.buf = append(c.buf, "\nevent: delta\ndata: {\"clock\":"...)
	c.buf = strconv.AppendInt(c.buf, d.Clock, 10)
	c.buf = append(c.buf, `,"epoch":`...)
	c.buf = strconv.AppendInt(c.buf, d.Epoch, 10)
	if d.Reset {
		c.buf = append(c.buf, `,"reset":true`...)
	}
	if d.Missed != 0 {
		c.buf = append(c.buf, `,"missed":`...)
		c.buf = strconv.AppendInt(c.buf, int64(d.Missed), 10)
	}
	c.buf = append(c.buf, `,"entered":`...)
	c.paths(d.Entered, true)
	c.buf = append(c.buf, `,"changed":`...)
	c.paths(d.Changed, true)
	c.buf = append(c.buf, `,"left":[`...)
	for i, id := range d.Left {
		if i > 0 {
			c.buf = append(c.buf, ',')
		}
		c.buf = strconv.AppendUint(c.buf, id, 10)
		c.spill()
	}
	c.buf = append(c.buf, "]}\n\n"...)
	return c.close()
}

// DeltaReader parses the stream WriteDelta produces.
type DeltaReader struct{ rd *bufio.Reader }

// NewDeltaReader reads delta events from an open GET /watch body.
func NewDeltaReader(r io.Reader) *DeltaReader {
	return &DeltaReader{rd: bufio.NewReaderSize(r, 64<<10)}
}

// Next returns the next delta event, skipping events of other types. The
// error is the reader's own (io.EOF at a clean end) or a decode failure.
func (dr *DeltaReader) Next() (hotpaths.Delta, error) {
	var event, data string
	for {
		line, err := dr.rd.ReadString('\n')
		if err != nil {
			return hotpaths.Delta{}, err
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case line == "":
			if event == "delta" && data != "" {
				var dj DeltaJSON
				if err := json.Unmarshal([]byte(data), &dj); err != nil {
					return hotpaths.Delta{}, fmt.Errorf("decode delta: %w", err)
				}
				return dj.Delta(), nil
			}
			event, data = "", ""
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		}
	}
}
