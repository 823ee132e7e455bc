// Package trace serialises measurement streams to a line-oriented text
// format and reads them back, decoupling workload generation from
// discovery runs. A recorded trace makes experiments exactly reproducible across
// machines and lets external datasets be fed into the system.
//
// Format, one measurement per line, timestamps non-decreasing and at
// least 1 (the first timestamp a deployment's clock can tick to), at
// most one line per object and timestamp:
//
//	<timestamp> <objectID> <x> <y>
//
// Lines starting with '#' and blank lines are ignored.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"hotpaths/internal/geom"
	"hotpaths/internal/trajectory"
	"hotpaths/internal/workload"
)

// Record is one replayed measurement.
type Record struct {
	ObjectID int
	TP       trajectory.TimePoint
}

// Writer streams records to an output.
type Writer struct {
	bw    *bufio.Writer
	lastT trajectory.Time
	n     int
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriter(w)}
}

// Write appends one record. Timestamps must be non-decreasing across the
// whole trace (multiple objects may share a timestamp).
func (w *Writer) Write(r Record) error {
	if r.TP.T < w.lastT {
		return fmt.Errorf("trace: timestamp %d after %d; traces must be time-ordered", r.TP.T, w.lastT)
	}
	w.lastT = r.TP.T
	w.n++
	_, err := fmt.Fprintf(w.bw, "%d %d %g %g\n", r.TP.T, r.ObjectID, r.TP.P.X, r.TP.P.Y)
	return err
}

// WriteMeasurement adapts a workload measurement.
func (w *Writer) WriteMeasurement(m workload.Measurement) error {
	return w.Write(Record{ObjectID: m.ObjectID, TP: m.TP})
}

// Count returns the number of records written.
func (w *Writer) Count() int { return w.n }

// Flush flushes buffered output; call before closing the underlying file.
func (w *Writer) Flush() error { return w.bw.Flush() }

// Reader streams records from an input.
type Reader struct {
	sc    *bufio.Scanner
	line  int
	lastT trajectory.Time
	seen  map[int]bool // objects measured at lastT
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	return &Reader{sc: sc}
}

// Next returns the next record; io.EOF signals a clean end.
func (r *Reader) Next() (Record, error) {
	for r.sc.Scan() {
		r.line++
		line := strings.TrimSpace(r.sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var rec Record
		var t int64
		var x, y float64
		if _, err := fmt.Sscanf(line, "%d %d %g %g", &t, &rec.ObjectID, &x, &y); err != nil {
			return Record{}, fmt.Errorf("trace: line %d: %w", r.line, err)
		}
		if t < 1 {
			return Record{}, fmt.Errorf("trace: line %d: timestamp %d; timestamps start at 1", r.line, t)
		}
		rec.TP = trajectory.TP(geom.Pt(x, y), trajectory.Time(t))
		if rec.TP.T < r.lastT {
			return Record{}, fmt.Errorf("trace: line %d: timestamp %d after %d", r.line, rec.TP.T, r.lastT)
		}
		// A second measurement of one object at one timestamp is refused
		// here: an Engine would drop it and replay on where a System stops.
		if rec.TP.T > r.lastT {
			clear(r.seen)
		} else if r.seen[rec.ObjectID] {
			return Record{}, fmt.Errorf("trace: line %d: object %d measured twice at timestamp %d", r.line, rec.ObjectID, t)
		}
		if r.seen == nil {
			r.seen = make(map[int]bool)
		}
		r.seen[rec.ObjectID] = true
		r.lastT = rec.TP.T
		return rec, nil
	}
	if err := r.sc.Err(); err != nil {
		return Record{}, err
	}
	return Record{}, io.EOF
}

// ReadAll consumes the whole trace.
func ReadAll(rd io.Reader) ([]Record, error) {
	r := NewReader(rd)
	var out []Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}
