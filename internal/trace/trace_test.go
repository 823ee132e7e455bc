package trace

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"hotpaths/internal/geom"
	"hotpaths/internal/trajectory"
	"hotpaths/internal/workload"
)

func rec(t trajectory.Time, id int, x, y float64) Record {
	return Record{ObjectID: id, TP: trajectory.TP(geom.Pt(x, y), t)}
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	in := []Record{
		rec(1, 0, 1.5, 2.5),
		rec(1, 1, -3, 4),
		rec(2, 0, 10, 20.25),
		rec(5, 2, 0, 0),
	}
	for _, r := range in {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 4 {
		t.Errorf("Count = %d", w.Count())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	out, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d records", len(out))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("record %d: %+v vs %+v", i, out[i], in[i])
		}
	}
}

func TestWriterRejectsTimeTravel(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Write(rec(5, 0, 0, 0))
	if err := w.Write(rec(4, 0, 0, 0)); err == nil {
		t.Error("decreasing timestamp must error")
	}
	// Equal timestamps are fine (different objects share ticks).
	if err := w.Write(rec(5, 1, 0, 0)); err != nil {
		t.Errorf("equal timestamp rejected: %v", err)
	}
}

func TestWriteMeasurement(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	m := workload.Measurement{ObjectID: 7, TP: trajectory.TP(geom.Pt(1, 2), 3)}
	if err := w.WriteMeasurement(m); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	out, _ := ReadAll(&buf)
	if len(out) != 1 || out[0].ObjectID != 7 {
		t.Errorf("out = %+v", out)
	}
}

func TestReaderErrors(t *testing.T) {
	bad := []string{
		"1 x 2 3",
		"abc",
		"2 0 1 1\n1 0 2 2", // time travel
	}
	for _, s := range bad {
		if _, err := ReadAll(strings.NewReader(s)); err == nil {
			t.Errorf("input %q must error", s)
		}
	}
	const want = "trace: line 2: timestamp 0; timestamps start at 1"
	if _, err := ReadAll(strings.NewReader("# header\n0 0 1 1\n")); fmt.Sprint(err) != want {
		t.Errorf("timestamp 0: got %v, want %q", err, want)
	}
	const twice = "trace: line 4: object 7 measured twice at timestamp 2"
	if _, err := ReadAll(strings.NewReader("1 7 0 0\n2 7 1 1\n2 8 1 1\n2 7 2 2\n3 7 3 3\n")); fmt.Sprint(err) != twice {
		t.Errorf("a repeated (timestamp, object): got %v, want %q", err, twice)
	}
	// Comments and blanks are skipped; an object seen at an earlier
	// timestamp may be seen again.
	ok := "# header\n\n1 0 2 3\n1 1 2 3\n2 0 4 5\n"
	recs, err := ReadAll(strings.NewReader(ok))
	if err != nil || len(recs) != 3 {
		t.Errorf("valid input: %v %v", recs, err)
	}
}

func TestNextEOF(t *testing.T) {
	r := NewReader(strings.NewReader(""))
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("want EOF, got %v", err)
	}
}
