package stats

import (
	"strings"
	"testing"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("empty mean")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v", got)
	}
}

func TestMinMax(t *testing.T) {
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Error("empty min/max")
	}
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Errorf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
}

func TestTable(t *testing.T) {
	var tb Table
	tb.AddRow("N", "index", "score")
	tb.AddRowf(10000, 4.2, "ok")
	tb.AddRow("100000", "10.9", "better")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Errorf("missing underline: %q", lines[1])
	}
	// Columns aligned: "index" starts at the same offset in all rows.
	idx := strings.Index(lines[0], "index")
	if !strings.HasPrefix(lines[2][idx:], "4.2") {
		t.Errorf("misaligned row: %q", lines[2])
	}
	var empty Table
	if empty.String() != "" {
		t.Error("empty table output")
	}
}
