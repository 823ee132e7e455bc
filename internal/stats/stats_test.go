package stats

import (
	"strings"
	"testing"
)

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
