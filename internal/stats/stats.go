// Package stats provides the fixed width table formatter the experiment
// harness prints figure/table rows with.
package stats

import (
	"fmt"
	"io"
	"strings"
)

// Table renders rows of cells as a fixed-width text table. The first row is
// treated as the header and underlined.
type Table struct {
	rows [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

// AddRowf appends a row built from format/args pairs; each argument becomes
// one cell formatted with %v.
func (t *Table) AddRowf(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprintf("%v", c)
	}
	t.rows = append(t.rows, row)
}

// WriteTo renders the table.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	if len(t.rows) == 0 {
		return 0, nil
	}
	widths := make([]int, 0)
	for _, row := range t.rows {
		for i, c := range row {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var total int64
	writeRow := func(row []string) error {
		var b strings.Builder
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		n, err := fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		total += int64(n)
		return err
	}
	for i, row := range t.rows {
		if err := writeRow(row); err != nil {
			return total, err
		}
		if i == 0 {
			under := make([]string, len(row))
			for j := range row {
				under[j] = strings.Repeat("-", widths[j])
			}
			if err := writeRow(under); err != nil {
				return total, err
			}
		}
	}
	return total, nil
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.WriteTo(&b)
	return b.String()
}
