// Package stats provides the small numeric summaries used by the
// experiment harness: mean, minimum, maximum and a fixed width table
// formatter for figure/table rows.
package stats

import (
	"fmt"
	"io"
	"strings"
)

// Mean returns the arithmetic mean; 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Min returns the minimum; 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum; 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

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
