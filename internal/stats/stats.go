// Package stats provides the counters and summary helpers used by the
// simulator and by the experiment harness that regenerates the paper's
// figures (geometric-mean speedups, per-benchmark tables, log-scale
// event counts).
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Speedup returns the relative speedup of ipc over base as the paper
// reports it: 1.05 means "+5%". A zero base yields 1 to keep downstream
// geometric means well-defined.
func Speedup(ipc, base float64) float64 {
	if base == 0 {
		return 1
	}
	return ipc / base
}

// GeoMean returns the geometric mean of xs. Non-positive entries are
// clamped to a tiny positive value so a single degenerate benchmark cannot
// poison the mean; the paper's gmean speedups are always near 1.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			x = 1e-9
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Table accumulates rows of named values and renders a fixed-width text
// table, which is how cmd/paperfigs prints each figure's data series.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; cells beyond len(Columns) are dropped, missing
// cells are blank.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Columns))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	for i, c := range t.Columns {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%-*s", widths[i], c)
	}
	b.WriteByte('\n')
	for i := range t.Columns {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", widths[i]))
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		for i, c := range r {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Pct formats a speedup ratio (1.052 -> "+5.2%").
func Pct(speedup float64) string {
	return fmt.Sprintf("%+.1f%%", (speedup-1)*100)
}
