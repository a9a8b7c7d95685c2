// Package metrics provides the small measurement toolkit the
// experiment harness uses: duration histograms summarized by their mean
// and fixed-width text tables matching the repository's
// experiment output format.
package metrics

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Histogram accumulates duration samples; the experiment tables read
// their mean. The zero value is ready to use. Not safe for concurrent
// use; callers aggregate per goroutine.
type Histogram struct {
	sum time.Duration
	n   int
}

// Record adds a sample.
func (h *Histogram) Record(d time.Duration) {
	h.sum += d
	h.n++
}

// Merge folds another histogram's samples into h — the aggregation
// step when workers accumulate per-shard histograms.
func (h *Histogram) Merge(o *Histogram) {
	h.sum += o.sum
	h.n += o.n
}

// Mean returns the arithmetic mean (zero when empty).
func (h *Histogram) Mean() time.Duration {
	if h.n == 0 {
		return 0
	}
	return h.sum / time.Duration(h.n)
}

// Round trims a duration to a readable precision (10µs granularity
// under a second, 1ms above).
func Round(d time.Duration) time.Duration {
	if d < time.Second {
		return d.Round(10 * time.Microsecond)
	}
	return d.Round(time.Millisecond)
}

// Table renders fixed-width experiment tables.
type Table struct {
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(headers ...string) *Table {
	return &Table{headers: headers}
}

// AddRow appends a row; cells are stringified with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case time.Duration:
			row[i] = Round(v).String()
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Fprint writes the table with aligned columns.
func (t *Table) Fprint(w io.Writer) error {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		return b.String()
	}
	if _, err := fmt.Fprintln(w, line(t.headers)); err != nil {
		return err
	}
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total-2)); err != nil {
		return err
	}
	for _, row := range t.rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	return nil
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	_ = t.Fprint(&b) // strings.Builder never errors
	return b.String()
}
