package experiments

import (
	"fmt"
	"slices"
	"strings"
	"time"
)

// Table is an experiment's result as cmd/experiments prints it: an aligned
// plain-text table whose cells keep the values the harness measured, so a
// shape test reads the same cells the table prints.
type Table struct {
	title   string
	headers []string
	rows    [][]any
	notes   []string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row of cells, one per header.
func (t *Table) AddRow(cells ...any) {
	t.rows = append(t.rows, cells)
}

// AddNote appends a footnote line rendered under the table.
func (t *Table) AddNote(format string, args ...interface{}) {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

// The cells printed in a format other than the default, each keeping the
// value a shape test reads.
type (
	// mbPerSec is a drain rate in MB/s, printed as %.2f.
	mbPerSec float64
	// speedup is a ratio of two rates, printed as %.2fx.
	speedup float64
	// pair is two counts printed as "a / b".
	pair [2]int
)

func (v mbPerSec) String() string { return fmt.Sprintf("%.2f", float64(v)) }
func (v speedup) String() string  { return fmt.Sprintf("%.2fx", float64(v)) }
func (p pair) String() string     { return fmt.Sprintf("%d / %d", p[0], p[1]) }

// mbps converts a byte count over a span to MB/s (0 for an empty span).
func mbps(bytes int64, span time.Duration) mbPerSec {
	if span <= 0 {
		return 0
	}
	return mbPerSec(float64(bytes) / 1e6 / span.Seconds())
}

// speedupOver is rate over base (0 when base is 0).
func speedupOver(rate, base mbPerSec) speedup {
	if base <= 0 {
		return 0
	}
	return speedup(rate / base)
}

// fillSpeedups sets each row's "speedup" cell to its "MB/s" cell over the
// 1-row's: the row whose first cell is 1, or the first row if none is.
func (t *Table) fillSpeedups() {
	rate, sp := slices.Index(t.headers, "MB/s"), slices.Index(t.headers, "speedup")
	base := t.rows[0]
	if i := slices.IndexFunc(t.rows, func(r []any) bool { return r[0] == 1 }); i >= 0 {
		base = t.rows[i]
	}
	for _, r := range t.rows {
		r[sp] = speedupOver(r[rate].(mbPerSec), base[rate].(mbPerSec))
	}
}

// cellString formats one cell: a float64 as %.3f, anything else with %v.
func cellString(c any) string {
	if v, ok := c.(float64); ok {
		return fmt.Sprintf("%.3f", v)
	}
	return fmt.Sprintf("%v", c)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	rows := make([][]string, len(t.rows))
	for r, cells := range t.rows {
		rows[r] = make([]string, len(cells))
		for i, c := range cells {
			rows[r][i] = cellString(c)
			if i < len(widths) && len(rows[r][i]) > widths[i] {
				widths[i] = len(rows[r][i])
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range rows {
		writeRow(row)
	}
	for _, n := range t.notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}
