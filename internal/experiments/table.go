package experiments

import (
	"fmt"
	"strings"
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
