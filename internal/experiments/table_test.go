package experiments

import (
	"slices"
	"testing"
	"time"
)

// col returns the cells of tb's column header, each asserted to be a T; it
// fails the test on a missing header or a cell of another type.
func col[T any](t *testing.T, tb *Table, header string) []T {
	t.Helper()
	i := slices.Index(tb.headers, header)
	if i < 0 {
		t.Fatalf("%s: no column %q in %q", tb.title, header, tb.headers)
	}
	cells := make([]T, len(tb.rows))
	for r, row := range tb.rows {
		v, ok := row[i].(T)
		if !ok {
			t.Fatalf("%s: column %q row %d holds %T, want %T", tb.title, header, r, row[i], v)
		}
		cells[r] = v
	}
	return cells
}

// cell returns the cell of tb's row (the row whose first cell is row) in
// column header, asserted to be a T; it fails the test on a missing row or
// header or a cell of another type.
func cell[T any](t *testing.T, tb *Table, row, header string) T {
	t.Helper()
	i := slices.Index(tb.headers, header)
	if i < 0 {
		t.Fatalf("%s: no column %q in %q", tb.title, header, tb.headers)
	}
	r := slices.IndexFunc(tb.rows, func(cells []any) bool { return cells[0] == any(row) })
	if r < 0 {
		t.Fatalf("%s: no row %q", tb.title, row)
	}
	v, ok := tb.rows[r][i].(T)
	if !ok {
		t.Fatalf("%s: row %q column %q holds %T, want %T", tb.title, row, header, tb.rows[r][i], v)
	}
	return v
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("E5 slowdown", "rtt", "mode", "p50")
	tb.AddRow(time.Millisecond, ModeADC, 0.5)
	tb.AddRow(time.Millisecond, ModeSDC, 2.25)
	tb.AddNote("ADC ~ baseline")
	want := "== E5 slowdown ==\n" +
		"rtt  mode    p50  \n" +
		"---  ------  -----\n" +
		"1ms  ADC+CG  0.500\n" +
		"1ms  SDC     2.250\n" +
		"note: ADC ~ baseline\n"
	if got := tb.String(); got != want {
		t.Fatalf("table output:\n%s\nwant:\n%s", got, want)
	}
	if p50 := col[float64](t, tb, "p50"); !slices.Equal(p50, []float64{0.5, 2.25}) {
		t.Errorf("p50 cells = %v, want the measured [0.5 2.25]", p50)
	}
	if modes := col[Mode](t, tb, "mode"); !slices.Equal(modes, []Mode{ModeADC, ModeSDC}) {
		t.Errorf("mode cells = %v", modes)
	}

	// The named cells print their own format; speedups normalize against
	// the 1-row wherever it sits.
	tb = NewTable("", "shards", "MB/s", "speedup", "cut / lost")
	tb.AddRow(2, mbPerSec(7.449), speedup(0), pair{143, 1357})
	tb.AddRow(1, mbPerSec(3.7249), speedup(0), pair{0, 1500})
	tb.fillSpeedups()
	want = "shards  MB/s  speedup  cut / lost\n" +
		"------  ----  -------  ----------\n" +
		"2       7.45  2.00x    143 / 1357\n" +
		"1       3.72  1.00x    0 / 1500  \n"
	if got := tb.String(); got != want {
		t.Fatalf("table output:\n%s\nwant:\n%s", got, want)
	}
	if sp := col[speedup](t, tb, "speedup"); sp[1] != 1 {
		t.Errorf("1-row speedup = %v, want 1", sp[1])
	}
}
