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
}
