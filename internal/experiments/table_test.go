package experiments

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("E5 slowdown", "rtt", "mode", "p50")
	tb.AddRow("1ms", "ADC", 0.5)
	tb.AddRow("1ms", "SDC", 2.25)
	tb.AddNote("ADC ~ baseline")
	out := tb.String()
	for _, want := range []string{"E5 slowdown", "rtt", "ADC", "2.250", "note: ADC ~ baseline"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
	if len(tb.Rows()) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows()))
	}
}
