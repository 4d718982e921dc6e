package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor
BenchmarkE1_EndToEndPipeline-96          3          11000000 ns/op         5242880 B/op      12345 allocs/op
BenchmarkE2_OperatorAutomation-96        3           1300000 ns/op          100000 B/op       2000 allocs/op
BenchmarkE13_ShardedThroughput-96        3         230000000 ns/op        90000000 B/op     900000 allocs/op
PASS
ok      repro   1.234s
`

func TestParseBenchOutputStripsCPUSuffixAndReadsBenchmem(t *testing.T) {
	entries, err := parseBenchOutput(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("entries = %d, want 3", len(entries))
	}
	e := entries[0]
	if e.Name != "BenchmarkE1_EndToEndPipeline" {
		t.Errorf("name = %q (cpu suffix not stripped?)", e.Name)
	}
	if e.Iters != 3 || e.NsPerOp != 11000000 || e.BytesPerOp != 5242880 || e.AllocsPerOp != 12345 {
		t.Errorf("entry = %+v", e)
	}
}

func TestParseBenchOutputTakesMinAcrossCounts(t *testing.T) {
	in := "BenchmarkX-8  3  3000 ns/op\nBenchmarkX-8  3  1000 ns/op\nBenchmarkX-8  3  2000 ns/op\n"
	entries, err := parseBenchOutput(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].NsPerOp != 1000 {
		t.Fatalf("entries = %+v, want single min-ns entry", entries)
	}
}

func TestParseBenchOutputWithoutBenchmemColumns(t *testing.T) {
	entries, err := parseBenchOutput(strings.NewReader("BenchmarkX-8  5  1000 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].NsPerOp != 1000 || entries[0].AllocsPerOp != 0 {
		t.Fatalf("entries = %+v", entries)
	}
}

func verdictFor(t *testing.T, vs []Verdict, name string) Verdict {
	t.Helper()
	for _, v := range vs {
		if v.Name == name {
			return v
		}
	}
	t.Fatalf("no verdict for %s in %+v", name, vs)
	return Verdict{}
}

func TestCompareClassifiesRegressionsNewAndMissing(t *testing.T) {
	baseline := []Entry{
		{Name: "BenchA", NsPerOp: 1000, AllocsPerOp: 100},
		{Name: "BenchB", NsPerOp: 1000, AllocsPerOp: 100},
		{Name: "BenchC", NsPerOp: 1000, AllocsPerOp: 100},
		{Name: "BenchGone", NsPerOp: 1000},
	}
	baseline = append(baseline, Entry{Name: "BenchD", NsPerOp: 1000, AllocsPerOp: 100, BytesPerOp: 1000})
	current := []Entry{
		{Name: "BenchA", NsPerOp: 1200, AllocsPerOp: 100},                   // +20% — within 25%
		{Name: "BenchB", NsPerOp: 1300, AllocsPerOp: 100},                   // +30% — blocks
		{Name: "BenchC", NsPerOp: 1000, AllocsPerOp: 200},                   // alloc doubled — blocks
		{Name: "BenchNew", NsPerOp: 500, AllocsPerOp: 100},                  // not in baseline — allowed
		{Name: "BenchD", NsPerOp: 1000, AllocsPerOp: 100, BytesPerOp: 3000}, // B/op tripled — warns only
	}
	vs := compare(baseline, current, 0.25, 0.25)

	if v := verdictFor(t, vs, "BenchA"); v.Status != "ok" || v.Blocking {
		t.Errorf("BenchA = %+v", v)
	}
	if v := verdictFor(t, vs, "BenchB"); v.Status != "regressed" || !v.Blocking {
		t.Errorf("BenchB = %+v", v)
	}
	if v := verdictFor(t, vs, "BenchC"); v.Status != "alloc-regressed" || !v.Blocking {
		t.Errorf("BenchC = %+v (allocs/op regressions must fail)", v)
	}
	if v := verdictFor(t, vs, "BenchNew"); v.Status != "new" || v.Blocking {
		t.Errorf("BenchNew = %+v (new benches are allowed)", v)
	}
	if v := verdictFor(t, vs, "BenchD"); v.Status != "alloc-warn" || v.Blocking {
		t.Errorf("BenchD = %+v (B/op regressions must warn, not fail)", v)
	}
	if v := verdictFor(t, vs, "BenchGone"); v.Status != "missing" || v.Blocking {
		t.Errorf("BenchGone = %+v", v)
	}
}

func TestCompareBoundaryExactlyAtThresholdPasses(t *testing.T) {
	baseline := []Entry{{Name: "B", NsPerOp: 1000}}
	// Exactly +25% is NOT a regression (strictly-greater check).
	vs := compare(baseline, []Entry{{Name: "B", NsPerOp: 1250}}, 0.25, 0.25)
	if v := verdictFor(t, vs, "B"); v.Blocking {
		t.Errorf("exactly-at-threshold blocked: %+v", v)
	}
	vs = compare(baseline, []Entry{{Name: "B", NsPerOp: 1251}}, 0.25, 0.25)
	if v := verdictFor(t, vs, "B"); !v.Blocking {
		t.Errorf("past-threshold not blocked: %+v", v)
	}
}

// Allocation counts are deterministic, so their gate is narrow: past +5% an
// allocs/op rise blocks even when ns/op is flat, exactly +5% does not, and
// a drop never does.
func TestCompareBlocksAllocRegressionPastFivePercent(t *testing.T) {
	baseline := []Entry{{Name: "B", NsPerOp: 1000, AllocsPerOp: 100000}}
	for _, tc := range []struct {
		allocs   float64
		blocking bool
	}{{50000, false}, {105000, false}, {105001, true}} {
		vs := compare(baseline, []Entry{{Name: "B", NsPerOp: 1000, AllocsPerOp: tc.allocs}}, 0.25, 0.05)
		if v := verdictFor(t, vs, "B"); v.Blocking != tc.blocking {
			t.Errorf("allocs/op 100000 -> %.0f: %+v, want blocking=%v", tc.allocs, v, tc.blocking)
		}
	}
}

func TestCompareToleratesBaselineWithoutAllocs(t *testing.T) {
	// Pre-benchmem baselines have zero alloc fields; they must not warn.
	baseline := []Entry{{Name: "B", NsPerOp: 1000}}
	vs := compare(baseline, []Entry{{Name: "B", NsPerOp: 1000, AllocsPerOp: 999}}, 0.25, 0.25)
	if v := verdictFor(t, vs, "B"); v.Status != "ok" {
		t.Errorf("verdict = %+v", v)
	}
}

func TestDeltaSummaryReportsMedianWorstNewMissing(t *testing.T) {
	baseline := []Entry{
		{Name: "A", NsPerOp: 1000},
		{Name: "B", NsPerOp: 2000},
		{Name: "C", NsPerOp: 4000},
		{Name: "Gone", NsPerOp: 100},
	}
	current := []Entry{
		{Name: "A", NsPerOp: 1100}, // +10%
		{Name: "B", NsPerOp: 1800}, // -10%
		{Name: "C", NsPerOp: 6000}, // +50% — worst
		{Name: "Fresh", NsPerOp: 1},
	}
	s := deltaSummary(baseline, current)
	for _, want := range []string{
		"3 compared", "median +10.0%", "worst +50.0% (C)", "1 new", "1 missing",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("summary %q missing %q", s, want)
		}
	}
}

func TestDeltaSummaryNoOverlap(t *testing.T) {
	s := deltaSummary([]Entry{{Name: "Old", NsPerOp: 1}}, []Entry{{Name: "New", NsPerOp: 1}})
	if !strings.Contains(s, "no baseline overlap") || !strings.Contains(s, "1 new") || !strings.Contains(s, "1 missing") {
		t.Errorf("summary = %q", s)
	}
}

// TestUpdateBaselineRoundTrips pins the -update mode: the written file is
// the committed baseline format (stable line-per-entry layout, integer
// values) and loads back to exactly what the parser aggregated — so a
// baseline regenerated by `make baseline` compares like-for-like with the
// run that produced it.
func TestUpdateBaselineRoundTrips(t *testing.T) {
	out := "BenchmarkE1_EndToEndPipeline-8   3   8372413 ns/op   120000 B/op   2200 allocs/op\n" +
		"BenchmarkE15_Reshard-8           3  50123456 ns/op  9000000 B/op  81000 allocs/op\n" +
		"BenchmarkE1_EndToEndPipeline-8   3   7260607 ns/op   118000 B/op   2100 allocs/op\n"
	entries, err := parseBenchOutput(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_baseline.json")
	if err := updateBaseline(path, entries); err != nil {
		t.Fatal(err)
	}
	loaded, err := loadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 2 {
		t.Fatalf("loaded %d entries, want 2", len(loaded))
	}
	if loaded[0].Name != "BenchmarkE1_EndToEndPipeline" || loaded[0].NsPerOp != 7260607 {
		t.Fatalf("entry 0 = %+v (min-over-count not recorded)", loaded[0])
	}
	if loaded[1].Name != "BenchmarkE15_Reshard" || loaded[1].AllocsPerOp != 81000 {
		t.Fatalf("entry 1 = %+v", loaded[1])
	}
	// The file itself keeps the reviewable one-line-per-entry shape.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 4 || lines[0] != "[" || lines[len(lines)-1] != "]" {
		t.Fatalf("baseline layout changed:\n%s", data)
	}
	// A comparison against the just-written baseline is all-ok.
	for _, v := range compare(loaded, entries, 0.25, 0.25) {
		if v.Status != "ok" {
			t.Fatalf("self-comparison verdict %+v", v)
		}
	}
}

// TestUpdateBaselineFractionalNsRounds covers sub-nanosecond benches (the
// parser keeps floats; the committed format records integers).
func TestUpdateBaselineFractionalNsRounds(t *testing.T) {
	entries := []Entry{{Name: "BenchmarkTiny", Iters: 1000000, NsPerOp: 12.75, BytesPerOp: 3.5, AllocsPerOp: 0.5}}
	path := filepath.Join(t.TempDir(), "b.json")
	if err := updateBaseline(path, entries); err != nil {
		t.Fatal(err)
	}
	loaded, err := loadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded[0].NsPerOp != 12 || loaded[0].BytesPerOp != 3 {
		t.Fatalf("rounding changed: %+v", loaded[0])
	}
}
