package main

import (
	"fmt"
	"strings"
	"testing"
)

// runLine is one side's run as `make pairs` records it: the side, then the
// final JSON line of `benchmark -workload W`, here with wall_s, one
// simulation metric and the fixed host metrics.
func runLine(side string, wall, recoveryMs float64, attempted int) string {
	return fmt.Sprintf(`%s {"correct":true,"attempted":%d,"failed":0,"metrics":{`+
		`"alloc_mb_per_op":{"value":4.09,"unit":"MB"},"allocs_per_op":{"value":976.4,"unit":"count"},`+
		`"recovery_ms":{"value":%v,"unit":"sim_ms"},"setup_s":{"value":0.11,"unit":"s"},"wall_s":{"value":%v,"unit":"s"}}}`,
		side, attempted, recoveryMs, wall)
}

// pairsOutput renders n alternating pairs, base first in even pairs, whose
// wall_s values wall gives.
func pairsOutput(n int, wall func(side string, i int) float64) string {
	var lines []string
	for i := range n {
		order := []string{"base", "head"}
		if i%2 == 1 {
			order = []string{"head", "base"}
		}
		for _, side := range order {
			lines = append(lines, runLine(side, wall(side, i), 75.3, 544855))
		}
	}
	return strings.Join(lines, "\n") + "\n"
}

// verdictOf runs the comparison over output and returns whether it passed
// and the printed row of the benchmark's metric.
func verdictOf(t *testing.T, output, metric string) (bool, string) {
	t.Helper()
	ok, rows := verdicts(t, output)
	row, found := rows["benchmark "+metric]
	if !found {
		t.Fatalf("no %s row in %v", metric, rows)
	}
	return ok, row
}

// verdicts runs the comparison over output and returns whether it passed and
// its printed rows by row and column.
func verdicts(t *testing.T, output string) (bool, map[string]string) {
	t.Helper()
	base, head, err := readPairs(strings.NewReader(output))
	if err != nil {
		t.Fatal(err)
	}
	var printed strings.Builder
	ok := comparePairs(&printed, base, head)
	rows := map[string]string{}
	for _, line := range strings.Split(printed.String(), "\n") {
		if f := strings.Fields(line); len(f) > 2 && f[0] != "column" {
			rows[f[0]+" "+f[1]] = line
		}
	}
	return ok, rows
}

// The sign-test rule on canned runs: a verdict needs ten pairs, nine tenths of
// them won by one side and medians apart by more than base's q1–q3; fewer
// pairs, fewer wins or a gap inside base's spread read unresolved, and the
// host metrics that never moved read unresolved with no pair won.
func TestPairVerdictIsTheSignTestRule(t *testing.T) {
	base := func(i int) float64 { return 0.0138 + 0.0001*float64(i%3) } // q1–q3 0.0138–0.0140
	for _, c := range []struct {
		name    string
		n       int
		head    func(i int) float64
		verdict string
		won     string
	}{
		{"10 of 10 pairs, 13% faster", 10, func(i int) float64 { return base(i) * 0.87 }, "better", "10/10"},
		{"9 of 10 pairs, 13% faster", 10, func(i int) float64 {
			if i == 4 {
				return 0.02
			}
			return base(i) * 0.87
		}, "better", "9/10"},
		{"8 of 10 pairs", 10, func(i int) float64 {
			if i < 2 {
				return 0.02
			}
			return base(i) * 0.87
		}, "unresolved", "8/10"},
		{"10 of 10 pairs inside base's spread", 10, func(i int) float64 { return base(i) - 0.00001 }, "unresolved", "10/10"},
		{"two pairs, far apart", 2, func(i int) float64 { return base(i) / 2 }, "unresolved", "2/2"},
		{"10 of 10 pairs, 13% slower", 10, func(i int) float64 { return base(i) * 1.13 }, "worse", "0/10"},
		{"ties", 10, base, "unresolved", "0/10"},
	} {
		t.Run(c.name, func(t *testing.T) {
			output := pairsOutput(c.n, func(side string, i int) float64 {
				if side == "head" {
					return c.head(i)
				}
				return base(i)
			})
			ok, row := verdictOf(t, output, "wall_s")
			if f := strings.Fields(row); !ok || f[len(f)-1] != c.verdict || f[len(f)-2] != c.won {
				t.Fatalf("passed %v, wall_s row %q: want verdict %s with %s pairs won", ok, row, c.verdict, c.won)
			}
			if _, row := verdictOf(t, output, "allocs_per_op"); !strings.HasSuffix(row, fmt.Sprintf(" 0/%d  unresolved", c.n)) {
				t.Fatalf("an unmoved host metric reads %q", row)
			}
		})
	}
}

// A simulation metric or attempted that differs between any two runs fails
// the comparison and names the metric and the run; equal ones are listed.
func TestPairsFailWhenASimValueMoves(t *testing.T) {
	wall := func(string, int) float64 { return 0.0138 }
	same := pairsOutput(3, wall)
	if ok, row := verdictOf(t, same, "recovery_ms"); !ok || row != fmt.Sprintf("%-56s 75.3 in all 6 runs", "benchmark recovery_ms") {
		t.Fatalf("passed %v, recovery_ms row %q", ok, row)
	}
	for _, c := range []struct{ metric, from, to string }{
		{"recovery_ms", `"value":75.3,`, `"value":75.30000000000001,`},
		{"attempted", `"attempted":544855,`, `"attempted":544854,`},
	} {
		lines := strings.Split(same, "\n")
		lines[3] = strings.Replace(lines[3], c.from, c.to, 1) // pair 2's base run
		ok, row := verdictOf(t, strings.Join(lines, "\n"), c.metric)
		if ok || !strings.Contains(row, "FAIL") || !strings.Contains(row, "base run 2") {
			t.Fatalf("%s moved in one run: passed %v, row %q", c.metric, ok, row)
		}
	}
}

// A benchmark run that was not correct, in every run alike, or a column only
// head reports fails the comparison and names the column.
func TestPairsFailOnAWrongRunOrAHeadOnlyColumn(t *testing.T) {
	same := pairsOutput(3, func(string, int) float64 { return 0.0138 })
	for _, c := range []struct{ column, from, to, side string }{
		{"correct", `"correct":true`, `"correct":false`, ""},
		{"extra_ms", `"metrics":{`, `"metrics":{"extra_ms":{"value":1,"unit":"sim_ms"},`, "head "},
	} {
		lines := strings.Split(same, "\n")
		for i, line := range lines {
			if strings.HasPrefix(line, c.side) {
				lines[i] = strings.Replace(line, c.from, c.to, 1)
			}
		}
		if ok, row := verdictOf(t, strings.Join(lines, "\n"), c.column); ok || !strings.Contains(row, "FAIL") {
			t.Fatalf("%s: passed %v, row %q", c.column, ok, row)
		}
	}
}

// layerRuns renders n alternating pairs of one package's go test output, as
// `make layer-pairs` records it: each run a header and two benchmarks, Commit
// at the ns/op and allocs/op commit gives, and Recover with its simulated-time
// metric at the value recover gives.
func layerRuns(n int, commit func(side string, i int) (ns, allocs float64), recover func(side string, i int) float64) string {
	var out strings.Builder
	for i := range n {
		order := []string{"base", "head"}
		if i%2 == 1 {
			order = []string{"head", "base"}
		}
		for _, side := range order {
			ns, allocs := commit(side, i)
			for _, line := range []string{
				"goos: linux",
				"pkg: repro/internal/db",
				fmt.Sprintf("BenchmarkTxnCommit \t 100000\t %v ns/op\t 147 B/op\t %v allocs/op", ns, allocs),
				fmt.Sprintf("BenchmarkRecover/empty \t 10000\t 9868 ns/op\t %v flush-sim-µs\t 672 B/op\t 4 allocs/op", recover(side, i)),
				"PASS",
			} {
				fmt.Fprintf(&out, "%s %s\n", side, line)
			}
		}
	}
	return out.String()
}

// make layer-pairs judges ns/op, B/op and allocs/op of every benchmark by the
// rule make pairs judges wall_s by, and holds a benchmark's custom metrics
// equal in every run: ten pairs whose head is 13% faster and allocates once
// less read better on both columns and unresolved on the unmoved B/op; a
// simulated-time metric that differs in one run fails the comparison.
func TestLayerPairsJudgeEachColumn(t *testing.T) {
	commit := func(side string, i int) (float64, float64) {
		ns := 832 + float64(i%3)
		if side == "head" {
			return ns * 0.87, 0
		}
		return ns, 1
	}
	recover := func(string, int) float64 { return 200 }
	ok, rows := verdicts(t, layerRuns(10, commit, recover))
	for key, want := range map[string]string{
		"repro/internal/db.TxnCommit ns/op":            "10/10  better",
		"repro/internal/db.TxnCommit allocs/op":        "10/10  better",
		"repro/internal/db.TxnCommit B/op":             "0/10  unresolved",
		"repro/internal/db.Recover/empty ns/op":        "0/10  unresolved",
		"repro/internal/db.Recover/empty flush-sim-µs": "200 in all 20 runs",
	} {
		if !strings.HasSuffix(rows[key], want) {
			t.Fatalf("%s row %q: want it to end %q", key, rows[key], want)
		}
	}
	if !ok {
		t.Fatal("no custom metric moved, yet the comparison failed")
	}
	moved := func(side string, i int) float64 {
		if side == "base" && i == 1 {
			return 300
		}
		return 200
	}
	if ok, rows := verdicts(t, layerRuns(10, commit, moved)); ok || !strings.Contains(rows["repro/internal/db.Recover/empty flush-sim-µs"], "FAIL") {
		t.Fatalf("a simulated-time metric moved in one run: passed %v, row %q", ok, rows["repro/internal/db.Recover/empty flush-sim-µs"])
	}
}

// Benchmark runs that do not pair up or do not parse, or a side that ran the
// benchmark against one that ran go test, are an input error, not a verdict.
func TestReadPairsRefusesUnpairedRuns(t *testing.T) {
	two := layerRuns(2, func(string, int) (float64, float64) { return 832, 0 }, func(string, int) float64 { return 200 })
	for _, output := range []string{
		"",
		runLine("base", 0.0138, 75.3, 1) + "\n", // one base run, no head run
		runLine("base", 0.0138, 75.3, 1) + "\n" + runLine("left", 0.0138, 75.3, 1) + "\n",
		"base {not json}\n",
		runLine("base", 0.0138, 75.3, 1) + "\n" + strings.Join(strings.Split(two, "\n")[5:10], "\n") + "\n", // base ran the benchmark, head go test
	} {
		if _, _, err := readPairs(strings.NewReader(output)); err == nil {
			t.Fatalf("readPairs accepted %q", output)
		}
	}
}

// go test runs that do not pair up, benchmark by benchmark, are an input
// error too.
func TestReadLayerPairsRefusesUnpairedRuns(t *testing.T) {
	same := func(string, int) (float64, float64) { return 832, 0 }
	flat := func(string, int) float64 { return 200 }
	two := layerRuns(2, same, flat)
	lines := strings.Split(two, "\n")
	for _, output := range []string{
		"",
		strings.Join(lines[:5], "\n") + "\n", // one base run, no head run
		strings.Join(append(lines[:12:12], lines[13:]...), "\n"), // one head run lacks TxnCommit
		strings.Replace(two, "head goos", "left goos", 1),        // a side neither base nor head
	} {
		if _, _, err := readPairs(strings.NewReader(output)); err == nil {
			t.Fatalf("readPairs accepted %q", output)
		}
	}
}
