// Command benchcheck is the CI bench-regression gate: it parses `go test
// -bench` output from stdin, compares each harness against the committed
// BENCH_baseline.json, and exits non-zero when any harness's ns/op or
// allocs/op regressed past its threshold. The two gates have different
// widths because the two numbers have different noise: wall cost on a shared
// box needs 25%, while the simulation is deterministic and its allocation
// counts repeat to under 0.1%, so a 5% rise in allocs/op is a real change
// somebody must own. Benchmarks not in the baseline are reported as "new"
// (allowed — commit a fresh baseline to start tracking them); bytes-per-op
// regressions only warn (slice growth policy moves them without the program
// doing more work).
//
// Runs repeated with -count are collapsed to each benchmark's MINIMUM
// ns/op — the standard noise-robust statistic for a shared CI box — and
// `make baseline` records minima the same way, so the comparison is
// like-for-like.
//
// Usage (what `make bench-check` runs):
//
//	go test -run '^$' -bench . -benchtime 3x -benchmem -count 3 . | go run ./cmd/benchcheck -baseline BENCH_baseline.json
//
// With -update the tool REWRITES the baseline from the run on stdin instead
// of comparing against it (what `make baseline` runs) — same parser, same
// min-over-count aggregation, so the recorded numbers are exactly what a
// later bench-check will compare like-for-like.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Entry is one harness's recorded cost — the schema of BENCH_baseline.json
// (make baseline writes it, this tool reads it).
type Entry struct {
	Name        string  `json:"name"`
	Iters       int64   `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Verdict classifies one benchmark against the baseline.
type Verdict struct {
	Name     string `json:"name"`
	Status   string `json:"status"` // "ok", "regressed", "alloc-regressed", "alloc-warn", "new", "missing"
	Detail   string `json:"detail"`
	Blocking bool   `json:"blocking"`
}

// Report is the machine-readable result of one gate run — what -json writes,
// so CI can archive the comparison as a build artifact and dashboards can
// track the measured costs without re-parsing console output.
type Report struct {
	Baseline string    `json:"baseline"`
	Pass     bool      `json:"pass"`
	Summary  string    `json:"summary"`
	Verdicts []Verdict `json:"verdicts"`
	Current  []Entry   `json:"current"`
}

// writeReport renders the report as indented JSON at path.
func writeReport(path string, rep Report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// cpuSuffix strips the -GOMAXPROCS suffix go test appends to bench names,
// so runs from machines with different core counts compare.
var cpuSuffix = regexp.MustCompile(`-\d+$`)

// parseBenchOutput extracts benchmark entries from `go test -bench` output.
// With -benchmem each line reads:
//
//	BenchmarkName-N  iters  ns/op-value ns/op  B-value B/op  allocs-value allocs/op
func parseBenchOutput(r io.Reader) ([]Entry, error) {
	var out []Entry
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 {
			continue
		}
		e := Entry{Name: cpuSuffix.ReplaceAllString(f[0], "")}
		var err error
		if e.Iters, err = strconv.ParseInt(f[1], 10, 64); err != nil {
			continue
		}
		// Units follow their values; scan pairwise so missing -benchmem
		// columns (or extra custom metrics) don't break parsing.
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				break
			}
			switch f[i+1] {
			case "ns/op":
				e.NsPerOp = v
			case "B/op":
				e.BytesPerOp = v
			case "allocs/op":
				e.AllocsPerOp = v
			}
		}
		if e.NsPerOp == 0 {
			continue
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return aggregateMin(out), nil
}

// aggregateMin collapses repeated measurements of one benchmark (go test
// -count N) to the run with the minimum ns/op, preserving first-seen order.
func aggregateMin(entries []Entry) []Entry {
	best := make(map[string]int, len(entries))
	var out []Entry
	for _, e := range entries {
		i, ok := best[e.Name]
		if !ok {
			best[e.Name] = len(out)
			out = append(out, e)
			continue
		}
		if e.NsPerOp < out[i].NsPerOp {
			out[i] = e
		}
	}
	return out
}

// writeBaseline renders entries in the committed baseline's stable format:
// one object per line, integer-rounded values, first-seen order — so
// regenerating after an intentional cost move yields a reviewable diff.
func writeBaseline(w io.Writer, entries []Entry) error {
	var b strings.Builder
	b.WriteString("[\n")
	for i, e := range entries {
		fmt.Fprintf(&b, "  {\"name\": %q, \"iters\": %d, \"ns_per_op\": %d, \"bytes_per_op\": %d, \"allocs_per_op\": %d}",
			e.Name, e.Iters, int64(e.NsPerOp), int64(e.BytesPerOp), int64(e.AllocsPerOp))
		if i < len(entries)-1 {
			b.WriteString(",")
		}
		b.WriteString("\n")
	}
	b.WriteString("]\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// updateBaseline writes the parsed run to path and returns the recorded
// entries.
func updateBaseline(path string, entries []Entry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeBaseline(f, entries); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func loadBaseline(path string) ([]Entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []Entry
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// ratio formats a relative change, e.g. +31.2% or -8.4%.
func ratio(cur, base float64) string {
	return fmt.Sprintf("%+.1f%%", (cur/base-1)*100)
}

// deltaSummary condenses the whole run into one line — printed on pass as
// well as fail, so a green gate still reports how far the needle moved:
// median and worst ns/op delta over the compared benchmarks, plus any
// new/missing ones.
func deltaSummary(baseline, current []Entry) string {
	base := make(map[string]Entry, len(baseline))
	for _, e := range baseline {
		base[e.Name] = e
	}
	var deltas []float64
	var worst float64
	worstName := ""
	newCount := 0
	seen := make(map[string]bool, len(current))
	for _, cur := range current {
		seen[cur.Name] = true
		b, ok := base[cur.Name]
		if !ok || b.NsPerOp <= 0 {
			newCount++
			continue
		}
		d := cur.NsPerOp/b.NsPerOp - 1
		deltas = append(deltas, d)
		if worstName == "" || d > worst {
			worst, worstName = d, cur.Name
		}
	}
	missing := 0
	for _, b := range baseline {
		if !seen[b.Name] {
			missing++
		}
	}
	if len(deltas) == 0 {
		return fmt.Sprintf("no baseline overlap (%d new, %d missing)", newCount, missing)
	}
	sort.Float64s(deltas)
	median := deltas[len(deltas)/2]
	if len(deltas)%2 == 0 {
		median = (deltas[len(deltas)/2-1] + deltas[len(deltas)/2]) / 2
	}
	s := fmt.Sprintf("%d compared, ns/op median %+.1f%%, worst %+.1f%% (%s)",
		len(deltas), median*100, worst*100, worstName)
	if newCount > 0 {
		s += fmt.Sprintf(", %d new", newCount)
	}
	if missing > 0 {
		s += fmt.Sprintf(", %d missing", missing)
	}
	return s
}

// compare classifies every current benchmark against the baseline. ns/op
// regressions beyond nsThreshold and allocs/op regressions beyond
// allocThreshold block; B/op regressions beyond allocThreshold warn;
// baseline entries absent from the run warn as "missing" (a renamed or
// deleted harness needs a fresh baseline).
func compare(baseline, current []Entry, nsThreshold, allocThreshold float64) []Verdict {
	base := make(map[string]Entry, len(baseline))
	for _, e := range baseline {
		base[e.Name] = e
	}
	seen := make(map[string]bool, len(current))
	var out []Verdict
	for _, cur := range current {
		seen[cur.Name] = true
		b, ok := base[cur.Name]
		if !ok {
			out = append(out, Verdict{Name: cur.Name, Status: "new",
				Detail: fmt.Sprintf("%.0f ns/op (not in baseline; `make baseline` to track)", cur.NsPerOp)})
			continue
		}
		if b.NsPerOp > 0 && cur.NsPerOp > b.NsPerOp*(1+nsThreshold) {
			out = append(out, Verdict{Name: cur.Name, Status: "regressed", Blocking: true,
				Detail: fmt.Sprintf("ns/op %.0f -> %.0f (%s, threshold +%.0f%%)",
					b.NsPerOp, cur.NsPerOp, ratio(cur.NsPerOp, b.NsPerOp), nsThreshold*100)})
			continue
		}
		if b.AllocsPerOp > 0 && cur.AllocsPerOp > b.AllocsPerOp*(1+allocThreshold) {
			out = append(out, Verdict{Name: cur.Name, Status: "alloc-regressed", Blocking: true,
				Detail: fmt.Sprintf("allocs/op %.0f -> %.0f (%s, threshold +%.0f%%)",
					b.AllocsPerOp, cur.AllocsPerOp, ratio(cur.AllocsPerOp, b.AllocsPerOp), allocThreshold*100)})
			continue
		}
		if b.BytesPerOp > 0 && cur.BytesPerOp > b.BytesPerOp*(1+allocThreshold) {
			out = append(out, Verdict{Name: cur.Name, Status: "alloc-warn",
				Detail: fmt.Sprintf("B/op %.0f -> %.0f (%s) — warning only",
					b.BytesPerOp, cur.BytesPerOp, ratio(cur.BytesPerOp, b.BytesPerOp))})
			continue
		}
		out = append(out, Verdict{Name: cur.Name, Status: "ok",
			Detail: fmt.Sprintf("ns/op %.0f -> %.0f (%s)", b.NsPerOp, cur.NsPerOp, ratio(cur.NsPerOp, b.NsPerOp))})
	}
	for _, b := range baseline {
		if !seen[b.Name] {
			out = append(out, Verdict{Name: b.Name, Status: "missing",
				Detail: "in baseline but absent from this run"})
		}
	}
	return out
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "committed baseline to compare against")
	nsThreshold := flag.Float64("threshold", 0.25, "blocking ns/op regression threshold (fraction)")
	allocThreshold := flag.Float64("alloc-threshold", 0.05, "blocking allocs/op (and warn-only B/op) regression threshold (fraction)")
	update := flag.Bool("update", false, "rewrite the baseline from the bench run on stdin instead of comparing")
	jsonPath := flag.String("json", "", "also write the comparison as a JSON report to this path (CI artifact)")
	flag.Parse()

	current, err := parseBenchOutput(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: reading bench output: %v\n", err)
		os.Exit(2)
	}
	if len(current) == 0 {
		fmt.Fprintln(os.Stderr, "benchcheck: no benchmark lines on stdin (pipe `go test -bench` output in)")
		os.Exit(2)
	}
	if *update {
		if err := updateBaseline(*baselinePath, current); err != nil {
			fmt.Fprintf(os.Stderr, "benchcheck: updating %s: %v\n", *baselinePath, err)
			os.Exit(2)
		}
		fmt.Printf("benchcheck: wrote %s (%d benchmarks, min ns/op over repeated runs)\n", *baselinePath, len(current))
		return
	}
	baseline, err := loadBaseline(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
		os.Exit(2)
	}
	verdicts := compare(baseline, current, *nsThreshold, *allocThreshold)
	blocking := 0
	for _, v := range verdicts {
		fmt.Printf("%-12s %-36s %s\n", v.Status, v.Name, v.Detail)
		if v.Blocking {
			blocking++
		}
	}
	summary := deltaSummary(baseline, current)
	if *jsonPath != "" {
		rep := Report{Baseline: *baselinePath, Pass: blocking == 0,
			Summary: summary, Verdicts: verdicts, Current: current}
		if err := writeReport(*jsonPath, rep); err != nil {
			fmt.Fprintf(os.Stderr, "benchcheck: writing %s: %v\n", *jsonPath, err)
			os.Exit(2)
		}
	}
	if blocking > 0 {
		fmt.Fprintf(os.Stderr, "benchcheck: FAIL — %d benchmark(s) regressed past the ns/op or allocs/op threshold; %s\n",
			blocking, summary)
		os.Exit(1)
	}
	fmt.Printf("benchcheck: PASS vs %s — %s\n", *baselinePath, summary)
}
