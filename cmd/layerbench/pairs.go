package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"slices"
	"strconv"
	"strings"
)

// hostMetrics are the benchmark's end-to-end metrics read off the host clock
// and allocator, every one better lower. They move from run to run, so a pair
// comparison judges them; every other metric is the simulation's and must
// read the same in every run of either side.
var hostMetrics = []string{"wall_s", "setup_s", "allocs_per_op", "alloc_mb_per_op"}

// minPairs and winShare are the sign-test rule: a verdict needs at least ten
// pairs, and one side winning nine tenths of them, ties counting for neither.
const (
	minPairs = 10
	winShare = 0.9
)

// result is the one JSON line `benchmark -workload W` ends its output with.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// readPairs reads `base <json>` and `head <json>` lines, one per run of each
// side's benchmark in the order they ran; the i-th run of each side is pair i.
func readPairs(r io.Reader) (base, head []result, err error) {
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		side, line, _ := strings.Cut(sc.Text(), " ")
		var res result
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			return nil, nil, fmt.Errorf("line %d: %v", n, err)
		}
		switch side {
		case "base":
			base = append(base, res)
		case "head":
			head = append(head, res)
		default:
			return nil, nil, fmt.Errorf("line %d: side %q is neither base nor head", n, side)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if len(base) == 0 || len(base) != len(head) {
		return nil, nil, fmt.Errorf("%d base runs and %d head runs: want as many of each, at least one", len(base), len(head))
	}
	return base, head, nil
}

// comparePairs prints, per host metric, each side's median and quartiles, the
// change of the medians, the pairs head won and the verdict, then the
// simulation's metrics, attempted and failed. It reports false when one of
// those differs between any two runs, or a run was not correct.
func comparePairs(w io.Writer, base, head []result) bool {
	runs := append(slices.Clone(base), head...)
	fmt.Fprintf(w, "%d pairs; a verdict needs %d or more, one side winning %.0f%% of them and the medians apart by more than base's q1–q3\n",
		len(base), minPairs, 100*winShare)
	fmt.Fprintf(w, "%-20s %-34s %-34s %8s %6s  %s\n", "metric", "base median (q1–q3)", "head median (q1–q3)", "change", "won", "verdict")
	for _, m := range hostMetrics {
		fmt.Fprintf(w, "%-20s %s\n", m, verdictColumns(values(base, m), values(head, m)))
	}
	ok := true
	same := func(name string, v func(result) string) {
		for i, r := range runs {
			if v(r) != v(runs[0]) {
				side, at := "base", i
				if i >= len(base) {
					side, at = "head", i-len(base)
				}
				fmt.Fprintf(w, "%-20s FAIL: %s in %s run %d, %s in base run 1\n", name, v(r), side, at+1, v(runs[0]))
				ok = false
				return
			}
		}
		fmt.Fprintf(w, "%-20s %s in all %d runs\n", name, v(runs[0]), len(runs))
	}
	same("correct", func(r result) string { return strconv.FormatBool(r.Correct) })
	same("attempted", func(r result) string { return strconv.Itoa(r.Attempted) })
	same("failed", func(r result) string { return strconv.Itoa(r.Failed) })
	for _, m := range slices.Sorted(maps.Keys(runs[0].Metrics)) {
		if !slices.Contains(hostMetrics, m) {
			same(m, func(r result) string { return strconv.FormatFloat(r.Metrics[m].Value, 'g', -1, 64) })
		}
	}
	return ok && runs[0].Correct
}

// verdictColumns prints one metric's pairs: each side's median and quartiles,
// the change of the medians, the pairs head won and the verdict.
func verdictColumns(b, h []float64) string {
	qb, qh := quartiles(b), quartiles(h)
	won, verdict := pairVerdict(b, h)
	change := 0.0
	if qb[1] != 0 {
		change = 100 * (qh[1] - qb[1]) / qb[1]
	}
	return fmt.Sprintf("%-34s %-34s %+7.1f%% %6s  %s",
		fmt.Sprintf("%.6g (%.6g–%.6g)", qb[1], qb[0], qb[2]), fmt.Sprintf("%.6g (%.6g–%.6g)", qh[1], qh[0], qh[2]),
		change, fmt.Sprintf("%d/%d", won, len(b)), verdict)
}

// readLayerPairs reads the runs of `make layer-pairs`: go test's benchmark
// output, each line prefixed `base ` or `head ` by the side whose test binary
// printed it, the sides alternating which runs first. Each side's i-th result
// of a benchmark is that benchmark's pair i, so both sides must have run the
// same benchmarks as many times.
func readLayerPairs(r io.Reader) (base, head map[string]*samples, err error) {
	var out [2]strings.Builder
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		side, line, _ := strings.Cut(sc.Text(), " ")
		i := slices.Index([]string{"base", "head"}, side)
		if i < 0 {
			return nil, nil, fmt.Errorf("line %d: side %q is neither base nor head", n, side)
		}
		out[i].WriteString(line + "\n")
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if base, _, err = parse(strings.NewReader(out[0].String())); err != nil {
		return nil, nil, fmt.Errorf("base: %v", err)
	}
	if head, _, err = parse(strings.NewReader(out[1].String())); err != nil {
		return nil, nil, fmt.Errorf("head: %v", err)
	}
	for _, k := range slices.Sorted(maps.Keys(base)) {
		if h := head[k]; h == nil || len(h.ns) != len(base[k].ns) {
			return nil, nil, fmt.Errorf("%s: %d base runs and %d head runs: want as many of each", k, len(base[k].ns), len(head[k].ns))
		}
	}
	if len(head) != len(base) {
		return nil, nil, fmt.Errorf("head ran %d benchmarks, base %d: want the same ones", len(head), len(base))
	}
	return base, head, nil
}

// compareLayerPairs prints, per benchmark, the pairs verdict of its ns/op, B/op
// and allocs/op, then each custom metric it reports (a simulated-time figure).
// It reports false when a custom metric differs between any two runs.
func compareLayerPairs(w io.Writer, base, head map[string]*samples) bool {
	keys := slices.Sorted(maps.Keys(base))
	fmt.Fprintf(w, "%d pairs; a verdict needs %d or more, one side winning %.0f%% of them and the medians apart by more than base's q1–q3\n",
		len(base[keys[0]].ns), minPairs, 100*winShare)
	fmt.Fprintf(w, "%-56s %-34s %-34s %8s %6s  %s\n", "benchmark", "base median (q1–q3)", "head median (q1–q3)", "change", "won", "verdict")
	ok := true
	for _, k := range keys {
		b, h := base[k], head[k]
		for _, c := range []struct {
			unit       string
			base, head []float64
		}{{"ns/op", b.ns, h.ns}, {"B/op", b.bytes, h.bytes}, {"allocs/op", b.allocs, h.allocs}} {
			fmt.Fprintf(w, "%-56s %s\n", k+" "+c.unit, verdictColumns(c.base, c.head))
		}
		for _, unit := range slices.Sorted(maps.Keys(b.metrics)) {
			runs := append(slices.Clone(b.metrics[unit]), h.metrics[unit]...)
			if len(h.metrics[unit]) != len(b.metrics[unit]) || slices.ContainsFunc(runs, func(v float64) bool { return v != runs[0] }) {
				fmt.Fprintf(w, "%-56s FAIL: base %v, head %v\n", k+" "+unit, b.metrics[unit], h.metrics[unit])
				ok = false
				continue
			}
			fmt.Fprintf(w, "%-56s %v in all %d runs\n", k+" "+unit, runs[0], len(runs))
		}
		for unit := range h.metrics {
			if _, known := b.metrics[unit]; !known {
				fmt.Fprintf(w, "%-56s FAIL: head reports it, base does not\n", k+" "+unit)
				ok = false
			}
		}
	}
	return ok
}

func values(runs []result, metric string) []float64 {
	vs := make([]float64, len(runs))
	for i, r := range runs {
		vs[i] = r.Metrics[metric].Value
	}
	return vs
}

// pairVerdict judges one lower-is-better metric over pairs (base[i], head[i]):
// won is how many pairs head read lower. The verdict is "better" when head won
// at least winShare of at least minPairs pairs and its median is below base's
// by more than base's interquartile range, "worse" for the mirror image
// (base winning as many, head's median as far above), else "unresolved".
func pairVerdict(base, head []float64) (won int, verdict string) {
	lost := 0
	for i := range base {
		switch {
		case head[i] < base[i]:
			won++
		case head[i] > base[i]:
			lost++
		}
	}
	qb, qh := quartiles(base), quartiles(head)
	apart := qb[2] - qb[0]
	enough := func(wins int) bool {
		return len(base) >= minPairs && float64(wins) >= winShare*float64(len(base))
	}
	switch {
	case enough(won) && qb[1]-qh[1] > apart:
		return won, "better"
	case enough(lost) && qh[1]-qb[1] > apart:
		return won, "worse"
	}
	return won, "unresolved"
}
