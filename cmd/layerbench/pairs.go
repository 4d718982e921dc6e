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

// minPairs and winShare are the sign-test rule: a verdict needs at least ten
// pairs, and one side winning nine tenths of them, ties counting for neither.
const (
	minPairs = 10
	winShare = 0.9
)

// readPairs reads the runs of `make pairs` or `make layer-pairs`: every output
// line of either side's runs, prefixed `base ` or `head `, the sides
// alternating which runs first. A side whose lines hold a JSON line (one that
// starts with `{`) ran the benchmark and is read by readResults, any other
// side by parse. Each side's i-th run of a row is that row's pair i, so both
// sides must have run the same rows as often.
func readPairs(r io.Reader) (base, head map[string]samples, err error) {
	names := []string{"base", "head"}
	var out [2]strings.Builder
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		side, line, _ := strings.Cut(sc.Text(), " ")
		i := slices.Index(names, side)
		if i < 0 {
			return nil, nil, fmt.Errorf("line %d: side %q is neither base nor head", n, side)
		}
		out[i].WriteString(line + "\n")
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	var sides [2]map[string]samples
	for i := range sides {
		if text := out[i].String(); strings.HasPrefix(text, "{") || strings.Contains(text, "\n{") {
			sides[i], err = readResults(text)
		} else {
			sides[i], _, err = parse(strings.NewReader(text))
		}
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %v", names[i], err)
		}
	}
	// A row only one side ran, benchmark JSON against go test output say, has
	// no runs on the other.
	for _, k := range keys(sides[0], sides[1]) {
		if runs(sides[0][k]) != runs(sides[1][k]) {
			return nil, nil, fmt.Errorf("%s: %d base runs and %d head runs: want as many of each", k, runs(sides[0][k]), runs(sides[1][k]))
		}
	}
	return sides[0], sides[1], nil
}

// readResults reads the final JSON line of each `benchmark -workload W` run in
// output, skipping the tables before it, into one row named benchmark: each
// metric's value, correct (1 or 0), attempted and failed, one per run.
func readResults(output string) (map[string]samples, error) {
	s := samples{}
	for line := range strings.Lines(output) {
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var res struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Failed    int  `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			return nil, err
		}
		correct := 0.0
		if res.Correct {
			correct = 1
		}
		s["correct"] = append(s["correct"], correct)
		s["attempted"] = append(s["attempted"], float64(res.Attempted))
		s["failed"] = append(s["failed"], float64(res.Failed))
		for m, v := range res.Metrics {
			s[m] = append(s[m], v.Value)
		}
	}
	return map[string]samples{"benchmark": s}, nil
}

// runs is how many runs a row holds: its longest column.
func runs(s samples) int {
	n := 0
	for _, vs := range s {
		n = max(n, len(vs))
	}
	return n
}

// comparePairs prints, per row and judged column, each side's median and
// quartiles, the change of the medians, the pairs head won and the verdict,
// then every other column. It reports false when one of those differs between
// any two runs, a column is not in as many runs of each side (only head
// reports it, say), or correct reads 0.
func comparePairs(w io.Writer, base, head map[string]samples) bool {
	rows := slices.Sorted(maps.Keys(base))
	fmt.Fprintf(w, "%d pairs; a verdict needs %d or more, one side winning %.0f%% of them and the medians apart by more than base's q1–q3\n",
		runs(base[rows[0]]), minPairs, 100*winShare)
	fmt.Fprintf(w, "%-56s %-34s %-34s %8s %6s  %s\n", "column", "base median (q1–q3)", "head median (q1–q3)", "change", "won", "verdict")
	ok := true
	fail := func(label, format string, args ...any) {
		fmt.Fprintf(w, "%-56s FAIL: "+format+"\n", append([]any{label}, args...)...)
		ok = false
	}
	format := func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
	// The judged columns come first, in judged's order, then the others by name.
	rank := func(c string) int {
		if i := slices.Index(judged, c); i >= 0 {
			return i
		}
		return len(judged)
	}
	for _, k := range rows {
		b, h := base[k], head[k]
		columns := keys(b, h)
		slices.SortStableFunc(columns, func(x, y string) int { return rank(x) - rank(y) })
		for _, c := range columns {
			label := k + " " + c
			if len(b[c]) != len(h[c]) {
				fail(label, "reported by %d base runs and %d head runs", len(b[c]), len(h[c]))
				continue
			}
			if slices.Contains(judged, c) {
				fmt.Fprintf(w, "%-56s %s\n", label, pairVerdict(b[c], h[c]))
				continue
			}
			all := append(slices.Clone(b[c]), h[c]...)
			want := all[0]
			if c == "correct" {
				want = 1 // every run must be correct, not merely alike
			}
			if i := slices.IndexFunc(all, func(v float64) bool { return v != want }); i >= 0 {
				side, at := "base", i
				if i >= len(b[c]) {
					side, at = "head", i-len(b[c])
				}
				fail(label, "%s in %s run %d, want %s", format(all[i]), side, at+1, format(want))
			} else {
				fmt.Fprintf(w, "%-56s %s in all %d runs\n", label, format(all[0]), len(all))
			}
		}
	}
	return ok
}

// pairVerdict prints one lower-is-better column over pairs (base[i], head[i]):
// each side's median and quartiles, the change of the medians, the pairs head
// won (read lower) and the verdict. The verdict is "better" when head won at
// least winShare of at least minPairs pairs and its median is below base's by
// more than base's interquartile range, "worse" for the mirror image (base
// winning as many, head's median as far above), else "unresolved".
func pairVerdict(base, head []float64) string {
	won, lost := 0, 0
	for i := range base {
		switch {
		case head[i] < base[i]:
			won++
		case head[i] > base[i]:
			lost++
		}
	}
	qb, qh := quartiles(base), quartiles(head)
	enough := func(wins int) bool {
		return len(base) >= minPairs && float64(wins) >= winShare*float64(len(base))
	}
	verdict := "unresolved"
	switch apart := qb[2] - qb[0]; {
	case enough(won) && qb[1]-qh[1] > apart:
		verdict = "better"
	case enough(lost) && qh[1]-qb[1] > apart:
		verdict = "worse"
	}
	change := 0.0
	if qb[1] != 0 {
		change = 100 * (qh[1] - qb[1]) / qb[1]
	}
	return fmt.Sprintf("%-34s %-34s %+7.1f%% %6s  %s",
		fmt.Sprintf("%.6g (%.6g–%.6g)", qb[1], qb[0], qb[2]), fmt.Sprintf("%.6g (%.6g–%.6g)", qh[1], qh[0], qh[2]),
		change, fmt.Sprintf("%d/%d", won, len(base)), verdict)
}
