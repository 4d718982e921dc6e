// Command layerbench keeps the ledger of the layer benchmarks beside the
// packages under internal/. It reads `go test -bench -benchmem` output on
// stdin and either records it as a JSON ledger or checks it against one:
//
//	go test -run '^$' -bench . -benchmem -count 5 -benchtime 100ms ./internal/... > layer-bench.txt
//	go run ./cmd/layerbench -record BENCH_layers.json -commit "$(git rev-parse HEAD)" < layer-bench.txt
//	go run ./cmd/layerbench -check BENCH_layers.json < layer-bench.txt
//
// A row is one benchmark of one package, over the -count runs of it. Its
// exact columns are the median allocs/op and every custom metric the
// benchmark reports (simulated-time figures, equal in every run): the check
// fails when one of them differs from the ledger, when the median B/op moves
// more than 1%, or when a row is missing from either side. ns/op is recorded
// as the median and quartiles of the runs and only printed next to the
// ledger's. go test prints allocs/op and B/op as a run's total over b.N
// rounded down, so a run that overshoots b.N can read one allocation less
// (BenchmarkDispatch/window=4 read 2 in one of five); the median takes that
// out. A row named in inexact has an allocs/op and B/op that move from run
// to run on unchanged code: the check prints them and holds the row to its
// custom metrics.
//
// With -pairs it reads, instead, the runs of `make pairs`: one `base <json>`
// or `head <json>` line per run of either side's `benchmark -workload W`, the
// sides alternating which goes first, the i-th run of each side forming pair
// i. It prints each host-clock metric's medians, quartiles, change, pairs won
// and a sign-test verdict (pairVerdict), and fails when a simulation metric,
// attempted or failed differs between any two runs:
//
//	go run ./cmd/layerbench -pairs < runs.txt
//
// With -layer-pairs it reads the runs of `make layer-pairs`: go test's
// benchmark output of both sides' test binaries, each line prefixed `base `
// or `head `, and prints the same verdict per benchmark on ns/op, B/op and
// allocs/op; it fails when a custom metric differs between any two runs:
//
//	go run ./cmd/layerbench -layer-pairs < layer-pairs.txt
//
// Exit status is 1 when the check fails, 2 on a usage or input error.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// inexact names the rows whose allocs/op and B/op are not properties of the
// code alone, with the cause. It is the one place the cause is kept.
var inexact = map[string]string{
	"repro/internal/db.Replay/shop": "at about 1 MB per op a run's total also holds allocations that follow the GC cycles it spans, so allocs/op can read one more in some runs than in others, and B/op move by up to 1%",
}

// bytesBound is how far the median B/op may move, as a share of the ledger's.
const bytesBound = 0.01

type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

type row struct {
	Allocs  float64            `json:"allocs_per_op"`
	Bytes   float64            `json:"bytes_per_op"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
	NsOp    [3]float64         `json:"ns_per_op_q1_median_q3"`
}

type ledger struct {
	Host host            `json:"host"`
	Rows map[string]*row `json:"rows"`
}

// samples is one benchmark's runs as go test printed them.
type samples struct {
	allocs, bytes, ns []float64
	metrics           map[string][]float64
}

func main() {
	record := flag.String("record", "", "write the ledger of the benchmark output on stdin to this file")
	check := flag.String("check", "", "check the benchmark output on stdin against this ledger")
	commit := flag.String("commit", "unknown", "with -record: the revision the output was measured on")
	pairs := flag.Bool("pairs", false, "compare the base and head benchmark runs on stdin pair by pair")
	layerPairs := flag.Bool("layer-pairs", false, "compare the base and head go test benchmark runs on stdin pair by pair")
	flag.Parse()
	switch {
	case *pairs:
		base, head, err := readPairs(os.Stdin)
		if err != nil {
			fmt.Fprintln(os.Stderr, "layerbench:", err)
			os.Exit(2)
		}
		if !comparePairs(os.Stdout, base, head) {
			os.Exit(1)
		}
		return
	case *layerPairs:
		base, head, err := readLayerPairs(os.Stdin)
		if err != nil {
			fmt.Fprintln(os.Stderr, "layerbench:", err)
			os.Exit(2)
		}
		if !compareLayerPairs(os.Stdout, base, head) {
			os.Exit(1)
		}
		return
	}
	if (*record == "") == (*check == "") {
		fmt.Fprintln(os.Stderr, "layerbench: give exactly one of -record FILE, -check FILE, -pairs and -layer-pairs")
		os.Exit(2)
	}
	got, h, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "layerbench:", err)
		os.Exit(2)
	}
	h.Commit = *commit
	if *record != "" {
		if err := write(*record, summarize(got, h)); err != nil {
			fmt.Fprintln(os.Stderr, "layerbench:", err)
			os.Exit(2)
		}
		fmt.Printf("layerbench: recorded %d rows in %s\n", len(got), *record)
		return
	}
	var want ledger
	data, err := os.ReadFile(*check)
	if err == nil {
		err = json.Unmarshal(data, &want)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "layerbench:", err)
		os.Exit(2)
	}
	if !compare(os.Stdout, want, got) {
		os.Exit(1)
	}
}

// benchLine matches a result line: name, iterations, and the value-unit
// pairs. go test ends the name with -GOMAXPROCS when that is above 1.
var benchLine = regexp.MustCompile(`^Benchmark(\S+)\s+\d+\s+(.*)$`)

// parse reads go test's benchmark output into samples keyed by
// "<package>.<benchmark>", and the host it names.
func parse(r io.Reader) (map[string]*samples, host, error) {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	got := map[string]*samples{}
	pkg, procs := "", ""
	if h.GOMAXPROCS > 1 {
		procs = "-" + strconv.Itoa(h.GOMAXPROCS)
	}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = v
			continue
		}
		if v, ok := strings.CutPrefix(line, "cpu: "); ok {
			h.CPUModel = v
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		key := pkg + "." + strings.TrimSuffix(m[1], procs)
		s := got[key]
		if s == nil {
			s = &samples{metrics: map[string][]float64{}}
			got[key] = s
		}
		f := strings.Fields(m[2])
		for i := 0; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, h, fmt.Errorf("%s: %q: %v", key, f[i], err)
			}
			switch unit := f[i+1]; unit {
			case "ns/op":
				s.ns = append(s.ns, v)
			case "B/op":
				s.bytes = append(s.bytes, v)
			case "allocs/op":
				s.allocs = append(s.allocs, v)
			default:
				s.metrics[unit] = append(s.metrics[unit], v)
			}
		}
		if len(s.allocs) != len(s.ns) || len(s.bytes) != len(s.ns) {
			return nil, h, fmt.Errorf("%s: a run without -benchmem columns", key)
		}
	}
	if len(got) == 0 {
		return nil, h, fmt.Errorf("no benchmark results on stdin")
	}
	return got, h, sc.Err()
}

// quartiles returns q1, the median and q3 of xs.
func quartiles(xs []float64) [3]float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(math.Floor(pos))
		hi := min(lo+1, len(s)-1)
		return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}

func summarize(got map[string]*samples, h host) ledger {
	l := ledger{Host: h, Rows: map[string]*row{}}
	for key, s := range got {
		r := &row{
			Allocs: quartiles(s.allocs)[1],
			Bytes:  quartiles(s.bytes)[1],
			NsOp:   quartiles(s.ns),
		}
		for unit, vs := range s.metrics {
			if r.Metrics == nil {
				r.Metrics = map[string]float64{}
			}
			r.Metrics[unit] = quartiles(vs)[1]
		}
		l.Rows[key] = r
	}
	return l
}

func write(path string, l ledger) error {
	data, err := json.MarshalIndent(l, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// compare prints one line per row, the ledger's figures against the run's,
// and reports whether every exact column held.
func compare(w io.Writer, want ledger, got map[string]*samples) bool {
	keys := make([]string, 0, len(want.Rows)+len(got))
	for k := range want.Rows {
		keys = append(keys, k)
	}
	for k := range got {
		if want.Rows[k] == nil {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	ok := true
	for _, k := range keys {
		r, s, cause := want.Rows[k], got[k], inexact[k]
		var fails []string
		switch {
		case r == nil:
			fails = append(fails, "not in the ledger (re-record it)")
		case s == nil:
			fails = append(fails, "not in this run")
		default:
			if a := quartiles(s.allocs)[1]; cause == "" && a != r.Allocs {
				fails = append(fails, fmt.Sprintf("allocs/op %v (runs %v), ledger %v", a, s.allocs, r.Allocs))
			}
			if b := quartiles(s.bytes)[1]; cause == "" && math.Abs(b-r.Bytes) > bytesBound*r.Bytes {
				fails = append(fails, fmt.Sprintf("B/op %v, ledger %v (bound %v%%)", b, r.Bytes, 100*bytesBound))
			}
			for unit, v := range r.Metrics {
				if vs := s.metrics[unit]; len(vs) == 0 || slices.ContainsFunc(vs, func(x float64) bool { return x != v }) {
					fails = append(fails, fmt.Sprintf("%s %v, ledger %v", unit, vs, v))
				}
			}
			for unit := range s.metrics {
				if _, known := r.Metrics[unit]; !known {
					fails = append(fails, fmt.Sprintf("%s not in the ledger", unit))
				}
			}
		}
		verdict := "exact"
		if len(fails) > 0 {
			verdict, ok = "FAIL: "+strings.Join(fails, "; "), false
		} else if cause != "" {
			verdict = fmt.Sprintf("allocs/op %v, B/op %v not gated: %s", s.allocs, s.bytes, cause)
		}
		fmt.Fprintf(w, "%-60s %s  %s\n", k, nsColumn(r, s), verdict)
	}
	return ok
}

// nsColumn prints the median ns/op of the ledger and of the run, with the
// run's quartiles: a figure to read, never a verdict.
func nsColumn(r *row, s *samples) string {
	ledger, run := "-", "-"
	if r != nil {
		ledger = fmt.Sprintf("%.4g", r.NsOp[1])
	}
	if s != nil {
		q := quartiles(s.ns)
		run = fmt.Sprintf("%.4g (%.4g–%.4g)", q[1], q[0], q[2])
	}
	return fmt.Sprintf("ns/op %s → %s", ledger, run)
}
