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
// out.
//
// With -pairs it reads, instead, the runs of `make pairs` or `make
// layer-pairs`: each line of either side's runs prefixed `base ` or `head `,
// the i-th run of each side forming pair i. A side is go test's benchmark
// output, or `benchmark -workload W` output whose final JSON lines make one
// row named benchmark. Per row it prints each judged column's medians,
// quartiles, change, pairs won and sign-test verdict (pairVerdict), and fails
// when another column differs between two runs or is in more runs of one
// side, or when a benchmark run was not correct:
//
//	go run ./cmd/layerbench -pairs < pairs.txt
//
// Exit status is 1 when the check fails, 2 on a usage or input error.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

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

// samples is one row's runs: each column's value in every run, in the order
// the runs printed it.
type samples map[string][]float64

// judged are the columns read off the host clock and allocator, every one
// better lower: go test's and the benchmark's. They move from run to run, so
// a pair comparison judges them; every other column is a simulation metric,
// equal in every run, and the ledger keeps it under metrics.
var judged = []string{"ns/op", "B/op", "allocs/op", "wall_s", "setup_s", "allocs_per_op", "alloc_mb_per_op"}

func main() {
	record := flag.String("record", "", "write the ledger of the benchmark output on stdin to this file")
	check := flag.String("check", "", "check the benchmark output on stdin against this ledger")
	commit := flag.String("commit", "unknown", "with -record: the revision the output was measured on")
	pairs := flag.Bool("pairs", false, "compare the base and head runs on stdin pair by pair")
	flag.Parse()
	if *pairs {
		base, head, err := readPairs(os.Stdin)
		exitOn(err)
		if !comparePairs(os.Stdout, base, head) {
			os.Exit(1)
		}
		return
	}
	if (*record == "") == (*check == "") {
		exitOn(errors.New("give exactly one of -record FILE, -check FILE and -pairs"))
	}
	got, h, err := parse(os.Stdin)
	exitOn(err)
	h.Commit = *commit
	if *record != "" {
		exitOn(write(*record, summarize(got, h)))
		fmt.Printf("layerbench: recorded %d rows in %s\n", len(got), *record)
		return
	}
	var want ledger
	data, err := os.ReadFile(*check)
	exitOn(err)
	exitOn(json.Unmarshal(data, &want))
	if !compare(os.Stdout, want, got) {
		os.Exit(1)
	}
}

// exitOn ends the program with status 2, a usage or input error, when err is
// not nil.
func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "layerbench:", err)
		os.Exit(2)
	}
}

// benchLine matches a result line: name, iterations, and the value-unit
// pairs. go test ends the name with -GOMAXPROCS when that is above 1.
var benchLine = regexp.MustCompile(`^Benchmark(\S+)\s+\d+\s+(.*)$`)

// parse reads go test's benchmark output into samples keyed by
// "<package>.<benchmark>", and the host it names.
func parse(r io.Reader) (map[string]samples, host, error) {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	got := map[string]samples{}
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
			s = samples{}
			got[key] = s
		}
		f := strings.Fields(m[2])
		for i := 0; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, h, fmt.Errorf("%s: %q: %v", key, f[i], err)
			}
			s[f[i+1]] = append(s[f[i+1]], v)
		}
		if len(s["allocs/op"]) != len(s["ns/op"]) || len(s["B/op"]) != len(s["ns/op"]) {
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

func summarize(got map[string]samples, h host) ledger {
	l := ledger{Host: h, Rows: map[string]*row{}}
	for key, s := range got {
		r := &row{
			Allocs:  quartiles(s["allocs/op"])[1],
			Bytes:   quartiles(s["B/op"])[1],
			NsOp:    quartiles(s["ns/op"]),
			Metrics: map[string]float64{},
		}
		for unit, vs := range s {
			if !slices.Contains(judged, unit) {
				r.Metrics[unit] = quartiles(vs)[1]
			}
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
func compare(w io.Writer, want ledger, got map[string]samples) bool {
	ok := true
	for _, k := range keys(want.Rows, got) {
		r, s := want.Rows[k], got[k]
		var fails []string
		switch {
		case r == nil:
			fails = append(fails, "not in the ledger (re-record it)")
		case s == nil:
			fails = append(fails, "not in this run")
		default:
			if a := quartiles(s["allocs/op"])[1]; a != r.Allocs {
				fails = append(fails, fmt.Sprintf("allocs/op %v (runs %v), ledger %v", a, s["allocs/op"], r.Allocs))
			}
			if b := quartiles(s["B/op"])[1]; math.Abs(b-r.Bytes) > bytesBound*r.Bytes {
				fails = append(fails, fmt.Sprintf("B/op %v, ledger %v (bound %v%%)", b, r.Bytes, 100*bytesBound))
			}
			for unit, v := range r.Metrics {
				if vs := s[unit]; len(vs) == 0 || slices.ContainsFunc(vs, func(x float64) bool { return x != v }) {
					fails = append(fails, fmt.Sprintf("%s %v, ledger %v", unit, vs, v))
				}
			}
			for unit := range s {
				if _, known := r.Metrics[unit]; !known && !slices.Contains(judged, unit) {
					fails = append(fails, fmt.Sprintf("%s not in the ledger", unit))
				}
			}
		}
		verdict := "exact"
		if len(fails) > 0 {
			verdict, ok = "FAIL: "+strings.Join(fails, "; "), false
		}
		fmt.Fprintf(w, "%-60s %s  %s\n", k, nsColumn(r, s), verdict)
	}
	return ok
}

// keys returns the keys of a and b, sorted, each once.
func keys[A, B any](a map[string]A, b map[string]B) []string {
	ks := slices.Collect(maps.Keys(a))
	for k := range b {
		if _, in := a[k]; !in {
			ks = append(ks, k)
		}
	}
	slices.Sort(ks)
	return ks
}

// nsColumn prints the median ns/op of the ledger and of the run, with the
// run's quartiles: a figure to read, never a verdict.
func nsColumn(r *row, s samples) string {
	ledger, run := "-", "-"
	if r != nil {
		ledger = fmt.Sprintf("%.4g", r.NsOp[1])
	}
	if s != nil {
		q := quartiles(s["ns/op"])
		run = fmt.Sprintf("%.4g (%.4g–%.4g)", q[1], q[0], q[2])
	}
	return fmt.Sprintf("ns/op %s → %s", ledger, run)
}
