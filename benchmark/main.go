// Command benchmark is this repo's measuring stick: five named workloads,
// the end-to-end metrics of BENCHMARK.json on two clocks (host wall time and
// simulated time), and a per-layer ledger measured from outside the system.
// README.md beside this file holds the tables.
//
//	go run ./benchmark -seed 1                      # full run: every workload, both passes, probes
//	go run ./benchmark -only shop_adc -out a.json   # one workload, report kept for -compare
//	go run ./benchmark -compare a.json b.json       # ok / worse / unresolved per (metric, workload)
//	go run ./benchmark --workload W --seed N --seconds S --trace 0|1   # the acceptance driver's call
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"sort"
)

type options struct {
	seed       int64
	workload   string
	only       string
	seconds    float64
	trace      int
	out        string
	artifacts  string
	cpuprofile string
	memprofile string
	exectrace  string
	compare    bool
	spec       bool
}

func main() {
	var o options
	flag.Int64Var(&o.seed, "seed", 1, "base seed: iteration i of every workload runs seed+i")
	flag.StringVar(&o.workload, "workload", "", "the acceptance driver's call: run one pass of this workload (see -trace) and end stdout with its one-line JSON result")
	flag.StringVar(&o.only, "only", "", "restrict the full run to this workload")
	flag.Float64Var(&o.seconds, "seconds", 0, "measure for this long instead of the workload's fixed iteration count")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 prints the end-to-end metrics (tracing off), 1 the per-layer metrics (traced pass and probes)")
	flag.StringVar(&o.out, "out", "", "write the run's report as JSON to this file (input of -compare)")
	flag.StringVar(&o.artifacts, "artifacts", "", "directory for the traced pass's CPU profile, span log and telemetry export")
	flag.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the measured pass to this file")
	flag.StringVar(&o.memprofile, "memprofile", "", "write a heap profile to this file when the run ends")
	flag.StringVar(&o.exectrace, "exectrace", "", "write a runtime execution trace of the measured pass to this file")
	flag.BoolVar(&o.compare, "compare", false, "compare two -out reports: benchmark -compare baseline.json candidate.json")
	flag.BoolVar(&o.spec, "spec", false, "print BENCHMARK.json as the metric and workload tables define it")
	flag.Parse()

	if err := run(o, flag.Args(), os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options, args []string, stdout io.Writer) error {
	if o.spec {
		js, err := benchmarkJSON()
		if err != nil {
			return err
		}
		_, err = stdout.Write(js)
		return err
	}
	if o.compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare needs two report files")
		}
		a, err := loadReport(args[0])
		if err != nil {
			return err
		}
		b, err := loadReport(args[1])
		if err != nil {
			return err
		}
		if compare(stdout, a, b) {
			return fmt.Errorf("at least one (metric, workload) row is worse than its bound allows")
		}
		return nil
	}
	if o.workload != "" {
		w := workloadByName(o.workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		if o.trace == 1 {
			return driverTraced(o, w, stdout)
		}
		return driverMeasured(o, w, stdout)
	}
	var selected []*workloadDef
	for i := range workloads {
		if o.only == "" || workloads[i].name == o.only {
			selected = append(selected, &workloads[i])
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown workload %q", o.only)
	}
	return fullRun(o, selected, stdout)
}

// profiled runs fn under the driver's own kopia-style profile handles.
func profiled(o options, fn func()) error {
	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if o.exectrace != "" {
		f, err := os.Create(o.exectrace)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rtrace.Start(f); err != nil {
			return err
		}
		defer rtrace.Stop()
	}
	fn()
	return nil
}

func writeHeapProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (o options) budget(w *workloadDef) budget {
	return budget{iters: w.iters, seconds: o.seconds}
}

// degraded says why a workload's row is not worth what it claims on this
// host ("" when it is).
func degraded(w *workloadDef, h hostInfo) string {
	if w.reference != nil && (h.NProc < 2 || h.GOMAXPROCS < 2) {
		return fmt.Sprintf("needs 2 processors, host has nproc %d, GOMAXPROCS %d", h.NProc, h.GOMAXPROCS)
	}
	return ""
}

// ---- the acceptance driver's two calls --------------------------------------

// driverLine is the one-line result the driver reads off the end of stdout.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printDriverLine(w io.Writer, ops, failed int, metrics map[string]driverValue) error {
	line, err := json.Marshal(driverLine{Correct: failed == 0, Attempted: ops, Failed: failed, Metrics: metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// driverMeasured is --trace 0: the measured pass, every end-to-end metric.
func driverMeasured(o options, w *workloadDef, stdout io.Writer) error {
	h := readHost()
	var r *result
	if err := profiled(o, func() { r = measure(w, fullScale, o.seed, o.budget(w)) }); err != nil {
		return err
	}
	e2e := r.endToEnd()
	printHeader(stdout, h, o.seed)
	printEndToEnd(stdout, w, r, e2e, degraded(w, h), false)
	metrics := map[string]driverValue{}
	for _, d := range endToEnd {
		metrics[d.name] = driverValue{Value: e2e[d.name].Value, Unit: d.unit}
	}
	if err := writeHeapProfile(o.memprofile); err != nil {
		return err
	}
	return printDriverLine(stdout, r.ops, r.failed, metrics)
}

// driverTraced is --trace 1: a few untraced iterations for the overhead
// baseline, the traced pass, and the layer probes; every per-layer metric.
func driverTraced(o options, w *workloadDef, stdout io.Writer) error {
	h := readHost()
	timeIteration(w, fullScale, o.seed, nil) // warm-up
	var refWall []float64
	var refKeys []string
	for i := 0; i < w.tracedIters; i++ {
		t := timeIteration(w, fullScale, o.seed+int64(i), nil)
		refWall, refKeys = append(refWall, t.wall), append(refKeys, t.out.simKey())
	}
	tp, err := tracedPass(w, fullScale, o.seed, w.tracedIters, refWall, refKeys)
	if err != nil {
		return err
	}
	if err := writeArtifacts(o.artifacts, w.name, tp); err != nil {
		return err
	}
	probed := runProbes(probeTime)
	layers := withLedger(tp.layers, probed, median(refWall))
	for k, v := range probed {
		layers[k] = v
	}
	printHeader(stdout, h, o.seed)
	printLayers(stdout, w.name, tp, layers)
	metrics := map[string]driverValue{}
	for _, d := range perLayer {
		metrics[d.name] = driverValue{Value: layers[d.name], Unit: d.unit}
	}
	return printDriverLine(stdout, tp.ops, tp.failed, metrics)
}

// withLedger copies one workload's traced-pass figures and adds the ledger
// coverage that prices its counts with the probes.
func withLedger(traced, probed map[string]float64, wallS float64) map[string]float64 {
	out := make(map[string]float64, len(traced)+len(probed)+1)
	for k, v := range traced {
		out[k] = v
	}
	out["host.ledger_coverage"] = ledgerCoverage(traced, probed, wallS)
	return out
}

// ledgerCoverage is the share of an iteration's raw wall time the probes
// explain when every counted operation is priced at its probe cost. Each
// priced operation's probe already contains the one kernel handoff the
// operation makes, so those handoffs come out of the kernel term. Block
// reads are left out: most are fused range reads, counted per block but
// paid per call, which no per-block probe prices.
func ledgerCoverage(c, ns map[string]float64, wallS float64) float64 {
	priced := c["platform.api_calls"] + c["storage.write_ops"] + c["netlink.transfers"]
	total := c["platform.api_calls"]*ns["platform.get_ns"] +
		c["storage.write_ops"]*ns["storage.write_ns"] +
		c["netlink.transfers"]*ns["netlink.transfer_ns"] +
		max(c["sim.handoffs"]-priced, 0)*ns["sim.handoff_ns"] +
		c["sim.inline_steps"]*ns["sim.inline_ns"] +
		c["sim.timer_cancels"]*ns["sim.timer_ns"]
	return ratio(total/1e9, wallS)
}

// ---- the full run -------------------------------------------------------------

func fullRun(o options, selected []*workloadDef, stdout io.Writer) error {
	h := readHost()
	rep := &report{Host: h, Seed: o.seed, Workloads: map[string]*workloadReport{}}
	printHeader(stdout, h, o.seed)

	results := map[string]*result{}
	err := profiled(o, func() {
		for _, w := range selected {
			r := measure(w, fullScale, o.seed, o.budget(w))
			results[w.name] = r
			// fleet_par claims nothing unless its simulated outcome is
			// fleet_seq's, iteration for iteration.
			if seq := results["fleet_seq"]; w.name == "fleet_par" && seq != nil {
				for i := 0; i < min(len(r.keys), len(seq.keys)); i++ {
					r.mismatch(fmt.Sprintf("fleet_par vs fleet_seq, iteration %d", i), seq.keys[i], r.keys[i])
				}
			}
			e2e := r.endToEnd()
			wr := &workloadReport{Iterations: len(r.wall), HostFactor: r.hostFactor(), Ops: r.ops, FailedOps: r.failed, Errors: r.errs,
				Degraded: degraded(w, h), EndToEnd: map[string]metricOut{}}
			for _, d := range reported {
				if d.applies(w.name) {
					wr.EndToEnd[d.name] = e2e[d.name]
				}
			}
			rep.Workloads[w.name] = wr
			printEndToEnd(stdout, w, r, e2e, wr.Degraded, true)
		}
	})
	if err != nil {
		return err
	}

	rep.Probes = runProbes(probeTime)
	printProbes(stdout, rep.Probes)
	for _, w := range selected {
		r := results[w.name]
		n := min(w.tracedIters, len(r.wall))
		tp, err := tracedPass(w, fullScale, o.seed, n, r.wall[:n], r.keys[:n])
		if err != nil {
			return err
		}
		if err := writeArtifacts(o.artifacts, w.name, tp); err != nil {
			return err
		}
		wr := rep.Workloads[w.name]
		wr.Ops, wr.FailedOps = wr.Ops+tp.ops, wr.FailedOps+tp.failed
		wr.Errors = append(wr.Errors, tp.errs...)
		wr.EndToEnd[failShare.name] = metricOut{Value: ratio(float64(wr.FailedOps), float64(wr.Ops)), Unit: failShare.unit, N: wr.Ops}
		layers := withLedger(tp.layers, rep.Probes, median(r.wall))
		wr.PerLayer = layers
		printLayers(stdout, w.name, tp, layers)
	}

	failed := 0
	for _, wr := range rep.Workloads {
		failed += wr.FailedOps
	}
	fmt.Fprintf(stdout, "\nfail_share is 0 on every workload: %v\n", failed == 0)
	if o.out != "" {
		js, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(js, '\n'), 0o644); err != nil {
			return err
		}
	}
	return writeHeapProfile(o.memprofile)
}

// writeArtifacts leaves the traced pass's raw material in dir (nothing
// lands anywhere by default).
func writeArtifacts(dir, workload string, tp *traced) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	spans, err := json.Marshal(tp.spans)
	if err != nil {
		return err
	}
	for name, data := range map[string][]byte{
		workload + ".cpu.pprof":      tp.profile,
		workload + ".spans.json":     spans,
		workload + ".telemetry.json": tp.export,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// ---- printing -----------------------------------------------------------------

func printHeader(w io.Writer, h hostInfo, seed int64) {
	fmt.Fprintf(w, "benchmark seed=%d nproc=%d GOMAXPROCS=%d GOGC=%s %s cpu=%q commit=%s\n",
		seed, h.NProc, h.GOMAXPROCS, h.GOGC, h.GoVersion, h.CPUModel, h.Commit)
}

// printEndToEnd prints one workload's measured pass. onlyDefined drops the
// pairs the issue leaves undefined (a full run); the driver's call keeps
// them, with the generalised measurements.
func printEndToEnd(w io.Writer, def *workloadDef, r *result, e2e map[string]metricOut, degraded string, onlyDefined bool) {
	fmt.Fprintf(w, "\n== %s: %d timed iterations, ops=%d failed_ops=%d\n", def.name, len(r.wall), r.ops, r.failed)
	fmt.Fprintf(w, "   host factor %.4f (calibration median %.3f ms, reference %.0f ms); raw median wall %.6f s\n",
		r.hostFactor(), 1e3*median(r.cal), 1e3*calNominal, median(r.wall))
	if degraded != "" {
		fmt.Fprintf(w, "   DEGRADED: %s\n", degraded)
	}
	for _, e := range r.errs {
		fmt.Fprintf(w, "   failed: %s\n", e)
	}
	for _, d := range reported {
		if onlyDefined && !d.applies(def.name) {
			continue
		}
		m := e2e[d.name]
		fmt.Fprintf(w, "   %-20s %14.6f %-7s n=%d", d.name, m.Value, d.unit, m.N)
		if m.Q1 != 0 || m.Q3 != 0 {
			fmt.Fprintf(w, " q1=%.6g q3=%.6g", m.Q1, m.Q3)
		}
		if m.TailP > 0 {
			fmt.Fprintf(w, " p%g=%.6g", m.TailP, m.Tail)
		}
		fmt.Fprintln(w)
	}
}

func printSorted(w io.Writer, m map[string]float64) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "   %-34s %16.6g %s\n", k, m[k], perLayerUnit[k])
	}
}

func printProbes(w io.Writer, probed map[string]float64) {
	fmt.Fprintf(w, "\n== layer probes (host ns per operation)\n")
	printSorted(w, probed)
}

func printLayers(w io.Writer, workload string, tp *traced, layers map[string]float64) {
	fmt.Fprintf(w, "\n== %s per layer: traced pass, base-seed counts, ops=%d failed_ops=%d, %d spans\n", workload, tp.ops, tp.failed, len(tp.spans))
	for _, e := range tp.errs {
		fmt.Fprintf(w, "   failed: %s\n", e)
	}
	printSorted(w, layers)
}
