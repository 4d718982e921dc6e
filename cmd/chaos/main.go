// Command chaos runs seeded randomized fault schedules against the
// deterministic kernel and checks the global invariants after every
// recovery point.
//
// Sweep mode (the default) runs a contiguous range of seeds in parallel:
//
//	go run ./cmd/chaos -seeds 500 -steps short
//
// Every failing seed prints a one-line repro and, unless -shrink=false, the
// minimal failing sub-schedule. Repro mode replays a single seed, prints
// its full deterministic log, and verifies that a second run of the same
// seed is byte-identical:
//
//	go run ./cmd/chaos -steps short -seed 42
//
// With -simprofile FILE, repro mode also writes the seed's simulated-time
// profile (a gzip'd profile.proto, labelled by process and tenant):
//
//	go run ./cmd/chaos -steps medium -seed 42 -simprofile seed42.sim.pprof
//	go tool pprof -top -tagfocus tenant=chaos-00 seed42.sim.pprof
//
// -cpuprofile FILE and -exectrace FILE write a runtime CPU profile and a
// runtime execution trace of the run, in either mode; both are off by default.
//
// Exit status is 1 if any seed fails, 0 otherwise.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"

	"repro/internal/chaos"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func main() {
	var (
		seed    = flag.Int64("seed", -1, "replay a single seed and print its full log (repro mode)")
		seeds   = flag.Int("seeds", 100, "number of seeds to sweep")
		base    = flag.Int64("base", 1, "first seed of the sweep")
		steps   = flag.String("steps", "short", "schedule preset: "+strings.Join(chaos.Steps(), "|"))
		shrink  = flag.Bool("shrink", true, "shrink failing schedules to a minimal failing subset")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "parallel runs (each seed gets its own kernel)")
		logPath = flag.String("log", "", "write failing-seed repro logs to this file (for CI artifacts)")
		plant   = flag.Bool("plant", false, "plant a backup corruption in every schedule (self-test: all seeds must fail and shrink)")
		verbose = flag.Bool("v", false, "print every seed's summary, not just failures")
		simprof = flag.String("simprofile", "", "with -seed: write the seed's simulated-time profile to this file")
		cpuprof = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		extrace = flag.String("exectrace", "", "write a runtime execution trace of the run to this file")
	)
	flag.Parse()

	if *seed < 0 && *simprof != "" {
		fmt.Fprintln(os.Stderr, "chaos: -simprofile needs -seed")
		os.Exit(2)
	}
	stop, err := telemetry.StartHostProfiles(*cpuprof, *extrace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		os.Exit(2)
	}
	status := 0
	if *seed >= 0 {
		status = repro(*seed, *steps, *plant, *shrink, *simprof)
	} else {
		status = sweep(*base, *seeds, *steps, *plant, *shrink, *workers, *logPath, *verbose)
	}
	if err := stop(); err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		status = 2
	}
	os.Exit(status)
}

// repro replays one seed, prints the full deterministic log, and checks
// that a second run is byte-identical. With simprofile set, the first run
// records its simulated-time profile and writes it there.
func repro(seed int64, steps string, plant, shrink bool, simprofile string) int {
	res, sr, err := runSeed(seed, steps, plant, shrink, simprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		return 2
	}
	fmt.Print(res.LogText())

	again, _, err := runSeed(seed, steps, plant, false, "")
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos: replay:", err)
		return 2
	}
	if again.LogText() != res.LogText() {
		fmt.Fprintln(os.Stderr, "chaos: REPLAY DIVERGED — the two runs of this seed differ")
		return 2
	}
	fmt.Printf("replay: byte-identical (%d log lines)\n", len(res.Log))

	if !res.Failed() {
		fmt.Printf("seed %d: clean — %d orders, %d checkpoints, %v sim time\n",
			seed, res.Orders, res.Checks, res.SimTime)
		return 0
	}
	fmt.Printf("seed %d: FAILED — repro: %s\n", seed, res.ReproLine())
	printShrink(os.Stdout, sr)
	return 1
}

type sweepResult struct {
	seed int64
	res  *chaos.Result
	sr   *chaos.ShrinkResult
	err  error
}

// sweep runs seeds [base, base+n) across workers and reports in seed order.
func sweep(base int64, n int, steps string, plant, shrink bool, workers int, logPath string, verbose bool) int {
	if workers < 1 {
		workers = 1
	}
	jobs := make(chan int, workers)
	results := make([]sweepResult, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				seed := base + int64(i)
				res, sr, err := runSeed(seed, steps, plant, shrink, "")
				results[i] = sweepResult{seed: seed, res: res, sr: sr, err: err}
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	var repros strings.Builder
	failed, orders, checks := 0, int64(0), 0
	for _, r := range results {
		if r.err != nil {
			fmt.Fprintf(os.Stderr, "chaos: seed %d: %v\n", r.seed, r.err)
			failed++
			continue
		}
		orders += r.res.Orders
		checks += r.res.Checks
		if !r.res.Failed() {
			if verbose {
				fmt.Printf("seed %d: clean — %d orders, %d checkpoints, %v sim time\n",
					r.seed, r.res.Orders, r.res.Checks, r.res.SimTime)
			}
			continue
		}
		failed++
		fmt.Printf("seed %d: FAILED — repro: %s\n", r.seed, r.res.ReproLine())
		for _, v := range r.res.Violations {
			fmt.Printf("  violation: %s\n", v)
		}
		if r.res.Err != nil {
			fmt.Printf("  error: %v\n", r.res.Err)
		}
		printShrink(os.Stdout, r.sr)
		repros.WriteString(r.res.ReproLine())
		repros.WriteByte('\n')
		repros.WriteString(r.res.LogText())
		if r.sr != nil {
			repros.WriteString("shrunk to:\n")
			repros.WriteString(r.sr.Minimal.String())
		}
		repros.WriteString("\n")
	}

	if logPath != "" && repros.Len() > 0 {
		if err := os.WriteFile(logPath, []byte(repros.String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "chaos: writing repro log:", err)
		} else {
			fmt.Printf("repro logs written to %s\n", logPath)
		}
	}

	fmt.Printf("swept %d seeds (%s): %d failed, %d orders, %d checkpoints\n",
		n, steps, failed, orders, checks)
	if plant {
		// Self-test inversion: with -plant every seed must fail.
		if failed == n {
			fmt.Printf("plant self-test: all %d planted seeds caught\n", n)
			return 0
		}
		fmt.Printf("plant self-test: only %d/%d planted seeds caught\n", failed, n)
		return 1
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// runSeed generates, runs, and (when asked and failing) shrinks one seed,
// writing the run's simulated-time profile to simprofile unless it is "".
func runSeed(seed int64, steps string, plant, shrink bool, simprofile string) (*chaos.Result, *chaos.ShrinkResult, error) {
	sch, err := chaos.Generate(seed, steps)
	if err != nil {
		return nil, nil, err
	}
	if plant {
		sch = sch.PlantCorruption()
	}
	var res *chaos.Result
	if simprofile == "" {
		res = chaos.Run(sch)
	} else {
		var samples []sim.ProfileSample
		res, samples = chaos.RunProfiled(sch)
		var buf bytes.Buffer
		if err := telemetry.WriteSimProfile(&buf, samples); err != nil {
			return nil, nil, err
		}
		if err := os.WriteFile(simprofile, buf.Bytes(), 0o644); err != nil {
			return nil, nil, err
		}
	}
	var sr *chaos.ShrinkResult
	if shrink && res.Failed() {
		s := chaos.Shrink(sch, 200)
		sr = &s
	}
	return res, sr, nil
}

func printShrink(w *os.File, sr *chaos.ShrinkResult) {
	if sr == nil {
		return
	}
	for _, line := range sr.Trace {
		fmt.Fprintf(w, "  shrink: %s\n", line)
	}
	for _, f := range sr.Minimal.Faults {
		fmt.Fprintf(w, "  minimal fault: %s\n", f)
	}
}
