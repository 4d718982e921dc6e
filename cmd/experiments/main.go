// Command experiments regenerates every table/figure of the reproduction
// (E1-E18; DESIGN.md carries the experiment index). Select a subset with
// -run.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
)

// knownID reports whether id names an experiment (e1..e18) or is "all".
func knownID(id string) bool {
	for n := 1; n <= 18; n++ {
		if id == "e"+strconv.Itoa(n) {
			return true
		}
	}
	return id == "all"
}

func main() {
	run := flag.String("run", "all", "comma-separated experiment IDs (e1,e2,...,e18) or 'all'")
	seed := flag.Int64("seed", 1, "base simulation seed")
	quick := flag.Bool("quick", false, "smaller sweeps for a fast pass")
	telemetryOut := flag.String("telemetry", "", "write E16's telemetry export (Chrome trace-event JSON) to this path")
	decisionsOut := flag.String("decisions", "", "write E17's autopilot decision log to this path")
	flag.Parse()

	want := map[string]bool{}
	for _, id := range strings.Split(strings.ToLower(*run), ",") {
		id = strings.TrimSpace(id)
		if !knownID(id) {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q; -run takes e1..e18 or all\n", id)
			os.Exit(2)
		}
		want[id] = true
	}
	all := want["all"]
	sel := func(id string) bool { return all || want[id] }

	orders := 200
	trials := 25
	if *quick {
		orders, trials = 60, 8
	}

	if sel("e1") {
		res, err := experiments.E1EndToEnd(*seed, orders)
		if err != nil {
			log.Fatalf("E1: %v", err)
		}
		fmt.Println(experiments.E1Table(res))
	}
	if sel("e2") {
		res, err := experiments.E2Operator(*seed, []int{2, 8, 32, 128})
		if err != nil {
			log.Fatalf("E2: %v", err)
		}
		fmt.Println(experiments.E2Table(res))
	}
	if sel("e3") {
		res, err := experiments.E3SnapshotGroup(*seed, []int{2, 4, 8}, []float64{0, 0.1, 0.5, 1.0})
		if err != nil {
			log.Fatalf("E3: %v", err)
		}
		fmt.Println(experiments.E3Table(res))
	}
	if sel("e4") {
		res, err := experiments.E4Analytics(*seed, orders)
		if err != nil {
			log.Fatalf("E4: %v", err)
		}
		fmt.Println(experiments.E4Table(res))
	}
	if sel("e5") {
		rtts := []time.Duration{
			200 * time.Microsecond, time.Millisecond, 2 * time.Millisecond,
			10 * time.Millisecond, 20 * time.Millisecond, 100 * time.Millisecond,
		}
		res, err := experiments.E5Slowdown(*seed, rtts, orders)
		if err != nil {
			log.Fatalf("E5: %v", err)
		}
		fmt.Println(experiments.E5Table(res))
	}
	if sel("e6") {
		cg, err := experiments.E6Collapse(*seed*1000, trials, 300, experiments.ModeADC)
		if err != nil {
			log.Fatalf("E6: %v", err)
		}
		noCG, err := experiments.E6Collapse(*seed*1000, trials, 300, experiments.ModeADCNoCG)
		if err != nil {
			log.Fatalf("E6: %v", err)
		}
		fmt.Println(experiments.E6Table([]experiments.CollapseResult{cg, noCG}))
	}
	if sel("e7") {
		rtts := []time.Duration{2 * time.Millisecond, 10 * time.Millisecond, 40 * time.Millisecond}
		bws := []float64{2e5, 1e6, 1e7, 1e9}
		res, err := experiments.E7RPO(*seed, rtts, bws, 400*time.Millisecond)
		if err != nil {
			log.Fatalf("E7: %v", err)
		}
		fmt.Println(experiments.E7Table(res))
	}
	if sel("e8") {
		cg, err := experiments.E8Recovery(*seed, []int{20, 50, 100, 200, 400}, experiments.ModeADC)
		if err != nil {
			log.Fatalf("E8: %v", err)
		}
		noCG, err := experiments.E8Recovery(*seed, []int{200, 220, 240, 260}, experiments.ModeADCNoCG)
		if err != nil {
			log.Fatalf("E8: %v", err)
		}
		fmt.Println(experiments.E8Table(append(cg, noCG...)))
	}
	if sel("e10") {
		res, err := experiments.E10Failback(*seed, []int{10, 50, 200, 800})
		if err != nil {
			log.Fatalf("E10: %v", err)
		}
		fmt.Println(experiments.E10Table(res))
	}
	if sel("e11") {
		tenants := 100
		if *quick {
			tenants = 24
		}
		res, err := experiments.E11FleetScale(*seed, tenants, 8)
		if err != nil {
			log.Fatalf("E11: %v", err)
		}
		fmt.Println(experiments.E11Table(res))
	}
	if sel("e12") {
		e12Orders := 40
		if *quick {
			e12Orders = 20
		}
		res, err := experiments.E12Interference(*seed, e12Orders)
		if err != nil {
			log.Fatalf("E12: %v", err)
		}
		fmt.Println(experiments.E12Table(res))
	}
	if sel("e13") {
		e13Writes := 4000
		if *quick {
			e13Writes = 1500
		}
		res, err := experiments.E13ShardedThroughput(*seed, []int{1, 2, 4, 8}, e13Writes)
		if err != nil {
			log.Fatalf("E13: %v", err)
		}
		fmt.Println(experiments.E13Table(res))
	}
	if sel("e14") {
		tenants, e14Orders := 24, 10
		if *quick {
			tenants, e14Orders = 10, 8
		}
		res, err := experiments.E14Elasticity(*seed, tenants, e14Orders)
		if err != nil {
			log.Fatalf("E14: %v", err)
		}
		fmt.Println(experiments.E14Table(res))
	}
	if sel("e15") {
		e15Writes := 6000
		if *quick {
			e15Writes = 2000
		}
		res, err := experiments.E15Reshard(*seed, e15Writes)
		if err != nil {
			log.Fatalf("E15: %v", err)
		}
		fmt.Println(experiments.E15Table(res))
	}
	if sel("e16") {
		tenants, e16Orders := 16, 12
		if *quick {
			tenants, e16Orders = 8, 8
		}
		res, err := experiments.E16Observability(*seed, tenants, e16Orders)
		if err != nil {
			log.Fatalf("E16: %v", err)
		}
		fmt.Println(experiments.E16Table(res))
		if *telemetryOut != "" {
			data, err := res.Registry.ExportJSON()
			if err != nil {
				log.Fatalf("E16: telemetry export: %v", err)
			}
			if err := os.WriteFile(*telemetryOut, data, 0o644); err != nil {
				log.Fatalf("E16: telemetry export: %v", err)
			}
			fmt.Printf("telemetry export written to %s (%d bytes; open in Perfetto / chrome://tracing)\n\n",
				*telemetryOut, len(data))
		}
	}
	if sel("e17") {
		res, err := experiments.E17Autopilot(*seed)
		if err != nil {
			log.Fatalf("E17: %v", err)
		}
		fmt.Println(experiments.E17Table(res))
		if !res.StaticViolates || !res.AutoHolds {
			log.Fatalf("E17: acceptance shape broke: staticViolates=%v autoHolds=%v",
				res.StaticViolates, res.AutoHolds)
		}
		if *decisionsOut != "" {
			if err := os.WriteFile(*decisionsOut, []byte(res.DecisionLog), 0o644); err != nil {
				log.Fatalf("E17: decision log: %v", err)
			}
			fmt.Printf("autopilot decision log written to %s (%d decisions)\n\n",
				*decisionsOut, len(res.Decisions))
		}
	}
	if sel("e18") {
		e18Writes := 6144
		if *quick {
			e18Writes = 2048
		}
		res, err := experiments.E18PipeFill(*seed, []int{1, 4, 16}, e18Writes)
		if err != nil {
			log.Fatalf("E18: %v", err)
		}
		fmt.Println(experiments.E18Table(res))
	}
	if sel("e9") {
		batch, err := experiments.E9BatchSweep(*seed, []int{1, 4, 16, 64, 256}, orders)
		if err != nil {
			log.Fatalf("E9a: %v", err)
		}
		fmt.Println(experiments.E9BatchTable(batch))
		cgScale, err := experiments.E9CGScale(*seed, []int{2, 4, 8, 16, 32}, 30)
		if err != nil {
			log.Fatalf("E9b: %v", err)
		}
		fmt.Println(experiments.E9CGScaleTable(cgScale))
		skew, err := experiments.E9SkewSweep(*seed, []float64{-1, 1.1, 1.5, 2.5}, orders)
		if err != nil {
			log.Fatalf("E9c: %v", err)
		}
		fmt.Println(experiments.E9SkewTable(skew))
	}
}
