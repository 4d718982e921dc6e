// Command experiments regenerates every table/figure of the reproduction
// (E1-E18; DESIGN.md carries the experiment index). Select a subset with
// -run.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/experiments"
)

// experiment is one catalog entry: its -run ID and the step that prints its
// tables.
type experiment struct {
	id  string
	run func() error
}

// printTable prints t, or passes on the error that stopped its experiment.
func printTable(t *experiments.Table, err error) error {
	if err != nil {
		return err
	}
	fmt.Println(t)
	return nil
}

// show returns the step that prints a result as table, or passes on the
// error that stopped the result.
func show[R any](table func(R) *experiments.Table) func(R, error) error {
	return func(res R, err error) error {
		if err != nil {
			return err
		}
		return printTable(table(res), nil)
	}
}

// catalog lists every experiment in the order -run all prints them. quick
// shrinks the sweeps; telemetryOut and decisionsOut name E16's and E17's
// artifact files ("" writes none).
func catalog(seed int64, quick bool, telemetryOut, decisionsOut string) []experiment {
	size := func(full, fast int) int {
		if quick {
			return fast
		}
		return full
	}
	orders, trials := size(200, 60), size(25, 8)
	return []experiment{
		{"e1", func() error { return show(experiments.E1Table)(experiments.E1EndToEnd(seed, orders)) }},
		{"e2", func() error {
			return show(experiments.E2Table)(experiments.E2Operator(seed, []int{2, 8, 32, 128}))
		}},
		{"e3", func() error {
			return show(experiments.E3Table)(experiments.E3SnapshotGroup(seed, []int{2, 4, 8}, []float64{0, 0.1, 0.5, 1.0}))
		}},
		{"e4", func() error { return show(experiments.E4Table)(experiments.E4Analytics(seed, orders)) }},
		{"e5", func() error {
			rtts := []time.Duration{
				200 * time.Microsecond, time.Millisecond, 2 * time.Millisecond,
				10 * time.Millisecond, 20 * time.Millisecond, 100 * time.Millisecond,
			}
			return printTable(experiments.E5Slowdown(seed, rtts, orders))
		}},
		{"e6", func() error {
			return printTable(experiments.E6Collapse(seed*1000, trials, 300, experiments.ModeADC, experiments.ModeADCNoCG))
		}},
		{"e7", func() error {
			rtts := []time.Duration{2 * time.Millisecond, 10 * time.Millisecond, 40 * time.Millisecond}
			bws := []float64{2e5, 1e6, 1e7, 1e9}
			return printTable(experiments.E7RPO(seed, rtts, bws, 400*time.Millisecond))
		}},
		{"e8", func() error {
			return printTable(experiments.E8Recovery(seed, []int{20, 50, 100, 200, 400}, []int{200, 220, 240, 260}))
		}},
		{"e10", func() error { return printTable(experiments.E10Failback(seed, []int{10, 50, 200, 800})) }},
		{"e11", func() error {
			return show(experiments.E11Table)(experiments.E11FleetScale(seed, size(100, 24), 8))
		}},
		{"e12", func() error {
			return show(experiments.E12Table)(experiments.E12Interference(seed, size(40, 20)))
		}},
		{"e13", func() error {
			return show(experiments.E13Table)(experiments.E13ShardedThroughput(seed, []int{1, 2, 4, 8}, size(4000, 1500)))
		}},
		{"e14", func() error {
			return show(experiments.E14Table)(experiments.E14Elasticity(seed, size(24, 10), size(10, 8)))
		}},
		{"e15", func() error { return show(experiments.E15Table)(experiments.E15Reshard(seed, size(6000, 2000))) }},
		{"e16", func() error {
			res, err := experiments.E16Observability(seed, size(16, 8), size(12, 8))
			if err := show(experiments.E16Table)(res, err); err != nil || telemetryOut == "" {
				return err
			}
			data, err := res.Registry.ExportJSON()
			if err == nil {
				err = os.WriteFile(telemetryOut, data, 0o644)
			}
			if err != nil {
				return fmt.Errorf("telemetry export: %w", err)
			}
			fmt.Printf("telemetry export written to %s (%d bytes; open in Perfetto / chrome://tracing)\n\n",
				telemetryOut, len(data))
			return nil
		}},
		{"e17", func() error {
			res, err := experiments.E17Autopilot(seed)
			if err := show(experiments.E17Table)(res, err); err != nil {
				return err
			}
			if !res.StaticViolates || !res.AutoHolds {
				return fmt.Errorf("acceptance shape broke: staticViolates=%v autoHolds=%v",
					res.StaticViolates, res.AutoHolds)
			}
			if decisionsOut == "" {
				return nil
			}
			if err := os.WriteFile(decisionsOut, []byte(res.DecisionLog), 0o644); err != nil {
				return fmt.Errorf("decision log: %w", err)
			}
			fmt.Printf("autopilot decision log written to %s (%d decisions)\n\n", decisionsOut, len(res.Decisions))
			return nil
		}},
		{"e18", func() error {
			return show(experiments.E18Table)(experiments.E18PipeFill(seed, []int{1, 4, 16}, size(6144, 2048)))
		}},
		{"e9", func() error {
			if err := printTable(experiments.E9BatchSweep(seed, []int{1, 4, 16, 64, 256}, orders)); err != nil {
				return err
			}
			if err := printTable(experiments.E9CGScale(seed, []int{2, 4, 8, 16, 32}, 30)); err != nil {
				return err
			}
			return printTable(experiments.E9SkewSweep(seed, []float64{-1, 1.1, 1.5, 2.5}, orders))
		}},
	}
}

func main() {
	run := flag.String("run", "all", "comma-separated experiment IDs (e1,e2,...,e18) or 'all'")
	seed := flag.Int64("seed", 1, "base simulation seed")
	quick := flag.Bool("quick", false, "smaller sweeps for a fast pass")
	telemetryOut := flag.String("telemetry", "", "write E16's telemetry export (Chrome trace-event JSON) to this path")
	decisionsOut := flag.String("decisions", "", "write E17's autopilot decision log to this path")
	flag.Parse()

	cat := catalog(*seed, *quick, *telemetryOut, *decisionsOut)
	want := map[string]bool{}
	for _, id := range strings.Split(strings.ToLower(*run), ",") {
		id = strings.TrimSpace(id)
		if id != "all" && !slices.ContainsFunc(cat, func(e experiment) bool { return e.id == id }) {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q; -run takes e1..e18 or all\n", id)
			os.Exit(2)
		}
		want[id] = true
	}
	for _, e := range cat {
		if want["all"] || want[e.id] {
			if err := e.run(); err != nil {
				log.Fatalf("%s: %v", strings.ToUpper(e.id), err)
			}
		}
	}
}
