package fleet

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// runTelemetryFleet runs one churn schedule with the telemetry plane on and
// returns the full export bytes plus the kernel trace.
func runTelemetryFleet(t *testing.T, cfg Config, workers int) ([]byte, []sim.TraceEntry) {
	t.Helper()
	cfg.Workers = workers
	cfg.System.Telemetry = &telemetry.Config{SamplePeriod: 500 * time.Millisecond}
	f := New(cfg)
	f.Sys.Env.StartTrace()
	if err := f.Run(); err != nil {
		t.Fatalf("fleet run (workers=%d): %v", workers, err)
	}
	export, err := f.Sys.Telemetry.ExportJSON()
	if err != nil {
		t.Fatalf("export (workers=%d): %v", workers, err)
	}
	return export, f.Sys.Env.Trace()
}

// TestFleetTelemetryExportParallelMatchesSequential pins the telemetry
// plane's core determinism claim: a churning fleet run on the sequential
// scheduler and on 4 workers produces BYTE-identical telemetry exports —
// every probe sample, span boundary, histogram percentile, and counter, in
// identical order. Probes sample from the scheduler's advance hook (outside
// any instant) and all other recording happens on domain-0 steps, so the
// parallel scheduler cannot reorder any of it.
func TestFleetTelemetryExportParallelMatchesSequential(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := goldenConfig(seed)
			seqExport, _ := runTelemetryFleet(t, cfg, 1)
			parExport, _ := runTelemetryFleet(t, cfg, 4)
			if !bytes.Equal(seqExport, parExport) {
				a, b := seqExport, parExport
				i := 0
				for i < len(a) && i < len(b) && a[i] == b[i] {
					i++
				}
				lo := max(0, i-80)
				t.Fatalf("telemetry export diverged between schedulers at byte %d:\nsequential: ...%s\nparallel:   ...%s",
					i, a[lo:min(len(a), i+80)], b[lo:min(len(b), i+80)])
			}
		})
	}
}

// TestFleetTelemetryDoesNotPerturbTrace pins the zero-cost claim's other
// half: enabling the telemetry plane must not change the simulation. The
// same schedule runs with telemetry off and on; the (at, seq) kernel traces
// and per-tenant outcomes must be identical — sampling happens between
// instants, consumes no sequence numbers, and schedules no events.
func TestFleetTelemetryDoesNotPerturbTrace(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := goldenConfig(seed)
			cfg.System.Telemetry = nil
			offTrace, offOuts, offEnd, _ := runGoldenFleet(t, cfg, 1)
			cfgOn := cfg
			cfgOn.System.Telemetry = &telemetry.Config{SamplePeriod: 500 * time.Millisecond}
			onTrace, onOuts, onEnd, _ := runGoldenFleet(t, cfgOn, 1)
			if offEnd != onEnd {
				t.Fatalf("end time diverged: telemetry-off %v, telemetry-on %v", offEnd, onEnd)
			}
			if len(offTrace) != len(onTrace) {
				t.Fatalf("trace length diverged: telemetry-off %d, telemetry-on %d", len(offTrace), len(onTrace))
			}
			for i := range offTrace {
				if offTrace[i] != onTrace[i] {
					t.Fatalf("trace diverged at step %d: off %+v, on %+v", i, offTrace[i], onTrace[i])
				}
			}
			for i := range offOuts {
				if offOuts[i] != onOuts[i] {
					t.Fatalf("tenant %s outcome diverged:\noff: %+v\non:  %+v",
						offOuts[i].Namespace, offOuts[i], onOuts[i])
				}
			}
		})
	}
}
