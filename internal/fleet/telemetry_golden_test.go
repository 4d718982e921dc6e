package fleet

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// runTelemetryFleet runs one churn schedule with the telemetry plane on and
// returns the full export bytes.
func runTelemetryFleet(t *testing.T, cfg Config) []byte {
	t.Helper()
	cfg.System.Telemetry = &telemetry.Config{SamplePeriod: 500 * time.Millisecond}
	f := New(cfg)
	if err := f.Run(); err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	export, err := f.Sys.Telemetry.ExportJSON()
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	return export
}

// TestFleetTelemetryExportParallelMatchesSequential pins the telemetry
// plane's core determinism claim: a churning fleet run twice from one seed
// in one process produces BYTE-identical telemetry exports — every probe
// sample, span boundary, histogram percentile, and counter, in identical
// order. Probes sample from the scheduler's advance hook (outside any
// instant) and all other recording happens on the scheduler's single thread
// of control, so nothing but the seed decides any of it.
func TestFleetTelemetryExportParallelMatchesSequential(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := goldenConfig(seed)
			a, b := runTelemetryFleet(t, cfg), runTelemetryFleet(t, cfg)
			if !bytes.Equal(a, b) {
				i := 0
				for i < len(a) && i < len(b) && a[i] == b[i] {
					i++
				}
				lo := max(0, i-80)
				t.Fatalf("telemetry export diverged between runs at byte %d:\nfirst:  ...%s\nsecond: ...%s",
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
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := goldenConfig(seed)
			cfg.System.Telemetry = nil
			cfgOn := cfg
			cfgOn.System.Telemetry = &telemetry.Config{SamplePeriod: 500 * time.Millisecond}
			sameRun(t, [2]string{"telemetry-off", "telemetry-on"}, runGoldenFleet(t, cfg), runGoldenFleet(t, cfgOn))
		})
	}
}
