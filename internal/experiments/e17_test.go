package experiments

import (
	"fmt"
	"slices"
	"testing"
)

// TestE17AutopilotHoldsSLOWhereStaticViolates pins the E17 reproduction
// shape: under the diurnal peak, static provisioning breaches the gold RPO
// target while the autopilot — sensing only the probed telemetry series —
// holds every declared target in both steady-state windows, and all three
// effectors demonstrably fire. The full cycle must close: lanes added at
// the peak edge are handed back at night, and admission caps end lifted.
func TestE17AutopilotHoldsSLOWhereStaticViolates(t *testing.T) {
	// E17Autopilot itself fails unless the static run breaches the gold
	// target at peak and the autopilot holds every target in both windows.
	tb, ap, err := E17Autopilot(1)
	if err != nil {
		t.Fatal(err)
	}
	violates, holds := cell[bool](t, tb, "static violates target", "static"), cell[bool](t, tb, "autopilot holds every target", "autopilot")
	if !violates || !holds {
		t.Errorf("acceptance verdicts wrong:\n%s", tb)
	}
	// Every effector fired, in both directions where a direction exists.
	if ups := cell[pair](t, tb, "decisions: reshard up/down", "autopilot"); ups[0] == 0 || ups[1] == 0 {
		t.Errorf("reshard loop did not close: up / down = %v", ups)
	}
	if derates := cell[pair](t, tb, "decisions: derate/restore", "autopilot"); derates[0] == 0 || derates[1] == 0 {
		t.Errorf("admission loop did not close: derate / restore = %v", derates)
	}
	if cell[int](t, tb, "decisions: lane placements", "autopilot") == 0 {
		t.Errorf("placement policy never placed a lane")
	}
	// The give-back is real: every gold tenant ends the run back at one lane.
	for i, lanes := range cell[[]int](t, tb, "gold lanes at end", "autopilot") {
		if lanes != 1 {
			t.Errorf("gold-%d ended with %d lanes, want 1 (scale-down incomplete)", i, lanes)
		}
	}
	// Derating must not have starved bulk outright: the shed class still
	// moved the same bytes the static run did (caps defer, not drop).
	auto, static := cell[int64](t, tb, "bulk bytes drained", "autopilot"), cell[int64](t, tb, "bulk bytes drained", "static")
	if auto != static {
		t.Errorf("autopilot changed bulk's delivered bytes: %d vs static %d", auto, static)
	}
	log := ap.FormatLog()
	if len(ap.Decisions()) == 0 || log == "" {
		t.Error("no decision log recorded")
	}
	t.Log("\n" + tb.String() + "\n" + log)
}

// TestAutopilotDeterminism pins the control plane's determinism claim: the
// same E17 world, run twice from one seed in one process, yields a
// BYTE-identical decision log and an identical (at, seq) kernel trace. Map
// iteration order differs from run to run, so any sensing or actuation that
// leaned on it would show here.
func TestAutopilotDeterminism(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			_, apA, sysA, err := e17Run(seed, true, true)
			if err != nil {
				t.Fatal(err)
			}
			_, apB, sysB, err := e17Run(seed, true, true)
			if err != nil {
				t.Fatal(err)
			}
			logA, logB := apA.FormatLog(), apB.FormatLog()
			if logA == "" {
				t.Fatal("first run made no decisions — determinism test degenerate")
			}
			if logA != logB {
				t.Fatalf("decision log diverged between runs:\nfirst:\n%s\nsecond:\n%s", logA, logB)
			}
			if ta, tb := sysA.Env.Trace(), sysB.Env.Trace(); !slices.Equal(ta, tb) {
				t.Fatalf("kernel traces of %d and %d steps diverged between runs", len(ta), len(tb))
			}
		})
	}
}
