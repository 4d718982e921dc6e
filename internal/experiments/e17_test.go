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
	res, err := E17Autopilot(1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.StaticViolates {
		t.Errorf("static run held the gold target (worst peak RPO %v vs target %v) — scenario too easy",
			res.Static.WorstPeakRPO, res.GoldTarget)
	}
	if !res.AutoHolds {
		t.Errorf("autopilot breached a target: peak %v, night %v vs target %v",
			res.Auto.WorstPeakRPO, res.Auto.WorstNightRPO, res.GoldTarget)
	}
	// Every effector fired, in both directions where a direction exists.
	if res.ReshardUps == 0 || res.ReshardDowns == 0 {
		t.Errorf("reshard loop did not close: ups=%d downs=%d", res.ReshardUps, res.ReshardDowns)
	}
	if res.Derates == 0 || res.Restores == 0 {
		t.Errorf("admission loop did not close: derates=%d restores=%d", res.Derates, res.Restores)
	}
	if res.Placings == 0 {
		t.Errorf("placement policy never placed a lane")
	}
	// The give-back is real: every gold tenant ends the run back at one lane.
	for i, lanes := range res.Auto.FinalLanes {
		if lanes != 1 {
			t.Errorf("gold-%d ended with %d lanes, want 1 (scale-down incomplete)", i, lanes)
		}
	}
	// Derating must not have starved bulk outright: the shed class still
	// moved the same bytes the static run did (caps defer, not drop).
	if res.Auto.BulkBytes != res.Static.BulkBytes {
		t.Errorf("autopilot changed bulk's delivered bytes: %d vs static %d",
			res.Auto.BulkBytes, res.Static.BulkBytes)
	}
	if len(res.Decisions) == 0 || res.DecisionLog == "" {
		t.Error("no decision log recorded")
	}
	t.Log("\n" + E17Table(res).String() + "\n" + res.DecisionLog)
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
