package chaos

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestChaosSmokeSeeds runs a fixed handful of short schedules clean — the
// in-tree half of `make chaos-smoke` (the Makefile target drives the same
// seeds through cmd/chaos under -race).
func TestChaosSmokeSeeds(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		sch, err := Generate(seed, "short")
		if err != nil {
			t.Fatal(err)
		}
		res := Run(sch)
		if res.Failed() {
			t.Errorf("seed %d failed:\n%s", seed, res.LogText())
		}
		if res.Orders == 0 {
			t.Errorf("seed %d placed no orders", seed)
		}
		if res.Checks == 0 && len(sch.Faults) > 0 {
			t.Errorf("seed %d ran no checkpoints over %d faults", seed, len(sch.Faults))
		}
	}
}

// TestChaosReplayByteIdentical is the repro guarantee: generating and
// running the same seed twice yields byte-identical replay artifacts —
// schedule, fault log, violations, everything.
func TestChaosReplayByteIdentical(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		sch1, err := Generate(seed, "short")
		if err != nil {
			t.Fatal(err)
		}
		sch2, _ := Generate(seed, "short")
		a, b := Run(sch1).LogText(), Run(sch2).LogText()
		if a != b {
			t.Fatalf("seed %d replay diverged:\n--- first\n%s\n--- second\n%s", seed, a, b)
		}
	}
}

func TestGenerateDeterministicAndValid(t *testing.T) {
	a, err := Generate(99, "medium")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Generate(99, "medium")
	if a.String() != b.String() {
		t.Fatal("same seed generated different schedules")
	}
	if len(a.Tenants) == 0 || len(a.Faults) == 0 {
		t.Fatalf("degenerate schedule: %s", a)
	}
	for i, f := range a.Faults {
		if f.Seq != i {
			t.Fatalf("fault %d carries Seq %d", i, f.Seq)
		}
		if i > 0 && f.At < a.Faults[i-1].At {
			t.Fatalf("fault times not monotone: %s", a)
		}
	}
	if _, err := Generate(1, "bogus"); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

// TestChaosPlantCaughtAndShrunk proves the detection pipeline end to end: a
// deliberately planted backup corruption is caught by the invariant
// checkers, reported as a one-line repro, and shrunk to the minimal failing
// schedule — the plant alone.
func TestChaosPlantCaughtAndShrunk(t *testing.T) {
	sch, err := Generate(7, "short")
	if err != nil {
		t.Fatal(err)
	}
	planted := sch.PlantCorruption()
	res := Run(planted)
	if !res.Failed() {
		t.Fatalf("planted corruption not caught:\n%s", res.LogText())
	}
	found := false
	for _, v := range res.Violations {
		if v.Invariant == "consistent-cut" && strings.Contains(v.Detail, "collapsed") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a collapsed consistent-cut violation, got %v", res.Violations)
	}
	if want := fmt.Sprintf("-seed %d", sch.Seed); !strings.Contains(res.ReproLine(), want) {
		t.Fatalf("repro line %q does not name the seed", res.ReproLine())
	}

	sr := Shrink(planted, 100)
	if len(sr.Minimal.Faults) != 1 || sr.Minimal.Faults[0].Kind != FaultPlant {
		t.Fatalf("want shrink to the plant alone, got %v (trace %v)", sr.Minimal.Faults, sr.Trace)
	}
	if !Run(sr.Minimal).Failed() {
		t.Fatal("minimal schedule does not fail")
	}
}

// TestChaosShrinkDeterministic: shrinking the same failing schedule twice
// takes the same decisions and lands on the same minimal subset.
func TestChaosShrinkDeterministic(t *testing.T) {
	sch, err := Generate(11, "short")
	if err != nil {
		t.Fatal(err)
	}
	planted := sch.PlantCorruption()
	if !Run(planted).Failed() {
		t.Fatalf("planted schedule did not fail:\n%s", Run(planted).LogText())
	}
	a := Shrink(planted, 100)
	b := Shrink(planted, 100)
	if a.Runs != b.Runs || strings.Join(a.Trace, ";") != strings.Join(b.Trace, ";") {
		t.Fatalf("shrink diverged:\n%v (%d runs)\n%v (%d runs)", a.Trace, a.Runs, b.Trace, b.Runs)
	}
	if a.Minimal.String() != b.Minimal.String() {
		t.Fatalf("minimal schedules differ:\n%s\n%s", a.Minimal, b.Minimal)
	}
}

// TestChaosShardedFailbackRoundTrips: a failback fault after a sharded
// tenant's failover resyncs it like any other — one reverse group, and its
// round trip checked clean once it drains.
func TestChaosShardedFailbackRoundTrips(t *testing.T) {
	sch := &Schedule{
		Seed:  42,
		Steps: "short",
		Links: 2,
		Tenants: []TenantPlan{
			{Orders: 60, ThinkTime: 2 * time.Millisecond, Shards: 2},
		},
		Faults: []Fault{
			{Seq: 0, At: 120 * time.Millisecond, Kind: FaultFailover, Tenant: 0},
			{Seq: 1, At: 160 * time.Millisecond, Kind: FaultFailback, Tenant: -1},
		},
	}
	res := Run(sch)
	if res.Failed() {
		t.Fatalf("sharded failback failed the run:\n%s", res.LogText())
	}
	if !strings.Contains(res.LogText(), "failback: 1 reverse groups") {
		t.Fatalf("no reverse group logged:\n%s", res.LogText())
	}
}

// TestChaosFailbackWithNothingFailedOver: a failback fault that finds no
// failed-over group logs its absent precondition and passes; any other
// failback error fails the run.
func TestChaosFailbackWithNothingFailedOver(t *testing.T) {
	sch := &Schedule{
		Seed:    42,
		Steps:   "short",
		Links:   1,
		Tenants: []TenantPlan{{Orders: 40, ThinkTime: 2 * time.Millisecond, Shards: 1}},
		Faults:  []Fault{{Seq: 0, At: 60 * time.Millisecond, Kind: FaultFailback, Tenant: -1}},
	}
	res := Run(sch)
	if res.Failed() {
		t.Fatalf("a failback with nothing failed over failed the run:\n%s", res.LogText())
	}
	if !strings.Contains(res.LogText(), "failback: precondition absent") {
		t.Fatalf("no absent precondition logged:\n%s", res.LogText())
	}
}

// TestChaosWithFaultsIsolated: WithFaults copies, so shrink probes cannot
// mutate the schedule they minimize.
func TestChaosWithFaultsIsolated(t *testing.T) {
	sch, err := Generate(3, "short")
	if err != nil {
		t.Fatal(err)
	}
	if len(sch.Faults) < 2 {
		t.Skip("schedule too small to exercise isolation")
	}
	orig := sch.Faults[0].Kind
	sub := sch.WithFaults(sch.Faults[:1])
	sub.Faults[0].Kind = FaultPlant
	if sch.Faults[0].Kind != orig {
		t.Fatal("WithFaults aliased the original fault slice")
	}
}

// TestChaosLinkLossDegradesAndRecovers: a hand-built schedule with one
// loss/jitter burst on a forward member link must retransmit (the burst
// really bit), pass every invariant checkpoint, and clear back to a clean
// link — with the pipelined (window > 1) dispatchers in flight throughout.
func TestChaosLinkLossDegradesAndRecovers(t *testing.T) {
	sch := &Schedule{
		Seed:  42,
		Steps: "short",
		Links: 2,
		Tenants: []TenantPlan{
			{Orders: 80, ThinkTime: time.Millisecond, Shards: 2},
		},
		Faults: []Fault{
			{Seq: 0, At: 60 * time.Millisecond, Kind: FaultLinkLoss, Tenant: -1,
				Link: 0, Loss: 0.5, Jitter: 2 * time.Millisecond, Dur: 150 * time.Millisecond},
		},
	}
	res := Run(sch)
	if res.Failed() {
		t.Fatalf("linkloss burst failed invariants:\n%s", res.LogText())
	}
	cleared := ""
	for _, l := range res.Log {
		if strings.Contains(l, "linkloss: cleared") {
			cleared = l
		}
	}
	if cleared == "" {
		t.Fatalf("burst never cleared:\n%s", res.LogText())
	}
	if strings.Contains(cleared, "(0 retransmits)") {
		t.Fatalf("burst caused no retransmits at 50%% loss: %q", cleared)
	}
}

// TestGenerateIncludesLinkLoss: the new fault is part of the generated
// alphabet, not just the hand-built path.
func TestGenerateIncludesLinkLoss(t *testing.T) {
	found := false
	for seed := int64(1); seed <= 20 && !found; seed++ {
		sch, err := Generate(seed, "medium")
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range sch.Faults {
			if f.Kind == FaultLinkLoss {
				if f.Loss <= 0 || f.Dur <= 0 {
					t.Fatalf("degenerate linkloss fault: %s", f)
				}
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no seed in 1..20 generated a linkloss fault")
	}
}

// Each process name's summed sim-profile samples stay within the run.
// Simulated time is charged only while a process blocks, so the samples of
// processes that share a name sum past the run only when they overlap long
// enough: two sites' controllers, two directions' dispatchers or several
// watch pumps of one controller under one name would. Short-lived
// processes of one name may still overlap (the netlink-retransmit of each
// lost frame) while their sum stays within the run.
func TestProcessNameSumsStayWithinTheRun(t *testing.T) {
	sch, err := Generate(1, "medium")
	if err != nil {
		t.Fatal(err)
	}
	res, samples := RunProfiled(sch)
	if res.Failed() {
		t.Fatalf("seed 1 failed:\n%s", res.LogText())
	}
	sums := make(map[string]time.Duration)
	for _, s := range samples {
		sums[s.Process] += s.Time
	}
	for name, d := range sums {
		if d > res.SimTime {
			t.Errorf("process %q sums %v of simulated time over a %v run", name, d, res.SimTime)
		}
	}
}
