package autopilot

import (
	"testing"
	"time"

	"repro/internal/platform"
)

var gold = platform.SLOClass{
	Name: "gold", RPOTarget: time.Second, MinShards: 1, MaxShards: 4,
}

// TestShardTargetHysteresisBand pins the kernel's three regions: above
// up×target grows one lane, below down×target shrinks one, and the whole
// band between holds — in both directions, which is what prevents flapping.
func TestShardTargetHysteresisBand(t *testing.T) {
	const up, down = 0.7, 0.25
	cases := []struct {
		name string
		cur  int
		rpo  time.Duration
		want int
	}{
		{"breach grows", 1, 900 * time.Millisecond, 2},
		{"way above target still one step", 2, 5 * time.Second, 3},
		{"just above up threshold grows", 1, 701 * time.Millisecond, 2},
		{"at up threshold holds", 2, 700 * time.Millisecond, 2},
		{"mid-band holds", 2, 500 * time.Millisecond, 2},
		{"just above down threshold holds", 2, 251 * time.Millisecond, 2},
		{"at down threshold holds", 2, 250 * time.Millisecond, 2},
		{"below down threshold shrinks", 2, 100 * time.Millisecond, 1},
		{"grow bounded by MaxShards", 4, 5 * time.Second, 4},
		{"shrink bounded by MinShards", 1, 0, 1},
	}
	for _, tc := range cases {
		if got := shardTarget(gold, up, down, tc.cur, tc.rpo); got != tc.want {
			t.Errorf("%s: shardTarget(cur=%d, rpo=%v) = %d, want %d", tc.name, tc.cur, tc.rpo, got, tc.want)
		}
	}
}

// TestShardTargetNoFlapping drives the kernel through the scenario a naive
// single-threshold controller flaps on: a reshard brings the RPO from just
// above the grow trigger to just below it. With the wide hysteresis band
// the new lane count must HOLD there — only a deep quiet (below the shrink
// threshold) may take the lane back, and once it does, the RPO rebounding
// into the band must not immediately re-add it.
func TestShardTargetNoFlapping(t *testing.T) {
	const up, down = 0.7, 0.25
	cur := shardTarget(gold, up, down, 1, 750*time.Millisecond) // breach: 1 -> 2
	if cur != 2 {
		t.Fatalf("grow step = %d, want 2", cur)
	}
	// The extra lane roughly halves the windowed RPO: 375ms is below the
	// grow trigger but far above the shrink trigger. Must hold for good.
	for i := 0; i < 10; i++ {
		if got := shardTarget(gold, up, down, cur, 375*time.Millisecond); got != cur {
			t.Fatalf("tick %d: mid-band RPO moved lanes %d -> %d (flap)", i, cur, got)
		}
	}
	// Deep quiet reclaims the lane...
	cur = shardTarget(gold, up, down, cur, 50*time.Millisecond)
	if cur != 1 {
		t.Fatalf("shrink step = %d, want 1", cur)
	}
	// ...and the resulting rebound (~100ms at one lane) stays in the band:
	// no immediate re-grow, or the pair would oscillate forever.
	if got := shardTarget(gold, up, down, cur, 100*time.Millisecond); got != cur {
		t.Fatalf("post-shrink rebound re-grew %d -> %d (flap)", cur, got)
	}
}

// TestShardTargetIgnoresUntargetedClasses: a class with no RPO SLO is not
// the reshard loop's to manage, whatever its probes read.
func TestShardTargetIgnoresUntargetedClasses(t *testing.T) {
	bulk := platform.SLOClass{Name: "bulk", MinShards: 1, MaxShards: 4}
	for _, rpo := range []time.Duration{0, time.Second, time.Hour} {
		if got := shardTarget(bulk, 0.7, 0.25, 2, rpo); got != 2 {
			t.Errorf("untargeted class moved: rpo=%v -> lanes %d", rpo, got)
		}
	}
}
