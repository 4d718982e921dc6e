package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/invariants"
	"repro/internal/telemetry"
)

// ElasticityResult summarizes one E14 run pair (steady baseline + churn).
type ElasticityResult struct {
	Tenants int // initial roster size
	Joined  int // tenants provisioned mid-run
	Left    int // tenants decommissioned mid-run

	OrdersPlaced int64
	Verified     int // every tenant (initial + joined), must equal the roster
	Collapsed    int // must be 0
	FailedOver   int

	// Joins: declarative spec -> Ready, with the initial copy racing the
	// whole fleet's OLTP load.
	JoinReadyMean, JoinReadyMax time.Duration
	SteadyReadyMean             time.Duration // the t=0 provisioning burst, for contrast
	JoinDuringFailover          bool          // a join was in flight while a site failover ran

	// Victim disturbance: worst probed RPO across the steady plain tenants
	// (no failover, no analytics, no churn role), baseline vs churn run.
	VictimMaxRPOBase  time.Duration
	VictimMaxRPOChurn time.Duration

	// Leaves: the reclamation invariant.
	ReclaimOK    bool // every leaver left zero residue on both arrays
	ResidueLeaks int  // residue entries found after the run (must be 0)

	SimTime time.Duration // churn run, virtual time
}

// e14Config is the shared fleet shape of both E14 runs.
func e14Config(seed int64, tenants, orders int) fleet.Config {
	return fleet.Config{
		Tenants:         tenants,
		OrdersPerTenant: orders,
		System: core.Config{Seed: seed, VolumeBlocks: 256,
			Telemetry: &telemetry.Config{SamplePeriod: 5 * time.Millisecond}},
	}
}

// e14Victims reports the worst probed RPO across the steady plain tenants
// of the initial roster — the bystanders whose service the churn is not
// allowed to disturb beyond the fabric's fair share. The caller passes the
// index that leaves in the churn run so BOTH runs exclude it and the
// baseline/churn comparison covers the same tenant set.
func e14Victims(f *fleet.Fleet, roster, leaverIdx int) time.Duration {
	var worst time.Duration
	for _, t := range f.Tenants {
		if t.Index >= roster || t.Index == leaverIdx || t.Failover || t.Analytics || t.Join || t.Leave {
			continue
		}
		worst = max(worst, time.Duration(f.Sys.Telemetry.Series("rpo", telemetry.L("tenant", t.Namespace)).Max()))
	}
	return worst
}

// E14Elasticity runs the declarative tenant-lifecycle experiment: a steady
// fleet (the baseline) and then the same fleet with mid-run churn — joins
// provisioned by ProvisionTenant while every other tenant serves OLTP load
// (one join scheduled to race the mid-run site failovers), and a leave that
// drains, decommissions, and must return its volumes and journal shards to
// the array free lists with the survivors' consistency cuts untouched.
func E14Elasticity(seed int64, tenants, orders int) (ElasticityResult, error) {
	if tenants < 6 {
		tenants = 6 // need failover + analytics + leaver + plain victims
	}
	var res ElasticityResult
	res.Tenants = tenants
	// The first plain tenant leaves in the churn run; exclude it from the
	// victim set of both runs so the RPO comparison covers one set.
	nFail := tenants / 4
	if nFail < 1 {
		nFail = 1
	}
	leaverIdx := nFail

	// Baseline: no churn. Measures the victims' undisturbed RPO and the
	// failover window the racing join is scheduled into.
	base := fleet.New(e14Config(seed, tenants, orders))
	if err := base.Run(); err != nil {
		return res, fmt.Errorf("E14 baseline: %w", err)
	}
	res.VictimMaxRPOBase = e14Victims(base, tenants, leaverIdx)
	firstFailover := time.Duration(0)
	for _, t := range base.Tenants {
		if t.Failover && (firstFailover == 0 || t.FailoverAt < firstFailover) {
			firstFailover = t.FailoverAt
		}
	}
	baseSpan := base.Sys.Env.Now()

	// Churn run: one join submitted shortly before the failover window (its
	// provisioning races the disasters), one join mid-run, and the first
	// plain tenant leaving mid-run.
	cfg := e14Config(seed, tenants, orders)
	raceAt := firstFailover - 15*time.Millisecond
	if raceAt < 0 {
		raceAt = 0
	}
	cfg.Joins = []fleet.JoinSpec{
		{After: raceAt},
		{After: baseSpan / 2},
	}
	cfg.Leaves = []fleet.LeaveSpec{{Tenant: leaverIdx, After: baseSpan / 2}}
	churn := fleet.New(cfg)
	if err := churn.Run(); err != nil {
		return res, fmt.Errorf("E14 churn: %w", err)
	}

	tot := churn.Totals()
	res.Joined = tot.Joined
	res.Left = tot.Left
	res.OrdersPlaced = tot.OrdersPlaced
	res.Verified = tot.Verified
	res.Collapsed = tot.Collapsed
	res.FailedOver = tot.FailedOver
	res.JoinReadyMean = tot.MeanJoinReady
	res.JoinReadyMax = tot.MaxJoinReady
	res.VictimMaxRPOChurn = e14Victims(churn, tenants, leaverIdx)
	res.ReclaimOK = tot.Left > 0 && tot.ReclaimFailures == 0
	res.SimTime = churn.Sys.Env.Now()

	var steadySum time.Duration
	steady := 0
	for _, t := range churn.Tenants {
		if !t.Join {
			steadySum += t.TimeToReady
			steady++
		}
		if t.Left {
			// The shared zero-residue checker: one violation per leaked
			// object, so the count matches the old direct-residue tally.
			res.ResidueLeaks += len(invariants.CheckZeroResidue(t.Namespace, churn.Sys.TenantResidue(t.Namespace)))
		}
	}
	if steady > 0 {
		res.SteadyReadyMean = steadySum / time.Duration(steady)
	}

	// Did a join actually race a failover? A join is "in flight" from spec
	// submission to Ready; the failovers are instants.
	for _, j := range churn.Tenants {
		if !j.Join {
			continue
		}
		for _, v := range churn.Tenants {
			if v.Failover && j.JoinAfter <= v.FailoverAt && v.FailoverAt <= j.JoinedAt {
				res.JoinDuringFailover = true
			}
		}
	}

	want := tenants + len(cfg.Joins)
	if res.Verified != want {
		return res, fmt.Errorf("E14: only %d/%d tenants verified consistent", res.Verified, want)
	}
	if res.Collapsed != 0 {
		return res, fmt.Errorf("E14: %d tenants collapsed", res.Collapsed)
	}
	if !res.ReclaimOK || res.ResidueLeaks != 0 {
		return res, fmt.Errorf("E14: decommission leaked: reclaimOK=%v leaks=%d", res.ReclaimOK, res.ResidueLeaks)
	}
	if res.Joined != len(cfg.Joins) {
		return res, fmt.Errorf("E14: %d/%d joins completed", res.Joined, len(cfg.Joins))
	}
	return res, nil
}

// E14Table renders the E14 result.
func E14Table(r ElasticityResult) *Table {
	t := NewTable("E14: fleet elasticity — declarative joins and leaves under OLTP load",
		"metric", "value")
	t.AddRow("initial tenants", r.Tenants)
	t.AddRow("joined mid-run", r.Joined)
	t.AddRow("left mid-run (decommissioned)", r.Left)
	t.AddRow("orders placed (fleet)", r.OrdersPlaced)
	t.AddRow("tenants verified consistent", r.Verified)
	t.AddRow("tenants collapsed", r.Collapsed)
	t.AddRow("tenants failed over mid-run", r.FailedOver)
	t.AddRow("join spec -> ready (mean)", r.JoinReadyMean)
	t.AddRow("join spec -> ready (max)", r.JoinReadyMax)
	t.AddRow("steady spec -> ready (mean, t=0 burst)", r.SteadyReadyMean)
	t.AddRow("join raced a mid-run failover", r.JoinDuringFailover)
	t.AddRow("victim max RPO, steady baseline", r.VictimMaxRPOBase)
	t.AddRow("victim max RPO, under churn", r.VictimMaxRPOChurn)
	t.AddRow("leaver reclaim clean (free-list invariant)", r.ReclaimOK)
	t.AddRow("residue entries after leaves", r.ResidueLeaks)
	t.AddRow("fleet virtual time (churn run)", r.SimTime)
	t.AddNote("shape: joins reach Ready under load, the leave reclaims every volume/journal shard, and no surviving tenant's consistency cut breaks")
	return t
}
