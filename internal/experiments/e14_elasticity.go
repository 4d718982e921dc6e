package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/invariants"
	"repro/internal/telemetry"
)

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
func E14Elasticity(seed int64, tenants, orders int) (*Table, error) {
	if tenants < 6 {
		tenants = 6 // need failover + analytics + leaver + plain victims
	}
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
		return nil, fmt.Errorf("E14 baseline: %w", err)
	}
	victimBase := e14Victims(base, tenants, leaverIdx)
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
		return nil, fmt.Errorf("E14 churn: %w", err)
	}

	tot := churn.Totals()
	var steadySum, steadyMean time.Duration
	steady, leaks := 0, 0
	for _, t := range churn.Tenants {
		if !t.Join {
			steadySum += t.TimeToReady
			steady++
		}
		if t.Left {
			// The shared zero-residue checker: one violation per leaked
			// object, so the count matches the old direct-residue tally.
			leaks += len(invariants.CheckZeroResidue(t.Namespace, churn.Sys.TenantResidue(t.Namespace)))
		}
	}
	if steady > 0 {
		steadyMean = steadySum / time.Duration(steady)
	}

	// Did a join actually race a failover? A join is "in flight" from spec
	// submission to Ready; the failovers are instants.
	raced := false
	for _, j := range churn.Tenants {
		if !j.Join {
			continue
		}
		for _, v := range churn.Tenants {
			if v.Failover && j.JoinAfter <= v.FailoverAt && v.FailoverAt <= j.JoinedAt {
				raced = true
			}
		}
	}

	// Leaves: every leaver left zero residue on both arrays.
	reclaimOK := tot.Left > 0 && tot.ReclaimFailures == 0
	if want := tenants + len(cfg.Joins); tot.Verified != want {
		return nil, fmt.Errorf("E14: only %d/%d tenants verified consistent", tot.Verified, want)
	}
	if tot.Collapsed != 0 {
		return nil, fmt.Errorf("E14: %d tenants collapsed", tot.Collapsed)
	}
	if !reclaimOK || leaks != 0 {
		return nil, fmt.Errorf("E14: decommission leaked: reclaimOK=%v leaks=%d", reclaimOK, leaks)
	}
	if tot.Joined != len(cfg.Joins) {
		return nil, fmt.Errorf("E14: %d/%d joins completed", tot.Joined, len(cfg.Joins))
	}

	t := NewTable("E14: fleet elasticity — declarative joins and leaves under OLTP load",
		"metric", "value")
	t.AddRow("initial tenants", tenants)
	t.AddRow("joined mid-run", tot.Joined)
	t.AddRow("left mid-run (decommissioned)", tot.Left)
	t.AddRow("orders placed (fleet)", tot.OrdersPlaced)
	t.AddRow("tenants verified consistent", tot.Verified)
	t.AddRow("tenants collapsed", tot.Collapsed)
	t.AddRow("tenants failed over mid-run", tot.FailedOver)
	t.AddRow("join spec -> ready (mean)", tot.MeanJoinReady)
	t.AddRow("join spec -> ready (max)", tot.MaxJoinReady)
	t.AddRow("steady spec -> ready (mean, t=0 burst)", steadyMean)
	t.AddRow("join raced a mid-run failover", raced)
	// Victim disturbance: worst probed RPO across the steady plain tenants
	// (no failover, no analytics, no churn role), baseline vs churn run.
	t.AddRow("victim max RPO, steady baseline", victimBase)
	t.AddRow("victim max RPO, under churn", e14Victims(churn, tenants, leaverIdx))
	t.AddRow("leaver reclaim clean (free-list invariant)", reclaimOK)
	t.AddRow("residue entries after leaves", leaks)
	t.AddRow("fleet virtual time (churn run)", churn.Sys.Env.Now())
	t.AddNote("shape: joins reach Ready under load, the leave reclaims every volume/journal shard, and no surviving tenant's consistency cut breaks")
	return t, nil
}
