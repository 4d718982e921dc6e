package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/invariants"
	"repro/internal/platform"
	"repro/internal/sim"
)

// reshard declares a new journal shard count on the tenant's spec and waits
// for the live reshard to settle: the change threads tenant controller →
// namespace ShardsLabel → operator → ReplicationGroup → replication plugin.
func reshard(p *sim.Proc, sys *System, ns string, shards int) error {
	if err := sys.UpdateTenantSpec(p, ns, func(s *platform.TenantSpec) { s.JournalShards = shards }); err != nil {
		return err
	}
	return sys.WaitTenantCondition(p, ns, CondResharded(shards), sys.provisionTimeout())
}

// shardedSpec is tenantSpec on two journal shards.
func shardedSpec(ns string) platform.TenantSpec {
	spec := tenantSpec(ns)
	spec.JournalShards = 2
	return spec
}

// TestReshardTenantEndToEnd drives the full reshard chain from the Tenant
// spec: 1 -> 4 widens the paper's one-lane engine to four lanes in place
// while OLTP commits keep flowing, 4 -> 2 shrinks it live, and the tenant's
// backup image stays a consistent cut throughout (verified by snapshot
// analytics after each transition).
func TestReshardTenantEndToEnd(t *testing.T) {
	runSystem(t, Config{}, func(p *sim.Proc, sys *System) {
		spec := tenantSpec("shop")
		spec.JournalShards = 1
		bp, err := sys.ProvisionTenant(p, spec)
		if err != nil {
			t.Errorf("provision: %v", err)
			return
		}
		engine := sys.Groups("shop")[0]
		if err := bp.Shop.Run(p, 6); err != nil {
			t.Error(err)
			return
		}
		sys.CatchUp(p, "shop")
		if engine.Lanes() != 1 || engine.AppliedRecords() == 0 || engine.EpochCommits() != 0 {
			t.Errorf("shards=1 engine: lanes=%d applied=%d epoch commits=%d, want one lane committing its own batches",
				engine.Lanes(), engine.AppliedRecords(), engine.EpochCommits())
			return
		}

		if err := reshard(p, sys, "shop", 4); err != nil {
			t.Errorf("reshard 1->4: %v", err)
			return
		}
		if sg := sys.Groups("shop")[0]; sg != engine || sg.Lanes() != 4 || sg.Resharding() {
			t.Errorf("after 1->4: same engine=%v lanes=%d resharding=%v", sg == engine, sg.Lanes(), sg.Resharding())
			return
		}
		if err := bp.Shop.Run(p, 6); err != nil {
			t.Error(err)
			return
		}
		sys.CatchUp(p, "shop")
		if group, err := sys.SnapshotBackup("shop", "after-grow"); err != nil {
			t.Errorf("snapshot after grow: %v", err)
		} else if _, _, err := sys.AnalyticsDBs(p, "shop", group); err != nil {
			t.Errorf("analytics after grow: %v", err)
		}

		if err := reshard(p, sys, "shop", 2); err != nil {
			t.Errorf("reshard 4->2: %v", err)
			return
		}
		if got := sys.Groups("shop")[0].Lanes(); got != 2 {
			t.Errorf("after 4->2: lanes=%d", got)
			return
		}
		if err := bp.Shop.Run(p, 6); err != nil {
			t.Error(err)
			return
		}
		sys.CatchUp(p, "shop")
		if group, err := sys.SnapshotBackup("shop", "after-shrink"); err != nil {
			t.Errorf("snapshot after shrink: %v", err)
		} else if _, _, err := sys.AnalyticsDBs(p, "shop", group); err != nil {
			t.Errorf("analytics after shrink: %v", err)
		}

		// The reshard history must not obstruct a clean decommission.
		if err := sys.DecommissionTenant(p, "shop"); err != nil {
			t.Errorf("decommission after reshards: %v", err)
		}
	})
}

// TestReshardTenantUnchangedSpecIsZeroMigration pins the acceptance
// criterion: re-declaring the same shard count performs zero migration,
// verified by the journal's lifetime counters.
func TestReshardTenantUnchangedSpecIsZeroMigration(t *testing.T) {
	runSystem(t, Config{}, func(p *sim.Proc, sys *System) {
		spec := tenantSpec("shop")
		spec.JournalShards = 4
		if _, err := sys.ProvisionTenant(p, spec); err != nil {
			t.Errorf("provision: %v", err)
			return
		}
		sj, err := sys.Main.Array.ShardedJournal("jnl-backup-shop-0")
		if err != nil {
			t.Error(err)
			return
		}
		if err := reshard(p, sys, "shop", 4); err != nil {
			t.Errorf("same-count reshard: %v", err)
			return
		}
		p.Sleep(200 * time.Millisecond) // let any misguided reconcile run
		if sj.Reshards() != 0 || sj.MovedRecords() != 0 || sj.MovedVolumes() != 0 {
			t.Errorf("unchanged spec migrated: reshards=%d recs=%d vols=%d",
				sj.Reshards(), sj.MovedRecords(), sj.MovedVolumes())
		}
	})
}

// TestShardedFailbackRoundTrips: a two-lane tenant fails over and back
// through the same path a one-lane tenant takes. The reverse group runs two
// lanes, main reads as the backup does once it drains, and an unrelated
// sharded tenant keeps draining throughout.
func TestShardedFailbackRoundTrips(t *testing.T) {
	runSystem(t, Config{}, func(p *sim.Proc, sys *System) {
		// Tenant A: sharded, failed over. Tenant B: sharded, still draining.
		bpA, err := sys.ProvisionTenant(p, shardedSpec("alpha"))
		if err != nil {
			t.Errorf("provision alpha: %v", err)
			return
		}
		bpB, err := sys.ProvisionTenant(p, shardedSpec("beta"))
		if err != nil {
			t.Errorf("provision beta: %v", err)
			return
		}
		if err := bpA.Shop.Run(p, 4); err != nil {
			t.Error(err)
			return
		}
		if _, err := sys.Failover(p, "alpha"); err != nil {
			t.Errorf("failover: %v", err)
			return
		}

		fb, err := sys.Failback(p)
		if err != nil {
			t.Errorf("failback: %v", err)
			return
		}
		if len(fb.Reverse) != 1 || fb.Reverse[0].Lanes() != 2 {
			t.Errorf("reverse groups %v, want one of 2 lanes", fb.Reverse)
			return
		}
		rg := fb.Reverse[0]
		if err := bpB.Shop.Run(p, 4); err != nil {
			t.Error(err)
			return
		}
		if !rg.CatchUp(p) {
			t.Error("alpha's reverse group did not catch up")
		}
		if vs := invariants.CheckRoundTrip("alpha", rg, sys.Backup.Array, sys.Main.Array); len(vs) != 0 {
			t.Errorf("alpha after failback: %v", vs)
		}
		if !sys.CatchUp(p, "beta") {
			t.Error("beta no longer drains after alpha failed back")
		}
		if g := sys.Groups("beta")[0]; g.Stopped() || g.Backlog() != 0 {
			t.Errorf("beta group unhealthy: stopped=%v backlog=%d", g.Stopped(), g.Backlog())
		}
		if _, err := sys.SnapshotBackup("beta", "post-failback"); err != nil {
			t.Errorf("beta snapshot after alpha failed back: %v", err)
		}
	})
}

// TestUpdateTenantSpecUnchangedWritesNothing pins UpdateTenantSpec's quiet
// path: a mutation that changes nothing must not bump the object version.
func TestUpdateTenantSpecUnchangedWritesNothing(t *testing.T) {
	runSystem(t, Config{}, func(p *sim.Proc, sys *System) {
		if _, err := sys.ProvisionTenant(p, tenantSpec("shop")); err != nil {
			t.Errorf("provision: %v", err)
			return
		}
		obj, err := sys.Main.API.Get(p, tenantKey("shop"))
		if err != nil {
			t.Error(err)
			return
		}
		before := obj.GetMeta().ResourceVersion
		if err := sys.UpdateTenantSpec(p, "shop", func(s *platform.TenantSpec) {}); err != nil {
			t.Error(err)
			return
		}
		obj, err = sys.Main.API.Get(p, tenantKey("shop"))
		if err != nil {
			t.Error(err)
			return
		}
		if got := obj.GetMeta().ResourceVersion; got != before {
			t.Errorf("no-op spec update bumped version %d -> %d", before, got)
		}
	})
}

// TestReshardTenantRefusesImpossibleStates pins the fast-fail contract: a
// failed-over group can never reshard, so the request returns the typed
// ErrNotReshardable immediately instead of dressing a permanent condition up
// as a timeout.
func TestReshardTenantRefusesImpossibleStates(t *testing.T) {
	// Failed-over group: the drain is gone; nothing to migrate under.
	runSystem(t, Config{}, func(p *sim.Proc, sys *System) {
		if _, err := sys.ProvisionTenant(p, shardedSpec("shop")); err != nil {
			t.Errorf("provision: %v", err)
			return
		}
		if _, err := sys.Failover(p, "shop"); err != nil {
			t.Errorf("failover: %v", err)
			return
		}
		start := p.Now()
		err := reshard(p, sys, "shop", 4)
		if !errors.Is(err, ErrNotReshardable) {
			t.Errorf("failed-over reshard error = %v, want ErrNotReshardable", err)
		}
		if p.Now()-start >= sys.provisionTimeout() {
			t.Error("failed-over refusal burned the timeout instead of failing fast")
		}
	})
}

// TestReshardTenantRefusesNoBackupAndSingleVolumeMode covers the other
// permanent state: a tenant without backup has no replication to reshape.
func TestReshardTenantRefusesNoBackupAndSingleVolumeMode(t *testing.T) {
	runSystem(t, Config{}, func(p *sim.Proc, sys *System) {
		spec := tenantSpec("shop")
		spec.Backup = false
		if _, err := sys.ProvisionTenant(p, spec); err != nil {
			t.Errorf("provision: %v", err)
			return
		}
		start := p.Now()
		if err := reshard(p, sys, "shop", 4); !errors.Is(err, ErrNotReshardable) {
			t.Errorf("no-backup reshard error = %v, want ErrNotReshardable", err)
		}
		if p.Now()-start >= sys.provisionTimeout() {
			t.Error("no-backup refusal burned the timeout")
		}
	})
}
