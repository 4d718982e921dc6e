package core

import (
	"fmt"
	"maps"
	"slices"
	"testing"
	"time"

	"repro/internal/consistency"
	"repro/internal/invariants"
	"repro/internal/platform"
	"repro/internal/sim"
)

// restartControllers stops the tenant controller and the replication
// plugin, drops their state and starts fresh ones over the same store,
// arrays and engine registry — what a controller process that crashed and
// came back would find. The caller restarts only where neither has a key
// waiting, so no reconcile is cut short: a restart inside one is a crash
// point of its own. The fresh controller must rebuild every record a
// running engine backs, and mark managed every tenant its predecessor
// managed.
func restartControllers(t *testing.T, sys *System, at string) {
	t.Helper()
	if n := sys.tenantCtrl.QueueLen(); n != 0 {
		t.Errorf("%s: %d tenant keys queued, no restart", at, n)
		return
	}
	before := maps.Clone(sys.tenants)
	sys.tenantCtrl.Stop()
	sys.Replication.Stop()
	sys.tenants = nil
	sys.Replication = sys.newReplicationPlugin()
	sys.tenantCtrl = sys.newTenantController()
	sys.Replication.Start()
	sys.tenantCtrl.Start()
	for ns, was := range before {
		now := sys.tenants[ns]
		if now.group != was.group {
			t.Errorf("%s: %s rebuilt as group %q, was %q", at, ns, now.group.Name, was.group.Name)
		}
		if len(sys.Groups(ns)) == 1 && !slices.Equal(now.lanes, was.lanes) {
			t.Errorf("%s: %s rebuilt with lanes %v, was %v", at, ns, now.lanes, was.lanes)
		}
	}
}

// all runs fn for every index in its own process and returns once each has.
func all(p *sim.Proc, sys *System, n int, fn func(p *sim.Proc, i int)) {
	done, left := sys.Env.NewEvent(), n
	for i := range n {
		sys.Env.Process(fmt.Sprint("worker-", i), func(p *sim.Proc) {
			fn(p, i)
			if left--; left == 0 {
				done.Trigger()
			}
		})
	}
	p.Wait(done)
}

// TestRestartedControllersLoseNothing restarts the tenant controller and the
// replication plugin at five points of a six-tenant run with two leavers:
// once every tenant is Ready, under load, after a reshard, while a leaver's
// teardown is in backoff (its Tenant and namespace gone, only its claims
// left to say whose they are), and after the other leaver is gone. The run
// converges: every survivor's backup image is a consistent cut, both leavers
// leave zero residue, no engine outlives its tenant, and the stopped
// controllers leave no watch behind.
func TestRestartedControllersLoseNothing(t *testing.T) {
	const tenants = 6
	names := make([]string, tenants)
	for i := range names {
		names[i] = fmt.Sprint("t", i)
	}
	bps := make([]*BusinessProcess, tenants)
	sys := runSystem(t, Config{}, func(p *sim.Proc, sys *System) {
		defer sys.Stop()
		all(p, sys, tenants, func(p *sim.Proc, i int) {
			bp, err := sys.ProvisionTenant(p, tenantSpec(names[i]))
			if err != nil {
				t.Errorf("provision %s: %v", names[i], err)
			}
			bps[i] = bp
		})
		if t.Failed() {
			return
		}
		restartControllers(t, sys, "all ready")

		sys.Env.Process("restart-under-load", func(p *sim.Proc) {
			p.Sleep(10 * time.Millisecond)
			restartControllers(t, sys, "under load")
		})
		all(p, sys, tenants, func(p *sim.Proc, i int) {
			if err := bps[i].Shop.Run(p, 40); err != nil {
				t.Errorf("orders %s: %v", names[i], err)
			}
		})
		if err := reshard(p, sys, "t0", 2); err != nil {
			t.Errorf("reshard: %v", err)
			return
		}
		restartControllers(t, sys, "after a reshard")

		// t5 leaves. Its teardown deletes the namespace and returns an error
		// while the replication group is still there, to retry after a
		// backoff: the restart lands in that backoff, before the operator has
		// removed the group, when only the claims say whose tenant t5 was.
		left := sys.Env.NewEvent()
		nsWatch := sys.Main.API.WatchKey(platform.ObjectKey{Kind: platform.KindNamespace, Name: "t5"})
		sys.Env.Process("leave-t5", func(p *sim.Proc) {
			if err := sys.DecommissionTenant(p, "t5"); err != nil {
				t.Errorf("decommission t5: %v", err)
			}
			left.Trigger()
		})
		for {
			ev, ok := nsWatch.NextTimeout(p, time.Second)
			if !ok {
				t.Error("t5's teardown never deleted its namespace")
				return
			}
			if ev.Type == platform.Deleted {
				break
			}
		}
		nsWatch.Stop()
		p.Sleep(time.Microsecond) // the Deleted event's own reconcile fails the same way
		rgKey, _ := sys.managed("t5")
		if _, ok := sys.Main.API.Cached(rgKey); !ok {
			t.Error("t5's replication group went with its namespace: no teardown left in backoff")
			return
		}
		restartControllers(t, sys, "teardown in backoff")
		p.Wait(left)

		if err := sys.DecommissionTenant(p, "t4"); err != nil {
			t.Errorf("decommission t4: %v", err)
			return
		}
		restartControllers(t, sys, "after a leave")

		for i, ns := range names[:4] {
			if err := bps[i].Shop.Run(p, 4); err != nil {
				t.Errorf("orders %s: %v", ns, err)
				return
			}
			sys.CatchUp(p, ns)
			group, err := sys.SnapshotBackup(ns, ns+"-final")
			if err != nil {
				t.Errorf("snapshot %s: %v", ns, err)
				return
			}
			sales, stock, err := sys.AnalyticsDBs(p, ns, group)
			if err != nil {
				t.Errorf("analytics %s: %v", ns, err)
				return
			}
			rep := consistency.Verify(sales, stock, bps[i].Shop.SalesCommitOrder(), bps[i].Shop.StockCommitOrder())
			if vs := invariants.CheckConsistentCut(ns, rep); len(vs) > 0 {
				t.Errorf("%v", vs)
			}
		}
		for _, ns := range names[4:] {
			if vs := invariants.CheckZeroResidue(ns, sys.TenantResidue(ns)); len(vs) > 0 {
				t.Errorf("%v", vs)
			}
		}
		live := func(ns string) bool { _, ok := sys.managed(ns); return ok }
		if vs := invariants.CheckNoOrphanGroups(sys.Replication.AllGroups(), sys.Replication.NamespaceOf, live); len(vs) > 0 {
			t.Errorf("%v", vs)
		}
	})
	sys.Env.Run(0)
	if vs := invariants.CheckNoWatches("main", sys.Main.API); len(vs) > 0 {
		t.Errorf("%v", vs)
	}
}
