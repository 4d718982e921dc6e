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
// came back would find. queued says whether the tenant controller holds keys
// at that point (checked, so each point stays the one it means to be): the
// stopped controller keeps them and reconciles nothing more, and the fresh
// one, which queues every tenant it rebuilds, reconciles them. No restart
// lands inside a reconcile: that is a crash point of its own. The fresh
// controller must rebuild every record a running engine backs, and mark
// managed every tenant its predecessor managed. The returned check, run once
// the simulation ends, fails if the stopped controller reconciled or dropped
// a key after the stop.
func restartControllers(t *testing.T, sys *System, at string, queued bool) (check func()) {
	t.Helper()
	old := sys.tenantCtrl
	reconciles, n := old.Reconciles(), old.QueueLen()
	if (n > 0) != queued {
		t.Errorf("%s: %d tenant keys queued, no restart", at, n)
		return func() {}
	}
	before := maps.Clone(sys.tenants)
	old.Stop()
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
	return func() {
		if old.Reconciles() != reconciles || old.QueueLen() != n {
			t.Errorf("%s: the stopped tenant controller went from %d reconciles and %d keys queued to %d and %d",
				at, reconciles, n, old.Reconciles(), old.QueueLen())
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
// replication plugin at six points of a six-tenant run with two leavers:
// once every tenant is Ready, under load, after a reshard, at a leaver's
// namespace Deleted event (its key still queued on the controller being
// stopped), while that teardown is in backoff (its Tenant and namespace
// gone, only its claims left to say whose they are), and after the other
// leaver is gone. The run converges: every survivor's backup image is a
// consistent cut, both leavers leave zero residue, no engine outlives its
// tenant, and the stopped controllers reconcile nothing after their stop and
// leave no watch behind.
func TestRestartedControllersLoseNothing(t *testing.T) {
	const tenants = 6
	names := make([]string, tenants)
	for i := range names {
		names[i] = fmt.Sprint("t", i)
	}
	bps := make([]*BusinessProcess, tenants)
	var checks []func()
	restart := func(sys *System, at string, queued bool) {
		checks = append(checks, restartControllers(t, sys, at, queued))
	}
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
		restart(sys, "all ready", false)

		sys.Env.Process("restart-under-load", func(p *sim.Proc) {
			p.Sleep(10 * time.Millisecond)
			restart(sys, "under load", false)
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
		restart(sys, "after a reshard", false)

		// t5 leaves. Its teardown deletes the namespace and returns an error
		// while the replication group is still there, to retry after a
		// backoff. The first restart lands at the Deleted event, which has
		// queued t5 again; the second in the backoff of the fresh
		// controller's reconcile of it, before the operator has removed the
		// group, when only the claims say whose tenant t5 was.
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
		restart(sys, "namespace deleted", true)
		p.Sleep(time.Microsecond) // the fresh controller's reconcile of t5 fails the same way
		rgKey, _ := sys.managed("t5")
		if _, ok := sys.Main.API.Cached(rgKey); !ok {
			t.Error("t5's replication group went with its namespace: no teardown left in backoff")
			return
		}
		restart(sys, "teardown in backoff", false)
		p.Wait(left)

		if err := sys.DecommissionTenant(p, "t4"); err != nil {
			t.Errorf("decommission t4: %v", err)
			return
		}
		restart(sys, "after a leave", false)

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
		if vs := invariants.CheckNoOrphanGroups(sys.Main.Engines.Sorted(), sys.Replication.NamespaceOf, live); len(vs) > 0 {
			t.Errorf("%v", vs)
		}
	})
	sys.Env.Run(0)
	for _, check := range checks {
		check()
	}
	if vs := invariants.CheckNoWatches("main", sys.Main.API); len(vs) > 0 {
		t.Errorf("%v", vs)
	}
}
