package core

import (
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/consistency"
	"repro/internal/csiplugin"
	"repro/internal/fabric"
	"repro/internal/netlink"
	"repro/internal/platform"
	"repro/internal/sim"
)

// netlinkConfig shortens fixture helpers below.
type netlinkConfig = netlink.Config

// oneLink is a system config whose fabric is the single member link c.
func oneLink(c netlinkConfig) Config {
	return Config{Fabric: fabric.Config{Links: []netlinkConfig{c}}}
}

// deploySystem builds a system, provisions the shop tenant (sales + stock
// claims, backup off), and runs fn in a simulation process with everything
// ready.
func deploySystem(t *testing.T, cfg Config, fn func(p *sim.Proc, sys *System, bp *BusinessProcess)) *System {
	t.Helper()
	sys := NewSystem(cfg)
	failed := false
	sys.Env.Process("test", func(p *sim.Proc) {
		defer func() {
			if r := recover(); r != nil {
				failed = true
				t.Errorf("panic: %v", r)
			}
		}()
		bp, err := sys.ProvisionTenant(p, platform.TenantSpec{Namespace: "shop", PVCNames: []string{"sales", "stock"}})
		if err != nil {
			failed = true
			t.Errorf("deploy: %v", err)
			return
		}
		fn(p, sys, bp)
	})
	sys.Env.Run(2 * time.Hour)
	if failed {
		t.FailNow()
	}
	return sys
}

// enableBackup is demo step 1 (Fig. 3) on the declarative surface: declare
// Backup on the tenant's spec — the controller tags the namespace — and wait
// until the operator and the replication plugin report the group Ready.
func enableBackup(p *sim.Proc, sys *System, ns string) error {
	if err := sys.UpdateTenantSpec(p, ns, func(s *platform.TenantSpec) { s.Backup = true }); err != nil {
		return err
	}
	return sys.WaitTenantCondition(p, ns, CondBackupReady(), sys.provisionTimeout())
}

func TestDeployBusinessProcess(t *testing.T) {
	deploySystem(t, Config{}, func(p *sim.Proc, sys *System, bp *BusinessProcess) {
		if bp.Sales == nil || bp.Stock == nil || bp.Shop == nil {
			t.Error("incomplete business process")
		}
		if _, err := sys.Main.Array.Volume(csiplugin.VolumeIDForClaim("shop", "sales")); err != nil {
			t.Errorf("sales volume: %v", err)
		}
		if _, err := bp.Shop.PlaceOrder(p); err != nil {
			t.Errorf("order: %v", err)
		}
	})
}

func TestEnableBackupConfiguresReplication(t *testing.T) {
	deploySystem(t, Config{}, func(p *sim.Proc, sys *System, bp *BusinessProcess) {
		if err := enableBackup(p, sys, "shop"); err != nil {
			t.Errorf("enable backup: %v", err)
			return
		}
		groups := sys.Groups("shop")
		if len(groups) != 1 {
			t.Errorf("groups = %d, want 1 (consistency group)", len(groups))
			return
		}
		if got := len(groups[0].Members()); got != 2 {
			t.Errorf("journal members = %d", got)
		}
		// Backup PVCs appeared (Fig. 4).
		if got := len(sys.Backup.API.List(p, platform.KindPVC, "shop")); got != 2 {
			t.Errorf("backup PVCs = %d", got)
		}
	})
}

func TestEndToEndPipeline(t *testing.T) {
	// The full Fig. 1 pipeline: orders flow, replication drains, a snapshot
	// group is cut at the backup site, analytics read it, and the numbers
	// agree with the main site.
	deploySystem(t, Config{}, func(p *sim.Proc, sys *System, bp *BusinessProcess) {
		if err := enableBackup(p, sys, "shop"); err != nil {
			t.Error(err)
			return
		}
		if err := bp.Shop.Run(p, 40); err != nil {
			t.Error(err)
			return
		}
		if !sys.CatchUp(p, "shop") {
			t.Error("catch-up failed")
			return
		}
		group, err := sys.SnapshotBackup(p, "shop", "analytics-1")
		if err != nil {
			t.Error(err)
			return
		}
		salesView, stockView, err := sys.AnalyticsDBs(p, "shop", group)
		if err != nil {
			t.Error(err)
			return
		}
		sales, err := analytics.Sales(p, salesView)
		if err != nil {
			t.Error(err)
			return
		}
		if sales.Orders != 40 {
			t.Errorf("analytics sees %d orders, want 40", sales.Orders)
		}
		join, err := analytics.Join(p, salesView, stockView)
		if err != nil {
			t.Error(err)
			return
		}
		if join.Unmatched != 0 {
			t.Errorf("analytics join: %d unmatched stock rows on consistent snapshot", join.Unmatched)
		}
		// Consistency verification against ground truth.
		rep := consistency.Verify(salesView, stockView, bp.Shop.SalesCommitOrder(), bp.Shop.StockCommitOrder())
		if rep.Collapsed() || !rep.OrderingOK() {
			t.Errorf("snapshot inconsistent: %v", rep)
		}
	})
}

func TestAnalyticsWhileReplicationContinues(t *testing.T) {
	// Step 3's point: analytics on the snapshot does not disturb ongoing
	// replication, and the snapshot stays frozen while new orders flow.
	deploySystem(t, Config{}, func(p *sim.Proc, sys *System, bp *BusinessProcess) {
		if err := enableBackup(p, sys, "shop"); err != nil {
			t.Error(err)
			return
		}
		bp.Shop.Run(p, 20)
		sys.CatchUp(p, "shop")
		group, err := sys.SnapshotBackup(p, "shop", "snap")
		if err != nil {
			t.Error(err)
			return
		}
		// More orders after the snapshot.
		bp.Shop.Run(p, 15)
		sys.CatchUp(p, "shop")
		salesView, _, err := sys.AnalyticsDBs(p, "shop", group)
		if err != nil {
			t.Error(err)
			return
		}
		rep, _ := analytics.Sales(p, salesView)
		if rep.Orders != 20 {
			t.Errorf("snapshot sees %d orders, want frozen 20", rep.Orders)
		}
		if sys.RPO("shop") != 0 {
			t.Errorf("RPO after catch-up = %v", sys.RPO("shop"))
		}
	})
}

func TestFailoverRecoversConsistently(t *testing.T) {
	deploySystem(t, Config{}, func(p *sim.Proc, sys *System, bp *BusinessProcess) {
		if err := enableBackup(p, sys, "shop"); err != nil {
			t.Error(err)
			return
		}
		bp.Shop.Run(p, 30)
		sys.CatchUp(p, "shop")
		res, err := sys.Failover(p, "shop")
		if err != nil {
			t.Errorf("failover: %v", err)
			return
		}
		if res.RecoveryTime <= 0 {
			t.Error("recovery consumed no time")
		}
		rep := consistency.Verify(res.Sales, res.Stock, bp.Shop.SalesCommitOrder(), bp.Shop.StockCommitOrder())
		if rep.Collapsed() {
			t.Errorf("caught-up failover collapsed: %v", rep)
		}
		if rep.SalesTxns != 30 || rep.StockTxns != 30 {
			t.Errorf("recovered %d/%d txns, want 30/30", rep.SalesTxns, rep.StockTxns)
		}
		// The recovered site accepts new business.
		shop2 := bp.Shop
		_ = shop2
		tx := res.Sales.Begin()
		tx.Put(9999, []byte("post-failover"))
		if err := tx.Commit(p); err != nil {
			t.Errorf("post-failover commit: %v", err)
		}
	})
}

func TestFailoverMidStreamStaysConsistentWithCG(t *testing.T) {
	// Disaster strikes while the journal still has a backlog. With a
	// consistency group the recovered pair must never be collapsed — only
	// behind.
	deploySystem(t, oneLink(linkSlow()), func(p *sim.Proc, sys *System, bp *BusinessProcess) {
		if err := enableBackup(p, sys, "shop"); err != nil {
			t.Error(err)
			return
		}
		bp.Shop.Run(p, 50)
		// No catch-up: fail over with backlog in flight.
		res, err := sys.Failover(p, "shop")
		if err != nil {
			t.Error(err)
			return
		}
		rep := consistency.Verify(res.Sales, res.Stock, bp.Shop.SalesCommitOrder(), bp.Shop.StockCommitOrder())
		if rep.Collapsed() {
			t.Errorf("CG failover collapsed: %v", rep)
		}
		if !rep.OrderingOK() {
			t.Errorf("per-volume ordering broken: %v", rep)
		}
		if rep.SalesTxns == 50 && rep.StockTxns == 50 {
			t.Log("note: backlog empty at cut; loss scenario not exercised this seed")
		}
	})
}

func linkSlow() (c netlinkConfig) {
	c.Propagation = 20 * time.Millisecond
	c.BandwidthBps = 2e5
	return
}

func TestDisableBackupTearsDown(t *testing.T) {
	deploySystem(t, Config{}, func(p *sim.Proc, sys *System, bp *BusinessProcess) {
		if err := enableBackup(p, sys, "shop"); err != nil {
			t.Error(err)
			return
		}
		if err := sys.UpdateTenantSpec(p, "shop", func(s *platform.TenantSpec) { s.Backup = false }); err != nil {
			t.Error(err)
			return
		}
		// Give the operator + plugin time to reconcile the removal.
		deadline := p.Now() + 5*time.Second
		for len(sys.Groups("shop")) > 0 && p.Now() < deadline {
			p.Sleep(50 * time.Millisecond)
		}
		if got := len(sys.Groups("shop")); got != 0 {
			t.Errorf("groups after disable = %d", got)
		}
	})
}

func TestSnapshotViaFeatureGate(t *testing.T) {
	deploySystem(t, Config{FeatureGates: featureGatesOn()}, func(p *sim.Proc, sys *System, bp *BusinessProcess) {
		if err := enableBackup(p, sys, "shop"); err != nil {
			t.Error(err)
			return
		}
		bp.Shop.Run(p, 5)
		sys.CatchUp(p, "shop")
		group, err := sys.SnapshotBackup(p, "shop", "via-csi")
		if err != nil {
			t.Errorf("gated snapshot: %v", err)
			return
		}
		if len(group.Snapshots()) != 2 {
			t.Errorf("group members = %d", len(group.Snapshots()))
		}
		// The CR exists on the backup platform.
		if _, err := sys.Backup.API.Get(p, platform.ObjectKey{
			Kind: platform.KindVolumeGroupSnapshot, Namespace: "shop", Name: "via-csi",
		}); err != nil {
			t.Errorf("CR missing: %v", err)
		}
	})
}

func featureGatesOn() (g csiplugin.FeatureGates) { g.VolumeGroupSnapshot = true; return }

func TestSlowdownADCWriteLatencyIndependentOfLink(t *testing.T) {
	// Core-level E5 sanity: per-order latency with backup enabled over a
	// 100ms-RTT link stays near the no-backup latency.
	orderLatency := func(enable bool) time.Duration {
		var mean time.Duration
		deploySystem(t, oneLink(linkFat()), func(p *sim.Proc, sys *System, bp *BusinessProcess) {
			if enable {
				if err := enableBackup(p, sys, "shop"); err != nil {
					t.Error(err)
					return
				}
			}
			bp.Shop.Run(p, 30)
			mean = bp.Shop.Latency.Mean()
		})
		return mean
	}
	without, with := orderLatency(false), orderLatency(true)
	// Journaling adds small fixed cost; the 50ms propagation must not show.
	if with > without+5*time.Millisecond {
		t.Fatalf("ADC slowed orders: %v -> %v", without, with)
	}
}

func linkFat() (c netlinkConfig) {
	c.Propagation = 50 * time.Millisecond
	c.BandwidthBps = 1e9
	return
}
