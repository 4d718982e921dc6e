package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/consistency"
	"repro/internal/db"
	"repro/internal/platform"
	"repro/internal/sim"
)

// openDBForTest opens a database on a raw volume with default config.
func openDBForTest(p *sim.Proc, vol db.BlockWriter) (*db.DB, error) {
	return db.Open(p, "test", vol, db.Config{})
}

// Failure-injection tests: the system must converge despite partitions,
// lossy links, and operations racing with outages.

func TestEnableBackupSurvivesPartitionDuringInitialCopy(t *testing.T) {
	sys := NewSystem(oneLink(netlinkConfig{Propagation: 5 * time.Millisecond, BandwidthBps: 1e6}))
	failed := false
	sys.Env.Process("test", func(p *sim.Proc) {
		bp, err := sys.ProvisionTenant(p, platform.TenantSpec{Namespace: "shop", PVCNames: []string{"sales", "stock"}})
		if err != nil {
			failed = true
			t.Errorf("deploy: %v", err)
			return
		}
		// Preload data so the initial copy has real work, then cut the
		// link in the middle of it.
		if err := bp.Shop.Run(p, 30); err != nil {
			failed = true
			t.Error(err)
			return
		}
		outage := sys.Env.NewEvent()
		sys.Env.Process("chaos", func(cp *sim.Proc) {
			cp.Sleep(5 * time.Millisecond)
			sys.Links.Partition()
			cp.Sleep(300 * time.Millisecond)
			sys.Links.Heal()
			outage.Trigger()
		})
		// Enabling backup blocks through the outage and completes after heal.
		if err := enableBackup(p, sys, "shop"); err != nil {
			failed = true
			t.Errorf("enable backup through partition: %v", err)
			return
		}
		p.Wait(outage)
		bp.Shop.Run(p, 10)
		sys.CatchUp(p, "shop")
		res, err := sys.Failover(p, "shop")
		if err != nil {
			failed = true
			t.Error(err)
			return
		}
		rep := consistency.Verify(res.Sales, res.Stock, bp.Shop.SalesCommitOrder(), bp.Shop.StockCommitOrder())
		if rep.Collapsed() || !rep.OrderingOK() {
			failed = true
			t.Errorf("inconsistent after mid-copy partition: %v", rep)
		}
	})
	sys.Env.Run(2 * time.Hour)
	if failed {
		t.FailNow()
	}
}

func TestReplicationConvergesOnLossyLink(t *testing.T) {
	sys := NewSystem(oneLink(netlinkConfig{Propagation: 2 * time.Millisecond, BandwidthBps: 1e7}))
	sys.Links.Forward.SetFault(0.3, 0)
	sys.Env.Process("test", func(p *sim.Proc) {
		bp, err := sys.ProvisionTenant(p, platform.TenantSpec{Namespace: "shop", PVCNames: []string{"sales", "stock"}})
		if err != nil {
			t.Errorf("deploy: %v", err)
			return
		}
		if err := enableBackup(p, sys, "shop"); err != nil {
			t.Errorf("backup: %v", err)
			return
		}
		if err := bp.Shop.Run(p, 40); err != nil {
			t.Error(err)
			return
		}
		if !sys.CatchUp(p, "shop") {
			t.Error("never caught up on lossy link")
			return
		}
		if sys.RPO("shop") != 0 {
			t.Errorf("rpo = %v after catch-up", sys.RPO("shop"))
		}
		if sys.Links.Forward.Retransmits() == 0 {
			t.Error("loss injection never fired — test not exercising retries")
		}
	})
	sys.Env.Run(2 * time.Hour)
}

func TestRepeatedPartitionsDoNotReorder(t *testing.T) {
	sys := NewSystem(oneLink(netlinkConfig{Propagation: 2 * time.Millisecond, BandwidthBps: 1e7}))
	sys.Env.Process("test", func(p *sim.Proc) {
		bp, err := sys.ProvisionTenant(p, platform.TenantSpec{Namespace: "shop", PVCNames: []string{"sales", "stock"}})
		if err != nil {
			t.Errorf("deploy: %v", err)
			return
		}
		if err := enableBackup(p, sys, "shop"); err != nil {
			t.Errorf("backup: %v", err)
			return
		}
		flapping := sys.Env.NewEvent()
		sys.Env.Process("flapper", func(cp *sim.Proc) {
			for i := 0; i < 8; i++ {
				cp.Sleep(15 * time.Millisecond)
				sys.Links.Partition()
				cp.Sleep(10 * time.Millisecond)
				sys.Links.Heal()
			}
			flapping.Trigger()
		})
		if err := bp.Shop.Run(p, 80); err != nil {
			t.Error(err)
			return
		}
		p.Wait(flapping)
		sys.CatchUp(p, "shop")
		for _, g := range sys.Groups("shop") {
			if g.OrderBreaks() != 0 {
				t.Errorf("apply order broken across partitions: %d installs out of ack order", g.OrderBreaks())
			}
			var journaled int64
			for _, j := range g.Journal().Shards() {
				journaled += j.Appended()
			}
			if g.AppliedRecords() != journaled {
				t.Errorf("applied %d of %d journaled records", g.AppliedRecords(), journaled)
			}
		}
	})
	sys.Env.Run(2 * time.Hour)
}

func TestFullDisasterRecoveryCycle(t *testing.T) {
	// The complete DR lifecycle at the system level: run → disaster →
	// failover → production at backup → failback (delta resync) → reverse
	// replication carries new business to the restored main site.
	sys := NewSystem(Config{})
	sys.Env.Process("test", func(p *sim.Proc) {
		bp, err := sys.ProvisionTenant(p, platform.TenantSpec{Namespace: "shop", PVCNames: []string{"sales", "stock"}})
		if err != nil {
			t.Errorf("deploy: %v", err)
			return
		}
		if err := enableBackup(p, sys, "shop"); err != nil {
			t.Errorf("backup: %v", err)
			return
		}
		bp.Shop.Run(p, 30)
		sys.CatchUp(p, "shop")

		// Disaster + failover.
		sys.Links.Partition()
		fo, err := sys.Failover(p, "shop")
		if err != nil {
			t.Errorf("failover: %v", err)
			return
		}
		// Production at the backup site.
		tx := fo.Sales.BeginWithID(5000)
		tx.Put(5000, []byte("backup-era order"))
		if err := tx.Commit(p); err != nil {
			t.Errorf("backup-era commit: %v", err)
			return
		}

		// Main site returns; failback.
		sys.Links.Heal()
		fb, err := sys.Failback(p)
		if err != nil {
			t.Errorf("failback: %v", err)
			return
		}
		if fb.DeltaBlocks == 0 || fb.DeltaBlocks >= fb.FullBlocks {
			t.Errorf("delta resync implausible: %d of %d", fb.DeltaBlocks, fb.FullBlocks)
		}
		// New backup-site writes flow to main in reverse.
		tx2 := fo.Sales.BeginWithID(5001)
		tx2.Put(5001, []byte("post-failback order"))
		if err := tx2.Commit(p); err != nil {
			t.Errorf("post-failback commit: %v", err)
			return
		}
		for _, g := range fb.Reverse {
			g.CatchUp(p)
		}
		// The main site's volume now carries the backup-era history: a
		// fresh recovery there sees both orders.
		for _, g := range fb.Reverse {
			g.Stop()
		}
		mainSales, err := sys.Main.Array.Volume("pvc-shop-sales")
		if err != nil {
			t.Error(err)
			return
		}
		mainSales.SetReadOnly(false)
		recovered, err := openDBForTest(p, mainSales)
		if err != nil {
			t.Errorf("recover main: %v", err)
			return
		}
		if !recovered.HasCommitted(5000) || !recovered.HasCommitted(5001) {
			t.Error("backup-era history missing at restored main site")
		}
	})
	sys.Env.Run(2 * time.Hour)
}

// A site failback resyncs each failed-over group once. After tenant a has
// failed over and back, tenant b fails over: the next Failback must resync
// b and leave a's group, whose journal the first failback dropped, alone.
// With nothing failed over, or every failed-over group resynced, Failback
// answers ErrNothingToFailBack.
func TestFailbackAfterAnEarlierFailback(t *testing.T) {
	sys := NewSystem(Config{})
	sys.Env.Process("test", func(p *sim.Proc) {
		for _, ns := range []string{"a", "b"} {
			bp, err := sys.ProvisionTenant(p, tenantSpec(ns))
			if err != nil {
				t.Errorf("provision %s: %v", ns, err)
				return
			}
			if err := bp.Shop.Run(p, 10); err != nil {
				t.Errorf("orders %s: %v", ns, err)
				return
			}
			sys.CatchUp(p, ns)
		}
		if _, err := sys.Failback(p); !errors.Is(err, ErrNothingToFailBack) {
			t.Errorf("failback with nothing failed over: %v, want ErrNothingToFailBack", err)
		}
		for _, ns := range []string{"a", "b"} {
			if _, err := sys.Failover(p, ns); err != nil {
				t.Errorf("failover %s: %v", ns, err)
				return
			}
			fb, err := sys.Failback(p)
			if err != nil {
				t.Errorf("failback after %s failed over: %v", ns, err)
				return
			}
			if len(fb.Reverse) != 1 || fb.Reverse[0].Name() != "fb-backup-"+ns+"-0" || fb.DeltaBlocks == 0 {
				t.Errorf("failback after %s failed over: reverse groups %v, delta %d blocks, want %s's alone",
					ns, fb.Reverse, fb.DeltaBlocks, ns)
			}
		}
		if _, err := sys.Failback(p); !errors.Is(err, ErrNothingToFailBack) {
			t.Errorf("failback with every failed-over group resynced: %v, want ErrNothingToFailBack", err)
		}
		sys.Stop()
	})
	sys.Env.Run(2 * time.Hour)
}
