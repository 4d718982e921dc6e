package experiments

import (
	"fmt"
	"time"

	"repro/internal/analytics"
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/platform"
	"repro/internal/sim"
)

// E1EndToEnd runs the entire demonstration once: deploy the business
// process, enable backup through the operator, run orders, snapshot the
// backup, run analytics, and finally fail over. It is the integration
// experiment behind Fig. 1 and the demo walkthrough of §IV.
func E1EndToEnd(seed int64, orders int) (*Table, error) {
	t := NewTable("E1: end-to-end demonstration pipeline (Fig. 1, §IV)",
		"metric", "value")
	sys := core.NewSystem(core.Config{Seed: seed})
	err := runProc(sys.Env, "e1", time.Hour, func(p *sim.Proc) error {
		bp, err := sys.ProvisionTenant(p, platform.TenantSpec{Namespace: "shop", PVCNames: []string{"sales", "stock"}})
		if err != nil {
			return err
		}
		start := p.Now()
		if err := sys.UpdateTenantSpec(p, "shop", func(s *platform.TenantSpec) { s.Backup = true }); err != nil {
			return err
		}
		if err := sys.WaitTenantCondition(p, "shop", core.CondBackupReady(), 30*time.Second); err != nil {
			return err
		}
		ready := p.Now() - start
		if err := bp.Shop.Run(p, orders); err != nil {
			return err
		}
		t.AddRow("orders placed", orders)
		t.AddRow("mean order latency", bp.Shop.Latency.Mean())
		t.AddRow("tag -> replication ready", ready)
		sys.CatchUp(p, "shop")
		var applied int64
		for _, g := range sys.Groups("shop") {
			applied += g.AppliedRecords()
		}
		t.AddRow("journal records applied at backup", applied)
		group, err := sys.SnapshotBackup("shop", "e1")
		if err != nil {
			return err
		}
		t.AddRow("snapshot group members", len(group.Snapshots()))
		salesView, stockView, err := sys.AnalyticsDBs(p, "shop", group)
		if err != nil {
			return err
		}
		sales, err := analytics.Sales(p, salesView)
		if err != nil {
			return err
		}
		t.AddRow("orders visible to analytics", sales.Orders)
		rep := consistency.Verify(salesView, stockView, bp.Shop.SalesCommitOrder(), bp.Shop.StockCommitOrder())
		t.AddRow("snapshot consistent", !rep.Collapsed() && rep.OrderingOK())

		fo, err := sys.Failover(p, "shop")
		if err != nil {
			return err
		}
		t.AddRow("failover recovery time", fo.RecoveryTime)
		// The recovery time's three phases, summed over the two databases,
		// and the WAL blocks the log read found live and read to find them.
		var logRead, pageRead, flush time.Duration
		var logLive, logBlocksRead int
		for _, d := range []*db.DB{fo.Sales, fo.Stock} {
			logRead += d.LogReadTime()
			pageRead += d.PageReadTime()
			flush += d.FlushTime()
			live, read := d.LogBlocks()
			logLive += live
			logBlocksRead += read
		}
		t.AddRow("  log read + page read + flush", fmt.Sprintf("%v (%d live / %d read) + %v + %v",
			logRead, logLive, logBlocksRead, pageRead, flush))
		foRep := consistency.Verify(fo.Sales, fo.Stock, bp.Shop.SalesCommitOrder(), bp.Shop.StockCommitOrder())
		t.AddRow("failover business intact", !foRep.Collapsed() && foRep.OrderingOK())
		return nil
	})
	quiesce(sys, time.Hour)
	if err != nil {
		return nil, fmt.Errorf("E1: %w", err)
	}
	t.AddNote("shape: analytics see every caught-up order; snapshot and failover images are consistent")
	return t, nil
}
