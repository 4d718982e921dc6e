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

// EndToEndResult summarizes one full run of the Fig. 1 pipeline.
type EndToEndResult struct {
	Orders          int
	OrderMean       time.Duration
	TimeToReady     time.Duration // tag -> replication Ready
	ReplicatedRecs  int64
	SnapshotMembers int
	AnalyticsOrders int
	Consistent      bool
	FailoverTime    time.Duration
	// FailoverTime's three phases, summed over the two databases, and the WAL
	// blocks the log read found live and read to find them.
	FailoverLogRead, FailoverPageRead, FailoverFlush time.Duration
	FailoverLogLive, FailoverLogBlocksRead           int

	FailoverIntact bool
}

// E1EndToEnd runs the entire demonstration once: deploy the business
// process, enable backup through the operator, run orders, snapshot the
// backup, run analytics, and finally fail over. It is the integration
// experiment behind Fig. 1 and the demo walkthrough of §IV.
func E1EndToEnd(seed int64, orders int) (EndToEndResult, error) {
	var res EndToEndResult
	res.Orders = orders
	sys := core.NewSystem(core.Config{Seed: seed})
	var runErr error
	sys.Env.Process("e1", func(p *sim.Proc) {
		bp, err := sys.ProvisionTenant(p, platform.TenantSpec{Namespace: "shop", PVCNames: []string{"sales", "stock"}})
		if err != nil {
			runErr = err
			return
		}
		start := p.Now()
		if err := sys.UpdateTenantSpec(p, "shop", func(s *platform.TenantSpec) { s.Backup = true }); err != nil {
			runErr = err
			return
		}
		if err := sys.WaitTenantCondition(p, "shop", core.CondBackupReady(), 30*time.Second); err != nil {
			runErr = err
			return
		}
		res.TimeToReady = p.Now() - start
		if err := bp.Shop.Run(p, orders); err != nil {
			runErr = err
			return
		}
		res.OrderMean = bp.Shop.Latency.Mean()
		sys.CatchUp(p, "shop")
		for _, g := range sys.Groups("shop") {
			res.ReplicatedRecs += g.AppliedRecords()
		}
		group, err := sys.SnapshotBackup(p, "shop", "e1")
		if err != nil {
			runErr = err
			return
		}
		res.SnapshotMembers = len(group.Snapshots())
		salesView, stockView, err := sys.AnalyticsDBs(p, "shop", group)
		if err != nil {
			runErr = err
			return
		}
		sales, err := analytics.Sales(p, salesView)
		if err != nil {
			runErr = err
			return
		}
		res.AnalyticsOrders = sales.Orders
		rep := consistency.Verify(salesView, stockView, bp.Shop.SalesCommitOrder(), bp.Shop.StockCommitOrder())
		res.Consistent = !rep.Collapsed() && rep.OrderingOK()

		fo, err := sys.Failover(p, "shop")
		if err != nil {
			runErr = err
			return
		}
		res.FailoverTime = fo.RecoveryTime
		for _, d := range []*db.DB{fo.Sales, fo.Stock} {
			res.FailoverLogRead += d.LogReadTime()
			res.FailoverPageRead += d.PageReadTime()
			res.FailoverFlush += d.FlushTime()
			live, read := d.LogBlocks()
			res.FailoverLogLive += live
			res.FailoverLogBlocksRead += read
		}
		foRep := consistency.Verify(fo.Sales, fo.Stock, bp.Shop.SalesCommitOrder(), bp.Shop.StockCommitOrder())
		res.FailoverIntact = !foRep.Collapsed() && foRep.OrderingOK()
	})
	sys.Env.Run(time.Hour)
	sys.Stop() // quiesce so repeated runs in one process do not accumulate parked procs
	sys.Env.Run(time.Hour)
	if runErr != nil {
		return res, fmt.Errorf("E1: %w", runErr)
	}
	return res, nil
}

// E1Table renders the E1 result.
func E1Table(r EndToEndResult) *Table {
	t := NewTable("E1: end-to-end demonstration pipeline (Fig. 1, §IV)",
		"metric", "value")
	t.AddRow("orders placed", r.Orders)
	t.AddRow("mean order latency", r.OrderMean)
	t.AddRow("tag -> replication ready", r.TimeToReady)
	t.AddRow("journal records applied at backup", r.ReplicatedRecs)
	t.AddRow("snapshot group members", r.SnapshotMembers)
	t.AddRow("orders visible to analytics", r.AnalyticsOrders)
	t.AddRow("snapshot consistent", r.Consistent)
	t.AddRow("failover recovery time", r.FailoverTime)
	t.AddRow("  log read + page read + flush", fmt.Sprintf("%v (%d live / %d read) + %v + %v",
		r.FailoverLogRead, r.FailoverLogLive, r.FailoverLogBlocksRead, r.FailoverPageRead, r.FailoverFlush))
	t.AddRow("failover business intact", r.FailoverIntact)
	t.AddNote("shape: analytics see every caught-up order; snapshot and failover images are consistent")
	return t
}
