// Analytics on backup data: the demo's third step (§IV-D, Fig. 6). While
// orders keep flowing at the main site, a data analyst opens the databases
// on backup-site snapshot volumes and runs reports — without touching the
// main site or disturbing replication.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sim"
)

func main() {
	sys := core.NewSystem(core.Config{Seed: 11})

	sys.Env.Process("analytics-demo", func(p *sim.Proc) {
		bp, err := sys.ProvisionTenant(p, platform.TenantSpec{Namespace: "shop", PVCNames: []string{"sales", "stock"}})
		if err != nil {
			log.Fatalf("deploy: %v", err)
		}
		if err := sys.UpdateTenantSpec(p, "shop", func(s *platform.TenantSpec) { s.Backup = true }); err != nil {
			log.Fatalf("backup: %v", err)
		}
		if err := sys.WaitTenantCondition(p, "shop", core.CondBackupReady(), 30*time.Second); err != nil {
			log.Fatalf("backup: %v", err)
		}

		// Morning business.
		if err := bp.Shop.Run(p, 60); err != nil {
			log.Fatalf("orders: %v", err)
		}
		sys.CatchUp(p, "shop")

		// The analyst cuts a snapshot group at the backup site...
		group, err := sys.SnapshotBackup("shop", "morning")
		if err != nil {
			log.Fatalf("snapshot: %v", err)
		}
		fmt.Println("snapshot group 'morning' created at the backup site")

		// ...while afternoon business continues at the main site.
		afternoon := sys.Env.NewEvent()
		sys.Env.Process("afternoon-orders", func(op *sim.Proc) {
			defer afternoon.Trigger()
			if err := bp.Shop.Run(op, 60); err != nil {
				log.Fatalf("afternoon orders: %v", err)
			}
		})

		// The analytics application reads the frozen morning image.
		salesView, stockView, err := sys.AnalyticsDBs(p, "shop", group)
		if err != nil {
			log.Fatalf("open views: %v", err)
		}
		sales, err := analytics.Sales(p, salesView)
		if err != nil {
			log.Fatalf("sales report: %v", err)
		}
		stock, err := analytics.Stock(p, stockView)
		if err != nil {
			log.Fatalf("stock report: %v", err)
		}
		join, err := analytics.Join(p, salesView, stockView)
		if err != nil {
			log.Fatalf("join: %v", err)
		}

		fmt.Printf("morning report: %d orders between %v and %v\n",
			sales.Orders, sales.FirstOrderAt, sales.LastOrderAt)
		fmt.Printf("stock report: %d items touched\n", stock.ItemsTouched)
		fmt.Printf("cross-check: %d/%d stock rows match a recorded order (%d unmatched)\n",
			join.Matched, join.StockRows, join.Unmatched)

		p.Wait(afternoon)
		sys.CatchUp(p, "shop")
		fmt.Printf("meanwhile the main site completed %d total orders; replication RPO is %v\n",
			bp.Shop.Completed.Value(), sys.RPO("shop"))
		fmt.Printf("the frozen snapshot still reports %d orders — analytics and business never interfered\n",
			sales.Orders)
	})

	sys.Env.Run(time.Hour)
}
