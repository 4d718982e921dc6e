// Quickstart: bring up the two-site demonstration system, tag the
// namespace, run some business, and show that the backup site has a
// consistent copy — the paper's Fig. 1 pipeline in ~60 lines.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sim"
)

func main() {
	sys := core.NewSystem(core.Config{Seed: 42})

	sys.Env.Process("quickstart", func(p *sim.Proc) {
		// Deploy the e-commerce business process: a namespace with a
		// transactional app over sales and stock databases.
		bp, err := sys.ProvisionTenant(p, platform.TenantSpec{Namespace: "shop", PVCNames: []string{"sales", "stock"}})
		if err != nil {
			log.Fatalf("deploy: %v", err)
		}
		fmt.Println("deployed business process in namespace", bp.Namespace)

		// Step 1 — backup configuration: one user operation (declare
		// Backup, which tags the namespace); the operator does the rest.
		if err := sys.UpdateTenantSpec(p, "shop", func(s *platform.TenantSpec) { s.Backup = true }); err != nil {
			log.Fatalf("enable backup: %v", err)
		}
		if err := sys.WaitTenantCondition(p, "shop", core.CondBackupReady(), 30*time.Second); err != nil {
			log.Fatalf("enable backup: %v", err)
		}
		fmt.Println("backup configured: ADC with a consistency group")

		// Business processing continues, unslowed.
		if err := bp.Shop.Run(p, 100); err != nil {
			log.Fatalf("orders: %v", err)
		}
		fmt.Printf("placed 100 orders, mean latency %v (link RTT is %v)\n",
			bp.Shop.Latency.Mean(), sys.Links.RTT())

		// Step 2 — snapshot development at the backup site.
		sys.CatchUp(p, "shop")
		group, err := sys.SnapshotBackup("shop", "quickstart")
		if err != nil {
			log.Fatalf("snapshot: %v", err)
		}
		fmt.Printf("snapshot group %q: %d volumes frozen at %v\n",
			group.Name(), len(group.Snapshots()), group.TakenAt())

		// Step 3 — verify the backup is consistent and complete.
		salesView, stockView, err := sys.AnalyticsDBs(p, "shop", group)
		if err != nil {
			log.Fatalf("analytics open: %v", err)
		}
		rep := consistency.Verify(salesView, stockView,
			bp.Shop.SalesCommitOrder(), bp.Shop.StockCommitOrder())
		fmt.Printf("backup verification: %v\n", rep)
		if rep.Collapsed() {
			log.Fatal("backup collapsed — this must never happen with consistency groups")
		}
		fmt.Println("backup is consistent: the business process is recoverable at the backup site")
	})

	end := sys.Env.Run(time.Hour)
	fmt.Printf("simulation finished at virtual time %v\n", end)
}
