// Ransomware drill: the §I incident class the demo system protects
// against. Replication alone is NOT protection — ADC dutifully copies the
// attacker's encryption to the backup site. The snapshot group taken at
// the backup site before the attack is what saves the business: clone
// volumes from it, run database recovery, and the orders are back.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/csiplugin"
	"repro/internal/db"
	"repro/internal/platform"
	"repro/internal/sim"
)

func main() {
	sys := core.NewSystem(core.Config{Seed: 1337})

	sys.Env.Process("drill", func(p *sim.Proc) {
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
		if err := bp.Shop.Run(p, 50); err != nil {
			log.Fatalf("orders: %v", err)
		}
		sys.CatchUp(p, "shop")

		// The nightly snapshot group at the backup site — the restore point.
		group, err := sys.SnapshotBackup("shop", "nightly")
		if err != nil {
			log.Fatalf("snapshot: %v", err)
		}
		fmt.Println("nightly snapshot group taken at the backup site (50 orders)")

		// The attack: garbage written over the main site's sales volume.
		salesVol, err := sys.Main.Array.Volume(csiplugin.VolumeIDForClaim("shop", "sales"))
		if err != nil {
			log.Fatal(err)
		}
		garbage := make([]byte, sys.Main.Array.Config().BlockSize)
		for i := range garbage {
			garbage[i] = 0x66
		}
		for b := int64(0); b < 64; b++ {
			if _, err := salesVol.Write(p, b, garbage); err != nil {
				log.Fatalf("attack write: %v", err)
			}
		}
		fmt.Println("ATTACK: sales volume encrypted at the main site")

		// Replication faithfully copies the damage.
		sys.CatchUp(p, "shop")
		backupSales, _ := sys.Backup.Array.Volume(csiplugin.VolumeIDForClaim("shop", "sales"))
		if _, err := db.OpenView(p, "backup-sales", backupSales, sys.Cfg.DB); err != nil {
			fmt.Printf("backup replica is ALSO damaged (as expected): %v\n", err)
		} else {
			fmt.Println("unexpected: backup replica still opens")
		}

		// Recovery: clone the nightly snapshot into fresh volumes and run
		// ordinary database recovery on them.
		start := p.Now()
		salesSnap := group.Snapshot(csiplugin.VolumeIDForClaim("shop", "sales"))
		stockSnap := group.Snapshot(csiplugin.VolumeIDForClaim("shop", "stock"))
		salesClone, err := sys.Backup.Array.CloneVolume(p, salesSnap.ID(), "restored-sales")
		if err != nil {
			log.Fatalf("clone: %v", err)
		}
		stockClone, err := sys.Backup.Array.CloneVolume(p, stockSnap.ID(), "restored-stock")
		if err != nil {
			log.Fatalf("clone: %v", err)
		}
		salesDB, err := db.Open(p, "restored-sales", salesClone, sys.Cfg.DB)
		if err != nil {
			log.Fatalf("recovery: %v", err)
		}
		stockDB, err := db.Open(p, "restored-stock", stockClone, sys.Cfg.DB)
		if err != nil {
			log.Fatalf("recovery: %v", err)
		}
		fmt.Printf("restored from the nightly snapshot in %v (clone + WAL recovery)\n", p.Now()-start)

		rep, err := analytics.Sales(p, salesDB)
		if err != nil {
			log.Fatalf("report: %v", err)
		}
		join, err := analytics.Join(p, salesDB, stockDB)
		if err != nil {
			log.Fatalf("join: %v", err)
		}
		fmt.Printf("recovered %d orders; %d/%d stock rows consistent with them\n",
			rep.Orders, join.Matched, join.StockRows)
		if rep.Orders == 50 && join.Unmatched == 0 {
			fmt.Println("business data fully recovered — snapshots, not replication, defeat ransomware")
		}

		// The restored system accepts new business immediately.
		tx := salesDB.Begin()
		tx.Put(9001, []byte("first post-recovery order"))
		if err := tx.Commit(p); err != nil {
			log.Fatalf("post-recovery commit: %v", err)
		}
		fmt.Println("first post-recovery order committed")
	})

	sys.Env.Run(time.Hour)
}
