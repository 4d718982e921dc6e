// Command backupdemo replays the paper's on-stage demonstration (§IV) as a
// console program: a split main-site / backup-site view (Fig. 2), the
// backup-configuration step (Fig. 3), the persistent volumes appearing at
// the backup site (Fig. 4), snapshot development (Fig. 5), and data
// analytics on the snapshot volumes (Fig. 6), which also verifies the
// snapshot against the shop's commit orders. A transaction ticker plays the
// role of the demo's transaction window.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"repro/internal/analytics"
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sim"
)

func main() {
	seed := flag.Int64("seed", 42, "simulation seed")
	orders := flag.Int("orders", 120, "orders the transaction window plays")
	disaster := flag.Bool("disaster", false, "append a disaster drill: failover, production at backup, failback")
	flag.Parse()

	sys := core.NewSystem(core.Config{Seed: *seed})
	sys.Env.Process("demo", func(p *sim.Proc) {
		runDemo(p, sys, *orders)
		if *disaster {
			runDisaster(p, sys)
		}
	})
	sys.Env.Run(2 * time.Hour)
}

// runDisaster extends the demo past the paper: lose the main site, recover
// at the backup, and fail back when the main site returns.
func runDisaster(p *sim.Proc, sys *core.System) {
	banner("Encore — disaster drill (what the consistency groups were for)")
	sys.Links.Partition()
	fmt.Println("  DISASTER: inter-site link severed; main site presumed lost")
	fo, err := sys.Failover(p, "shop")
	if err != nil {
		log.Fatalf("failover: %v", err)
	}
	fmt.Printf("  failover complete in %v: databases recovered at the backup site\n", fo.RecoveryTime)

	tx := fo.Sales.BeginWithID(900001)
	tx.Put(900001, []byte("backup-era order"))
	if err := tx.Commit(p); err != nil {
		log.Fatalf("backup-era commit: %v", err)
	}
	fmt.Println("  business resumed at the backup site (one order committed)")

	sys.Links.Heal()
	fmt.Println("  main site restored; links healed")
	fb, err := sys.Failback(p)
	if err != nil {
		log.Fatalf("failback: %v", err)
	}
	fmt.Printf("  failback: delta resync moved %d blocks (full copy would move %d) in %v\n",
		fb.DeltaBlocks, fb.FullBlocks, fb.ResyncTime)
	fmt.Println("  reverse replication running: the main site shadows the backup until switchback")
	for _, g := range fb.Reverse {
		g.CatchUp(p)
		g.Stop()
	}
}

func banner(title string) {
	fmt.Println()
	fmt.Println(strings.Repeat("=", 72))
	fmt.Printf("  %s\n", title)
	fmt.Println(strings.Repeat("=", 72))
}

// splitView renders the Fig. 2 screen: main site on the left, backup on
// the right.
func splitView(p *sim.Proc, sys *core.System, namespace string) {
	left := pvLines(p, sys.Main.API, namespace)
	right := pvLines(p, sys.Backup.API, namespace)
	for len(left) < len(right) {
		left = append(left, "")
	}
	for len(right) < len(left) {
		right = append(right, "")
	}
	fmt.Printf("  %-34s | %-34s\n", "MAIN SITE", "BACKUP SITE")
	fmt.Printf("  %-34s-+-%-34s\n", strings.Repeat("-", 34), strings.Repeat("-", 34))
	for i := range left {
		fmt.Printf("  %-34s | %-34s\n", left[i], right[i])
	}
}

func pvLines(p *sim.Proc, api *platform.APIServer, namespace string) []string {
	var out []string
	for _, obj := range api.List(p, platform.KindPVC, namespace) {
		c, phase := obj.(*platform.PersistentVolumeClaim), "Bound"
		if c.Status.VolumeName == "" {
			phase = "Pending"
		}
		out = append(out, fmt.Sprintf("pvc %s/%s [%s]", c.Namespace, c.Name, phase))
	}
	if len(out) == 0 {
		out = append(out, "(no persistent volumes)")
	}
	return out
}

func runDemo(p *sim.Proc, sys *core.System, orders int) {
	banner("Demonstration system: two sites, two arrays, two container platforms")
	fmt.Printf("  inter-site RTT %v, storage %s / %s\n",
		sys.Links.RTT(), sys.Main.Array.Name(), sys.Backup.Array.Name())

	bp, err := sys.ProvisionTenant(p, platform.TenantSpec{Namespace: "shop", PVCNames: []string{"sales", "stock"}})
	if err != nil {
		log.Fatalf("deploy: %v", err)
	}
	fmt.Println("\n  deployed namespace 'shop': transactional app + sales DB + stock DB")
	splitView(p, sys, "shop")

	// Transaction window: continuous business in the background.
	fmt.Printf("\n  [transaction window] starting continuous order processing (%d orders)\n", orders)
	txnDone := sys.Env.NewEvent()
	sys.Env.Process("transaction-window", func(tp *sim.Proc) {
		defer txnDone.Trigger()
		if err := bp.Shop.Run(tp, orders); err != nil {
			log.Fatalf("orders: %v", err)
		}
	})

	banner("Step 1 — backup configuration (Fig. 3): tag the namespace")
	fmt.Printf("  $ oc label namespace shop backup=%s\n", "ConsistentCopyToCloud")
	if err := sys.UpdateTenantSpec(p, "shop", func(s *platform.TenantSpec) { s.Backup = true }); err != nil {
		log.Fatalf("enable backup: %v", err)
	}
	if err := sys.WaitTenantCondition(p, "shop", core.CondBackupReady(), 30*time.Second); err != nil {
		log.Fatalf("enable backup: %v", err)
	}
	fmt.Println("  namespace operator: discovered PVCs, created ReplicationGroup CR")
	fmt.Println("  replication plugin: journal + consistency group configured, ADC running")
	fmt.Println("\n  persistent volumes after tagging (Fig. 4) — note the backup side:")
	splitView(p, sys, "shop")

	p.Wait(txnDone)
	fmt.Printf("\n  [transaction window] %d orders completed, mean latency %v (RTT %v — no slowdown)\n",
		bp.Shop.Completed.Value(), bp.Shop.Latency.Mean(), sys.Links.RTT())
	sys.CatchUp(p, "shop")
	fmt.Printf("  replication caught up: backlog %d, RPO %v\n", sys.Backlog("shop"), sys.RPO("shop"))

	banner("Step 2 — snapshot development (Fig. 5): group snapshot at the backup site")
	group, err := sys.SnapshotBackup("shop", "demo")
	if err != nil {
		log.Fatalf("snapshot: %v", err)
	}
	fmt.Println("  CSI VolumeGroupSnapshot is alpha and unsupported by the plugin (§II):")
	fmt.Println("  operated the external storage system directly")
	for _, s := range group.Snapshots() {
		fmt.Printf("  snapshot %-28s of volume %-20s at %v\n", s.ID(), s.Parent().ID(), s.TakenAt())
	}

	banner("Step 3 — data analytics (Fig. 6): read the snapshot volumes")
	salesView, stockView, err := sys.AnalyticsDBs(p, "shop", group)
	if err != nil {
		log.Fatalf("analytics: %v", err)
	}
	sales, _ := analytics.Sales(p, salesView)
	stock, _ := analytics.Stock(p, stockView)
	join, _ := analytics.Join(p, salesView, stockView)
	fmt.Printf("  orders in backup image:      %d\n", sales.Orders)
	fmt.Printf("  stock items touched:         %d\n", stock.ItemsTouched)
	fmt.Printf("  stock rows matching orders:  %d/%d (%d unmatched)\n", join.Matched, join.StockRows, join.Unmatched)
	rep := consistency.Verify(salesView, stockView, bp.Shop.SalesCommitOrder(), bp.Shop.StockCommitOrder())
	fmt.Printf("  backup verification:         %v\n", rep)
	if rep.Collapsed() {
		log.Fatal("backup collapsed — this must never happen with consistency groups")
	}
	if join.Unmatched == 0 {
		fmt.Println("  the backup data is consistent: no collapsed transactions")
	}

	banner("Demonstration complete")
	fmt.Printf("  slowdown eliminated (ADC), downtime eliminated (consistency groups + snapshots)\n")
	fmt.Printf("  virtual time elapsed: %v\n", p.Now())
}
