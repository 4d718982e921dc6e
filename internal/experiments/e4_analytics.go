package experiments

import (
	"fmt"
	"time"

	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sim"
)

// E4Analytics measures the data-analytics step (Fig. 6): running analytics
// against backup-site snapshots affects neither the main site's order
// latency nor replication's RPO, and the analytics see a frozen, consistent
// image.
//
// Expected shape: order latency and RPO identical with and without
// analytics; join finds zero unmatched rows.
func E4Analytics(seed int64, orders int) (*Table, error) {
	t := NewTable("E4: analytics on backup snapshots — zero interference (Fig. 6)",
		"scenario", "order mean", "RPO after", "analytics time", "orders seen", "join unmatched")
	run := func(withAnalytics bool) error {
		name := "no analytics"
		if withAnalytics {
			name = "analytics on snapshot"
		}
		// What the analytics measure: snapshot open + full scans, the
		// (frozen) orders they saw, and the join's unmatched rows.
		var anTime time.Duration
		var seen, unmatched int
		sys := core.NewSystem(core.Config{Seed: seed})
		err := runProc(sys.Env, "e4", time.Hour, func(p *sim.Proc) error {
			bp, err := sys.ProvisionTenant(p, platform.TenantSpec{Namespace: "shop", PVCNames: []string{"sales", "stock"}})
			if err != nil {
				return err
			}
			if err := sys.UpdateTenantSpec(p, "shop", func(s *platform.TenantSpec) { s.Backup = true }); err != nil {
				return err
			}
			if err := sys.WaitTenantCondition(p, "shop", core.CondBackupReady(), 30*time.Second); err != nil {
				return err
			}
			// Warm-up orders, snapshot, then the measured window.
			if err := bp.Shop.Run(p, orders/2); err != nil {
				return err
			}
			sys.CatchUp(p, "shop")
			group, err := sys.SnapshotBackup("shop", "e4")
			if err != nil {
				return err
			}
			frozenOrders := orders / 2

			// Measured window: main-site orders continue; analytics
			// optionally hammer the snapshot concurrently. Reset the
			// histogram so the window's latency is isolated from warm-up.
			bp.Shop.Latency.Reset()
			done := sys.Env.NewEvent()
			var anErr error
			if withAnalytics {
				sys.Env.Process("analytics", func(ap *sim.Proc) {
					defer done.Trigger()
					start := ap.Now()
					salesView, stockView, err := sys.AnalyticsDBs(ap, "shop", group)
					if err != nil {
						anErr = err
						return
					}
					sales, err := analytics.Sales(ap, salesView)
					if err != nil {
						anErr = err
						return
					}
					join, err := analytics.Join(ap, salesView, stockView)
					if err != nil {
						anErr = err
						return
					}
					anTime, seen, unmatched = ap.Now()-start, sales.Orders, join.Unmatched
					if sales.Orders != frozenOrders {
						anErr = fmt.Errorf("analytics saw %d orders, want frozen %d", sales.Orders, frozenOrders)
					}
				})
			} else {
				done.Trigger()
			}
			if err := bp.Shop.Run(p, orders/2); err != nil {
				return err
			}
			p.Wait(done)
			sys.CatchUp(p, "shop")
			t.AddRow(name, bp.Shop.Latency.Mean(), sys.RPO("shop"), anTime, seen, unmatched)
			return anErr
		})
		quiesce(sys, time.Hour+time.Second)
		return err
	}
	if err := run(false); err != nil {
		return nil, fmt.Errorf("E4 baseline: %w", err)
	}
	if err := run(true); err != nil {
		return nil, fmt.Errorf("E4 analytics: %w", err)
	}
	t.AddNote("shape: order latency and RPO identical across scenarios; analytics see a frozen consistent image")
	return t, nil
}
